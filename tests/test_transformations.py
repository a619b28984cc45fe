"""Tests for the five transformation types: preconditions, postconditions, and
result equivalence of transformed plans."""

import pytest

from repro.cluster import ClusterSpec
from repro.common.records import records_equal
from repro.core.plan import Plan
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
)
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.profiler import Profiler
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import build_workload


def _profiled_plan(abbr, scale=0.15):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload, workload.plan


def _execute(plan_or_workflow, workload):
    workflow = plan_or_workflow.workflow if isinstance(plan_or_workflow, Plan) else plan_or_workflow
    execution, filesystem = WorkflowExecutor().execute(
        workflow.copy(), base_datasets=workload.base_datasets
    )
    return filesystem


def _terminal_outputs(workload, filesystem):
    outputs = {}
    for vertex in workload.workflow.terminal_datasets():
        if filesystem.exists(vertex.name):
            outputs[vertex.name] = filesystem.get(vertex.name).all_records()
    return outputs


class TestIntraJobVerticalPacking:
    def test_finds_application_on_ir(self):
        _, plan = _profiled_plan("IR")
        applications = IntraJobVerticalPacking().find_applications(plan, ("IR_J1", "IR_J2"))
        assert len(applications) == 1
        assert applications[0].target_jobs == ("IR_J1", "IR_J2")
        assert applications[0].details["intersection"] == ("doc",)

    def test_no_application_without_schema(self):
        _, plan = _profiled_plan("IR")
        plan.workflow.annotate_job("IR_J2", schema=None)
        assert IntraJobVerticalPacking().find_applications(plan, ("IR_J1", "IR_J2")) == []

    def test_no_application_when_keys_do_not_flow(self):
        _, plan = _profiled_plan("IR")
        # IR_J3 re-groups on {word}, which is not part of IR_J2's key.
        assert IntraJobVerticalPacking().find_applications(plan, ("IR_J2", "IR_J3")) == []

    def test_apply_sets_postconditions(self):
        _, plan = _profiled_plan("IR")
        transformation = IntraJobVerticalPacking()
        application = transformation.find_applications(plan, ("IR_J1", "IR_J2"))[0]
        packed = transformation.apply(plan, application)
        consumer = packed.job("IR_J2").job
        producer = packed.job("IR_J1")
        assert consumer.is_map_only
        assert consumer.config.chained_input
        assert producer.job.effective_partitioner.fields == ("doc",)
        assert producer.annotations.partition_constraint is not None
        # Original plan untouched.
        assert not plan.job("IR_J2").job.is_map_only

    def test_none_to_one_application_on_sn(self):
        _, plan = _profiled_plan("SN")
        applications = IntraJobVerticalPacking().find_applications(plan, ("SN_J1",))
        assert applications and applications[0].details["case"] == "none-to-one"

    def test_packed_plan_produces_same_result(self):
        workload, plan = _profiled_plan("IR")
        transformation = IntraJobVerticalPacking()
        application = transformation.find_applications(plan, ("IR_J1", "IR_J2"))[0]
        packed = transformation.apply(plan, application)
        reference = _terminal_outputs(workload, _execute(workload.workflow, workload))
        packed_fs = _execute(packed, workload)
        for name, records in reference.items():
            assert records_equal(records, packed_fs.get(name).all_records())


class TestInterJobVerticalPacking:
    def _intra_then_inter_plan(self):
        workload, plan = _profiled_plan("IR")
        intra = IntraJobVerticalPacking()
        plan = intra.apply(plan, intra.find_applications(plan, ("IR_J1", "IR_J2"))[0])
        return workload, plan

    def test_requires_map_only_member(self):
        _, plan = _profiled_plan("IR")
        assert InterJobVerticalPacking().find_applications(plan, ("IR_J1", "IR_J2")) == []

    def test_finds_application_after_intra(self):
        _, plan = self._intra_then_inter_plan()
        applications = InterJobVerticalPacking().find_applications(plan, ("IR_J1", "IR_J2"))
        assert applications and applications[0].details["case"] == "absorb-consumer"

    def test_apply_eliminates_job_and_dataset(self):
        workload, plan = self._intra_then_inter_plan()
        inter = InterJobVerticalPacking()
        merged = inter.apply(plan, inter.find_applications(plan, ("IR_J1", "IR_J2"))[0])
        assert merged.num_jobs == 2
        assert merged.workflow.has_job("IR_J1+IR_J2")
        assert not merged.workflow.has_dataset("ir_tf")

    def test_merged_plan_produces_same_result(self):
        workload, plan = self._intra_then_inter_plan()
        inter = InterJobVerticalPacking()
        merged = inter.apply(plan, inter.find_applications(plan, ("IR_J1", "IR_J2"))[0])
        reference = _terminal_outputs(workload, _execute(workload.workflow, workload))
        merged_fs = _execute(merged, workload)
        for name, records in reference.items():
            assert records_equal(records, merged_fs.get(name).all_records())

    def test_not_applicable_when_dataset_has_other_consumers(self):
        _, plan = _profiled_plan("BA")
        intra = IntraJobVerticalPacking()
        applications = intra.find_applications(plan, ("BA_J1", "BA_J2", "BA_J3"))
        assert applications
        packed = intra.apply(plan, applications[0])
        # ba_items feeds both BA_J2 and BA_J3, so BA_J2 cannot be absorbed into BA_J1.
        inter_apps = InterJobVerticalPacking().find_applications(packed, ("BA_J1", "BA_J2", "BA_J3"))
        assert all(app.target_jobs != ("BA_J1", "BA_J2") for app in inter_apps)


class TestHorizontalPacking:
    def test_finds_shared_input_group(self):
        _, plan = _profiled_plan("PJ")
        applications = HorizontalPacking(allow_extended=False).find_applications(
            plan, ("PJ_J2", "PJ_J3")
        )
        assert len(applications) == 1
        assert set(applications[0].target_jobs) == {"PJ_J2", "PJ_J3"}

    def test_extended_group_for_disjoint_inputs(self):
        _, plan = _profiled_plan("BR")
        applications = HorizontalPacking(allow_extended=True).find_applications(
            plan, ("BR_J6", "BR_J7")
        )
        assert any(app.details["extended"] for app in applications)

    def test_does_not_pack_dependent_jobs(self):
        _, plan = _profiled_plan("IR")
        assert HorizontalPacking().find_applications(plan, ("IR_J1", "IR_J2")) == []

    def test_apply_merges_pipelines_and_outputs(self):
        workload, plan = _profiled_plan("PJ")
        transformation = HorizontalPacking(allow_extended=False)
        application = transformation.find_applications(plan, ("PJ_J2", "PJ_J3"))[0]
        packed = transformation.apply(plan, application)
        merged_name = "+".join(application.target_jobs)
        merged = packed.job(merged_name).job
        assert len(merged.pipelines) == 2
        assert set(merged.output_datasets) == {"pj_cov", "pj_corr"}

    def test_packed_plan_produces_same_result(self):
        workload, plan = _profiled_plan("PJ")
        transformation = HorizontalPacking(allow_extended=False)
        application = transformation.find_applications(plan, ("PJ_J2", "PJ_J3"))[0]
        packed = transformation.apply(plan, application)
        reference = _terminal_outputs(workload, _execute(workload.workflow, workload))
        packed_fs = _execute(packed, workload)
        for name, records in reference.items():
            assert records_equal(records, packed_fs.get(name).all_records())

    def test_packed_plan_with_coarse_grouping_is_correct(self):
        """BR after vertical packing: the packed job keeps {orderid} co-located."""
        workload, plan = _profiled_plan("BR")
        intra = IntraJobVerticalPacking()
        inter = InterJobVerticalPacking()
        for consumer in ("BR_J4", "BR_J5"):
            apps = intra.find_applications(plan, ("BR_J2", "BR_J3", "BR_J4", "BR_J5"))
            app = [a for a in apps if consumer in a.target_jobs][0]
            plan = intra.apply(plan, app)
        for pair in (("BR_J2", "BR_J4"), ("BR_J3", "BR_J5")):
            apps = inter.find_applications(plan, ("BR_J2", "BR_J3", "BR_J4", "BR_J5"))
            app = [a for a in apps if a.target_jobs == pair][0]
            plan = inter.apply(plan, app)
        horizontal = HorizontalPacking(allow_extended=False)
        apps = horizontal.find_applications(plan, ("BR_J2+BR_J4", "BR_J3+BR_J5"))
        assert apps
        packed = horizontal.apply(plan, apps[0])
        merged = packed.job("BR_J2+BR_J4+BR_J3+BR_J5").job
        assert merged.effective_partitioner.fields == ("orderid",)
        reference = _terminal_outputs(workload, _execute(workload.workflow, workload))
        packed_fs = _execute(packed, workload)
        for name, records in reference.items():
            assert records_equal(records, packed_fs.get(name).all_records())

    def test_chained_jobs_are_not_packed(self):
        _, plan = _profiled_plan("BA")
        intra = IntraJobVerticalPacking()
        apps = intra.find_applications(plan, ("BA_J1", "BA_J2", "BA_J3"))
        plan = intra.apply(plan, apps[0])
        applications = HorizontalPacking(allow_extended=False).find_applications(
            plan, ("BA_J2", "BA_J3")
        )
        assert applications == []


class TestPartitionFunctionTransformation:
    def test_enables_pruning_for_us_consumers(self):
        workload, plan = _profiled_plan("US")
        transformation = PartitionFunctionTransformation()
        applications = [
            a
            for a in transformation.find_applications(plan, ("US_J1", "US_J2", "US_J3"))
            if a.details.get("case") != "base-dataset-pruning"
        ]
        assert applications
        transformed = transformation.apply(plan, applications[0])
        producer = transformed.job("US_J1").job
        assert producer.effective_partitioner.kind == "range"
        young = transformed.job("US_J2").job.pipelines[0]
        assert young.allowed_partitions("us_sessions") is not None

    def test_pruned_plan_produces_same_result(self):
        workload, plan = _profiled_plan("US")
        transformation = PartitionFunctionTransformation()
        applications = transformation.find_applications(plan, ("US_J1", "US_J2", "US_J3"))
        transformed = plan
        for application in applications:
            transformed = transformation.apply(transformed, application)
        reference = _terminal_outputs(workload, _execute(workload.workflow, workload))
        pruned_fs = _execute(transformed, workload)
        for name, records in reference.items():
            assert records_equal(records, pruned_fs.get(name).all_records())

    def test_base_dataset_pruning_for_la(self):
        workload, plan = _profiled_plan("LA")
        transformation = PartitionFunctionTransformation()
        applications = [
            a
            for a in transformation.find_applications(plan, ("LA_J1",))
            if a.details.get("case") == "base-dataset-pruning"
        ]
        assert applications
        pruned = transformation.apply(plan, applications[0])
        pipeline = pruned.job("LA_J1").job.pipelines[0]
        allowed = pipeline.allowed_partitions("uservisits")
        assert allowed is not None and len(allowed) < 13

    def test_respects_partition_constraint(self):
        _, plan = _profiled_plan("US")
        from repro.mapreduce.partitioner import PartitionFunction

        constraint = PartitionFunction(kind="hash", fields=("userid",), sort_fields=("userid",))
        plan.workflow.annotate_job("US_J1", partition_constraint=constraint)
        applications = [
            a
            for a in PartitionFunctionTransformation().find_applications(plan, ("US_J1", "US_J2", "US_J3"))
            if a.details.get("case") != "base-dataset-pruning"
        ]
        assert applications == []


class TestConfigurationTransformation:
    def test_apply_changes_config(self):
        _, plan = _profiled_plan("IR")
        application = ConfigurationTransformation.application_for(
            "IR_J1", {"num_reduce_tasks": 55, "compress_map_output": True}
        )
        changed = ConfigurationTransformation().apply(plan, application)
        config = changed.job("IR_J1").job.config
        assert config.num_reduce_tasks == 55 and config.compress_map_output
        assert plan.job("IR_J1").job.config.num_reduce_tasks != 55

    def test_find_applications_is_empty(self):
        _, plan = _profiled_plan("IR")
        assert ConfigurationTransformation().find_applications(plan, ("IR_J1",)) == []

    def test_rule_of_thumb_respects_forced_single_reduce(self):
        _, plan = _profiled_plan("SN")
        ConfigurationTransformation.rule_of_thumb_config(plan, ClusterSpec.paper_cluster())
        assert plan.job("SN_J4").job.config.num_reduce_tasks == 1
        assert plan.job("SN_J2").job.config.num_reduce_tasks > 1
