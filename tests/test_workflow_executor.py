"""Tests for the workflow executor: ordering, failures, and output routing."""

import pytest

from repro.common.errors import ExecutionError, WorkflowValidationError
from repro.core.plan import Plan
from repro.dfs.dataset import Dataset
from repro.dfs.filesystem import InMemoryFileSystem
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.job import simple_job
from repro.workflow.executor import WorkflowExecutor
from repro.workflow.graph import Workflow
from repro.workloads import common


def _records(n=30):
    return [{"k": f"k{i % 3}", "x": float(i), "n": 1.0} for i in range(n)]


def _diamond_workflow():
    """J_top -> d1 -> (J_left, J_right) -> (d2, d3) -> J_bottom -> d4."""
    workflow = Workflow(name="diamond")
    workflow.add_job(
        simple_job("J_top", "base", "d1", map_fn=common.key_by(("k",), value_fields=("x", "n")))
    )
    workflow.add_job(
        simple_job(
            "J_left", "d1", "d2",
            map_fn=common.key_by(("k",), value_fields=("x",)),
            reduce_fn=common.sum_reduce("x", "x"),
            group_fields=("k",),
        )
    )
    workflow.add_job(
        simple_job(
            "J_right", "d1", "d3",
            map_fn=common.key_by(("k",), value_fields=("n",)),
            reduce_fn=common.sum_reduce("n", "n"),
            group_fields=("k",),
        )
    )
    join_map = common.tagged_join_map(("k",), {"left": ("x", ("k", "x")), "right": ("n", ("k", "n"))})
    workflow.add_job(
        simple_job(
            "J_bottom", ("d2", "d3"), "d4",
            map_fn=join_map,
            reduce_fn=common.join_reduce("left", "right", ("k", "x", "n")),
            group_fields=("k",),
        )
    )
    return workflow


class TestExecutionOrder:
    def test_topological_order_and_execution_order_agree(self):
        workflow = _diamond_workflow()
        result, _ = WorkflowExecutor().execute(
            workflow, base_datasets={"base": Dataset("base", records=_records())}
        )
        order = result.execution_order
        assert order.index("J_top") < order.index("J_left")
        assert order.index("J_top") < order.index("J_right")
        assert order.index("J_left") < order.index("J_bottom")
        assert order.index("J_right") < order.index("J_bottom")
        assert set(order) == {"J_top", "J_left", "J_right", "J_bottom"}

    def test_insertion_order_breaks_ties(self):
        workflow = _diamond_workflow()
        result, _ = WorkflowExecutor().execute(
            workflow, base_datasets={"base": Dataset("base", records=_records())}
        )
        # J_left and J_right are concurrent; insertion order decides.
        order = result.execution_order
        assert order.index("J_left") < order.index("J_right")


class TestFailurePropagation:
    def test_missing_base_dataset_raises(self):
        workflow = _diamond_workflow()
        with pytest.raises(ExecutionError, match="needs dataset 'base'"):
            WorkflowExecutor().execute(workflow)

    def test_job_exception_propagates(self):
        def exploding_map(key, value):
            raise RuntimeError("user code exploded")
            yield  # pragma: no cover

        workflow = Workflow(name="boom")
        workflow.add_job(simple_job("J1", "base", "out", map_fn=exploding_map))
        with pytest.raises(RuntimeError, match="user code exploded"):
            WorkflowExecutor().execute(
                workflow, base_datasets={"base": Dataset("base", records=_records())}
            )

    def test_invalid_workflow_rejected_before_running(self):
        workflow = Workflow(name="cycle")
        workflow.add_job(simple_job("J1", "a", "b", map_fn=common.key_by(("k",))))
        workflow.add_job(simple_job("J2", "b", "a", map_fn=common.key_by(("k",))))
        with pytest.raises(WorkflowValidationError):
            WorkflowExecutor().execute(workflow)

    def test_counters_for_unknown_job_raises(self):
        workflow = Workflow(name="single")
        workflow.add_job(simple_job("J1", "base", "out", map_fn=common.key_by(("k",))))
        result, _ = WorkflowExecutor().execute(
            workflow, base_datasets={"base": Dataset("base", records=_records())}
        )
        assert result.counters_for("J1") is not None
        with pytest.raises(ExecutionError, match="no execution result"):
            result.counters_for("J99")


class TestOutputRouting:
    def test_intermediates_routed_to_downstream_jobs(self):
        workflow = _diamond_workflow()
        result, fs = WorkflowExecutor().execute(
            workflow, base_datasets={"base": Dataset("base", records=_records())}
        )
        for name in ("d1", "d2", "d3", "d4"):
            assert fs.exists(name)
        # The join saw both sides: every key has sum-of-x and count.
        joined = fs.get("d4").all_records()
        assert joined
        for record in joined:
            assert set(record) == {"k", "x", "n"}

    def test_job_outputs_snapshot_collected_on_demand(self):
        workflow = _diamond_workflow()
        result, fs = WorkflowExecutor().execute(
            workflow,
            base_datasets={"base": Dataset("base", records=_records())},
            collect_outputs=True,
        )
        assert set(result.job_outputs) == set(result.execution_order)
        assert set(result.job_outputs["J_left"]) == {"d2"}
        assert result.job_outputs["J_left"]["d2"] == fs.get("d2").all_records()
        # Without the flag nothing is snapshotted.
        bare, _ = WorkflowExecutor().execute(
            workflow, base_datasets={"base": Dataset("base", records=_records())}
        )
        assert bare.job_outputs == {}

    def test_prestaged_filesystem_reused(self):
        workflow = _diamond_workflow()
        fs = InMemoryFileSystem()
        fs.put(Dataset("base", records=_records()))
        result, out_fs = WorkflowExecutor().execute(workflow, filesystem=fs)
        assert out_fs is fs
        assert result.num_jobs == 4

    def test_materialized_nonbase_dataset_staged_when_unproduced(self):
        workflow = Workflow(name="partial")
        workflow.add_job(
            simple_job("J2", "mid", "out", map_fn=common.key_by(("k",), value_fields=("x",)))
        )
        # 'mid' is normally produced upstream; here it carries materialized
        # data and has no producer, so the executor stages it directly.
        workflow.add_dataset("mid", dataset=Dataset("mid", records=_records(10)))
        result, fs = WorkflowExecutor().execute(workflow)
        assert fs.exists("out")
        assert result.job_results["J2"].per_output_records["out"] == 10

    def test_execute_plan_collects_outputs_by_default(self):
        workflow = _diamond_workflow()
        plan = Plan(workflow.copy())
        result, fs = WorkflowExecutor().execute_plan(
            plan, base_datasets={"base": Dataset("base", records=_records())}
        )
        assert set(result.job_outputs) == {"J_top", "J_left", "J_right", "J_bottom"}
        assert result.total_counters.output_records > 0

    def test_engine_level_output_collection(self):
        engine = LocalEngine(collect_outputs=True)
        fs = InMemoryFileSystem()
        fs.put(Dataset("base", records=_records()))
        job = simple_job(
            "J1", "base", "out",
            map_fn=common.key_by(("k",), value_fields=("x",)),
            reduce_fn=common.sum_reduce("x", "x"),
            group_fields=("k",),
        )
        job_result = engine.execute_job(job, fs)
        assert job_result.output_records["out"] == fs.get("out").all_records()
        # Two runs over the same input collect identical snapshots.
        fs2 = InMemoryFileSystem()
        fs2.put(Dataset("base", records=_records()))
        assert engine.execute_job(job, fs2).output_records == job_result.output_records
