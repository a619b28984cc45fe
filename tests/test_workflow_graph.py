"""Tests for the workflow DAG model and subgraph classification."""

import copy
import dataclasses
import typing

import pytest

from repro.common.errors import WorkflowValidationError
from repro.dfs.dataset import Dataset
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapReduceJob, simple_job
from repro.mapreduce.pipeline import Operator, Pipeline
from repro.profiler import Profiler
from repro.workflow.annotations import JobAnnotations
from repro.workflow.graph import DatasetVertex, JobVertex, Workflow
from repro.workloads import build_workload
from repro.workflow.subgraphs import (
    SubgraphType,
    classify_subgraph,
    concurrently_runnable_groups,
    shared_input_groups,
)
from tests import graph_oracle as oracle


def _identity(key, value):
    yield {}, dict(value)


def _job(name, inputs, output, reduce_key=None):
    return simple_job(
        name,
        inputs,
        output,
        _identity,
        reduce_fn=(lambda key, values: iter([(key, values[0])])) if reduce_key else None,
        group_fields=(reduce_key,) if reduce_key else (),
        config=JobConfig(num_reduce_tasks=2 if reduce_key else 0),
    )


def build_diamond() -> Workflow:
    """D0 -> J1 -> D1 -> {J2, J3} -> D2/D3 -> J4 (reads both)."""
    workflow = Workflow("diamond")
    workflow.add_job(_job("J1", "D0", "D1", reduce_key="k"))
    workflow.add_job(_job("J2", "D1", "D2", reduce_key="k"))
    workflow.add_job(_job("J3", "D1", "D3", reduce_key="k"))
    workflow.add_job(_job("J4", ("D2", "D3"), "D4", reduce_key="k"))
    return workflow


class TestWorkflowStructure:
    def test_duplicate_job_rejected(self):
        workflow = Workflow()
        workflow.add_job(_job("J1", "D0", "D1"))
        with pytest.raises(WorkflowValidationError):
            workflow.add_job(_job("J1", "D0", "D2"))

    def test_producer_and_consumers(self):
        workflow = build_diamond()
        assert workflow.producer_of("D1").name == "J1"
        assert workflow.producer_of("D0") is None
        assert {c.name for c in workflow.consumers_of("D1")} == {"J2", "J3"}

    def test_producer_and_consumer_jobs(self):
        workflow = build_diamond()
        assert {p.name for p in workflow.producer_jobs("J4")} == {"J2", "J3"}
        assert {c.name for c in workflow.consumer_jobs("J1")} == {"J2", "J3"}

    def test_base_and_terminal_datasets(self):
        workflow = build_diamond()
        assert [d.name for d in workflow.base_datasets()] == ["D0"]
        assert [d.name for d in workflow.terminal_datasets()] == ["D4"]
        assert {d.name for d in workflow.intermediate_datasets()} == {"D1", "D2", "D3"}

    def test_topological_order(self):
        workflow = build_diamond()
        order = [v.name for v in workflow.topological_order()]
        assert order.index("J1") < order.index("J2")
        assert order.index("J2") < order.index("J4")
        assert order.index("J3") < order.index("J4")

    def test_topological_levels(self):
        workflow = build_diamond()
        levels = [[v.name for v in level] for level in workflow.topological_levels()]
        assert levels == [["J1"], ["J2", "J3"], ["J4"]]

    def test_depends_on(self):
        workflow = build_diamond()
        assert workflow.depends_on("J4", "J1")
        assert not workflow.depends_on("J1", "J4")
        assert not workflow.depends_on("J2", "J3")

    def test_depends_on_self_is_false(self):
        """Regression (ISSUE 6): the upward walk used to start *at* the
        consumer, so ``depends_on(x, x)`` was ``True`` for every job."""
        workflow = build_diamond()
        for name in workflow.job_names:
            assert not workflow.depends_on(name, name)
            assert not oracle.depends_on(workflow, name, name)

    def test_validate_detects_double_writer(self):
        workflow = Workflow()
        workflow.add_job(_job("J1", "D0", "D1"))
        workflow.add_job(_job("J2", "D0", "D1"))
        with pytest.raises(WorkflowValidationError):
            workflow.validate()

    def test_validate_detects_self_loop(self):
        workflow = Workflow()
        job = _job("J1", "D0", "D0")
        with pytest.raises(WorkflowValidationError):
            workflow.add_job(job)
            workflow.validate()

    def test_copy_is_independent(self):
        workflow = build_diamond()
        clone = workflow.copy()
        clone.remove_job("J4")
        assert workflow.has_job("J4")
        assert not clone.has_job("J4")

    def test_replace_job_keeps_order(self):
        workflow = build_diamond()
        replacement = _job("J2b", "D1", "D2", reduce_key="k")
        workflow.replace_job("J2", replacement)
        assert workflow.has_job("J2b") and not workflow.has_job("J2")
        order = [v.name for v in workflow.topological_order()]
        assert order.index("J2b") < order.index("J4")

    def test_replace_job_rejects_name_collision(self):
        """Regression (ISSUE 13): renaming onto an existing job used to patch
        the index, then let the original overwrite the replacement."""
        workflow = build_diamond()
        order = [v.name for v in workflow.topological_order()]  # builds the index
        vertices = list(workflow.jobs)
        index = workflow._topology()
        adjacency = copy.deepcopy((index.producers, index.consumers, index.order))
        clash = _job("J3", "D1", "D3", reduce_key="k")
        with pytest.raises(WorkflowValidationError, match="duplicate job name"):
            workflow.replace_job("J2", clash)
        assert all(a is b for a, b in zip(workflow.jobs, vertices, strict=True))
        assert workflow._topology() is index and index.adjacency.order == order
        assert (index.producers, index.consumers, index.order) == adjacency
        assert [v.name for v in workflow.topological_order()] == order
        # Replacing a job under its own name is not a collision.
        workflow.replace_job("J3", clash)
        assert workflow.job("J3").job is clash

    def test_prune_orphan_datasets(self):
        workflow = build_diamond()
        workflow.remove_job("J4")
        orphans = workflow.prune_orphan_datasets()
        assert "D4" in orphans

    def test_remove_referenced_dataset_rejected(self):
        # Pruning is the one way to drop a dataset vertex: it removes only
        # datasets no job reads or writes, never a referenced one.
        workflow = build_diamond()
        workflow.add_dataset("Dspare")
        assert workflow.prune_orphan_datasets() == ["Dspare"]
        assert all(workflow.has_dataset(f"D{i}") for i in range(5))
        workflow.remove_job("J4")
        assert workflow.prune_orphan_datasets() == ["D4"]
        assert all(workflow.has_dataset(f"D{i}") for i in range(4))


class TestTopologicalOrderDeterminism:
    """The heap-based sort emits byte-identical orders to the old one."""

    @pytest.mark.parametrize("seed", range(10))
    def test_heap_toposort_matches_pre_index_order_on_random_dags(self, seed):
        from repro.verification import RandomWorkflowGenerator

        generator = RandomWorkflowGenerator().with_config(
            min_jobs=8, max_jobs=14, profile=False
        )
        workflow = generator.generate(seed).workflow
        expected = [v.name for v in oracle.pre_index_topological_order(workflow)]
        assert [v.name for v in workflow.topological_order()] == expected
        assert [v.name for v in oracle.topological_order(workflow)] == expected

    def test_heap_toposort_matches_after_replace_job(self):
        workflow = build_diamond()
        workflow.replace_job("J2", _job("J2b", "D1", "D2", reduce_key="k"))
        expected = [v.name for v in oracle.pre_index_topological_order(workflow)]
        assert [v.name for v in workflow.topological_order()] == expected


class TestProducerConsumerDedup:
    """Seen-set dedup keeps first-seen output order (no O(n) membership)."""

    def test_consumer_jobs_order_with_fan_out(self):
        workflow = Workflow()
        workflow.add_job(_job("P", "D0", "D1"))
        for index in range(6):
            workflow.add_job(_job(f"C{index}", "D1", f"D2_{index}"))
        assert [c.name for c in workflow.consumer_jobs("P")] == [
            f"C{index}" for index in range(6)
        ]

    def test_producer_jobs_order_follows_input_dataset_order(self):
        workflow = Workflow()
        workflow.add_job(_job("A", "S0", "DA"))
        workflow.add_job(_job("B", "S0", "DB"))
        # J reads DB before DA: producer order must follow its input order,
        # not the producers' insertion order.
        workflow.add_job(_job("J", ("DB", "DA"), "DJ"))
        assert [p.name for p in workflow.producer_jobs("J")] == ["B", "A"]
        assert [p.name for p in oracle.producer_jobs(workflow, "J")] == ["B", "A"]


class TestSubgraphClassification:
    def test_none_to_one(self):
        workflow = build_diamond()
        edges = classify_subgraph(workflow, "D0")
        assert edges[0].subgraph is SubgraphType.NONE_TO_ONE

    def test_one_to_many(self):
        workflow = build_diamond()
        edges = classify_subgraph(workflow, "D1")
        assert {e.subgraph for e in edges} == {SubgraphType.ONE_TO_MANY}
        assert len(edges) == 2

    def test_many_to_one(self):
        workflow = build_diamond()
        # J4 reads D2 from J2 and D3 from J3.
        edges = classify_subgraph(workflow, "D2")
        assert [(e.producer, e.consumer, e.subgraph) for e in edges] == [
            ("J2", "J4", SubgraphType.MANY_TO_ONE)
        ]

    def test_one_to_none(self):
        workflow = build_diamond()
        edges = classify_subgraph(workflow, "D4")
        assert edges[0].subgraph is SubgraphType.ONE_TO_NONE

    def test_one_to_one(self):
        workflow = Workflow()
        workflow.add_job(_job("A", "D0", "D1", reduce_key="k"))
        workflow.add_job(_job("B", "D1", "D2", reduce_key="k"))
        edges = classify_subgraph(workflow, "D1")
        assert [(e.producer, e.consumer, e.subgraph) for e in edges] == [
            ("A", "B", SubgraphType.ONE_TO_ONE)
        ]

    def test_classify_pair_unrelated(self):
        # J2 and J3 only share an input: no dataset links them as a pair.
        workflow = build_diamond()
        pairs = {
            (e.producer, e.consumer)
            for name in ("D0", "D1", "D2", "D3", "D4")
            for e in classify_subgraph(workflow, name)
        }
        assert ("J2", "J3") not in pairs and ("J3", "J2") not in pairs
        assert ("J1", "J2") in pairs and ("J3", "J4") in pairs

    def test_shared_input_groups(self):
        workflow = build_diamond()
        groups = dict(shared_input_groups(workflow))
        assert set(groups["D1"]) == {"J2", "J3"}

    def test_concurrently_runnable_groups(self):
        workflow = build_diamond()
        groups = concurrently_runnable_groups(workflow)
        assert ["J2", "J3"] in groups


def _dataclasses_reached_from(*roots):
    """Every dataclass reachable from ``roots`` through field type hints."""
    reached, pending = set(), list(roots)
    while pending:
        hint = pending.pop()
        if dataclasses.is_dataclass(hint) and hint not in reached:
            reached.add(hint)
            pending.extend(typing.get_type_hints(hint).values())
        pending.extend(typing.get_args(hint))
    return reached


class TestFrozenValues:
    """Everything a workflow maps a name to is immutable, by type.

    Walking the type hints (not a hand-kept list) covers a field — or a whole
    value class — the day it is added.
    """

    #: The materialised records a dataset vertex may point at: data, not plan.
    DATA_NOT_PLAN = {Dataset}

    def test_every_dataclass_under_a_vertex_is_frozen(self):
        reached = _dataclasses_reached_from(JobVertex, DatasetVertex)
        assert {JobAnnotations, MapReduceJob, Pipeline, Operator, JobConfig} <= reached
        thawed = {
            cls.__name__
            for cls in reached - self.DATA_NOT_PLAN
            if not cls.__dataclass_params__.frozen
        }
        assert not thawed

    def test_no_field_of_a_built_plan_can_be_assigned(self):
        workload = build_workload("BR", scale=0.05)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        pending = list(workload.workflow.jobs) + list(workload.workflow.datasets)
        seen = set()
        while pending:
            value = pending.pop()
            if isinstance(value, (tuple, list, frozenset)):
                pending.extend(value)
            elif isinstance(value, typing.Mapping):
                pending.extend(value.values())
            elif dataclasses.is_dataclass(value) and type(value) not in self.DATA_NOT_PLAN:
                seen.add(type(value))
                for field in dataclasses.fields(value):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(value, field.name, None)
                    pending.append(getattr(value, field.name))
        assert {JobVertex, DatasetVertex, JobAnnotations, MapReduceJob, Pipeline} <= seen
        # The mapping fields of the graph values are read-only content too
        # (a profile's two are what its cached ``key`` is built from).
        vertex = workload.workflow.jobs[0]
        for mapping in (
            vertex.annotations.conditions,
            vertex.annotations.per_input_filters,
            vertex.job.pipelines[0].input_partition_filter,
            vertex.annotations.profile.key_cardinalities,
            vertex.annotations.profile.operator_profiles,
        ):
            with pytest.raises(TypeError):
                mapping["probe"] = None

    def test_copy_leaves_its_source_untouched(self):
        workflow = build_diamond()
        workflow.topological_order()  # an index to share
        before = {name: (value, copy.copy(value)) for name, value in vars(workflow).items()}
        workflow.copy()
        after = vars(workflow)
        assert after.keys() == before.keys()
        changed = {
            name
            for name, (value, snapshot) in before.items()
            if after[name] is not value
            or (isinstance(value, (dict, set, list)) and value != snapshot)
        }
        assert changed == set()
