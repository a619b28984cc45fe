"""Unit generation answers from the job adjacency table exactly as the
graph-walking reference in ``tests/unit_oracle.py`` does.

Every check pairs :class:`OptimizationUnitGenerator` with the reference: the
same units in the same order, the same sub-unit splits, and the same handled
set after every ``mark_handled`` — while a real two-phase search rewrites the
plan under them (the twelve pinned plans cold and warm, random workflows,
merges and sub-result reuse), on every plan a unit report saw before its
unit, and on hand-made units the generator never emits.
"""

import collections

import pytest

from repro.cluster import ClusterSpec
from repro.common.errors import WorkflowValidationError
from repro.core import search as search_module
from repro.core.decision_cache import DecisionCache
from repro.core.optimization_unit import OptimizationUnit, OptimizationUnitGenerator
from repro.core.optimizer import StubbyOptimizer
from repro.core.plan import Plan
from repro.core.subresults import SubResultCatalog, register_workflow_outputs
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import simple_job
from repro.workflow.executor import WorkflowExecutor
from repro.workflow.graph import Workflow
from tests import golden_digests as golden, unit_oracle

CLUSTER = ClusterSpec.paper_cluster()


@pytest.fixture()
def twinned(monkeypatch):
    """Make the search's generator check itself against the reference at
    every call; yields the counts of what was compared."""
    seen = collections.Counter()

    class Twin(OptimizationUnitGenerator):
        def __init__(self):
            super().__init__()
            self.reference = unit_oracle.OptimizationUnitGenerator()

        def next_unit(self, plan):
            unit = super().next_unit(plan)
            assert unit == self.reference.next_unit(plan)
            seen["units"] += unit is not None
            return unit

        def independent_subunits(self, plan, unit):
            subunits = super().independent_subunits(plan, unit)
            assert subunits == self.reference.independent_subunits(plan, unit)
            seen["split units"] += len(subunits) > 1
            return subunits

        def mark_handled(self, plan, unit):
            super().mark_handled(plan, unit)
            self.reference.mark_handled(plan, unit)
            assert self.handled == self.reference.handled
            seen["producers gone"] += not set(unit.producers) <= set(plan.job_names)

    monkeypatch.setattr(search_module, "OptimizationUnitGenerator", Twin)
    return seen


def _assert_walks_equal(plan):
    """Walk every unit of a fixed ``plan`` with both generators; the count."""
    generator, reference = OptimizationUnitGenerator(), unit_oracle.OptimizationUnitGenerator()
    units = 0
    while (unit := generator.next_unit(plan)) is not None:
        assert unit == reference.next_unit(plan)
        assert generator.independent_subunits(plan, unit) == reference.independent_subunits(
            plan, unit
        )
        generator.mark_handled(plan, unit)
        reference.mark_handled(plan, unit)
        assert generator.handled == reference.handled
        units += 1
    assert reference.next_unit(plan) is None
    return units


def _assert_reports_walk_equal(result):
    """Every plan a unit saw before its search, walked from scratch."""
    assert result.unit_reports
    for report in result.unit_reports:
        assert _assert_walks_equal(report.plan_before) > 0


def _merged(result):
    """Whether the search changed the plan's job set (a packing or a reuse)."""
    return any(
        set(report.plan_before.job_names) != set(report.plan_after.job_names)
        for report in result.unit_reports
    )


class TestTheSearchSeesTheReferenceUnits:
    @pytest.mark.parametrize("label", [*golden.GOLDEN])
    def test_pinned_plans_cold_and_warm(self, label, twinned):
        plan = golden.plan_of(label)
        assert _assert_walks_equal(plan) > 0
        optimizer = StubbyOptimizer(
            CLUSTER, seed=17, decision_cache=DecisionCache(CLUSTER, enabled=True)
        )
        cold = optimizer.optimize(plan)
        units = twinned["units"]
        warm = optimizer.optimize(plan)
        assert warm.decision_stats.decision_hits == twinned["units"] - units > 0
        assert warm.decision_fingerprint() == cold.decision_fingerprint()
        _assert_reports_walk_equal(cold)

    def test_random_workflows(self, workflow_generator, twinned):
        merged = 0
        for seed in (55, 1003, 1017, 2101, 2102, 2103):
            generated = workflow_generator.generate(seed)
            assert _assert_walks_equal(generated.plan) > 0
            result = StubbyOptimizer(CLUSTER, seed=17).optimize(generated.plan)
            _assert_reports_walk_equal(result)
            merged += _merged(result)
        assert twinned["units"] > 0 and twinned["split units"] > 0
        assert merged > 0

    def test_sub_result_reuse(self, workflow_generator, twinned):
        reused = 0
        for seed in range(1000, 1006):
            first, second = workflow_generator.shared_prefix_pair(seed)
            catalog = SubResultCatalog(CLUSTER, enabled=True)
            executed, _ = WorkflowExecutor().execute(
                first.workflow.copy(), first.base_datasets, collect_outputs=True
            )
            outputs = {}
            for per_job in executed.job_outputs.values():
                outputs.update(per_job)
            register_workflow_outputs(catalog, first.workflow, outputs)
            result = StubbyOptimizer(CLUSTER, subresult_catalog=catalog).optimize(second.plan)
            _assert_reports_walk_equal(result)
            reused += result.subresult_reuse_applications
        # A reused cone takes its unit's producer with it.
        assert reused > 0 and twinned["producers gone"] > 0


def _job(name, inputs, output):
    return simple_job(
        name, inputs, output, lambda key, value: iter([({}, dict(value))]), config=JobConfig()
    )


def _plan(*jobs):
    workflow = Workflow("hand-made")
    for job in jobs:
        workflow.add_job(job)
    return Plan(workflow)


#: Two disjoint chains and a job reading both: A1 -> A2, B1 -> B2, (a1, b1) -> C.
TWO_CHAINS = (
    ("A1", "src_a", "a1"),
    ("B1", "src_b", "b1"),
    ("A2", "a1", "a2"),
    ("B2", "b1", "b2"),
    ("C", ("a1", "b1"), "c"),
)


class TestHandMadeUnits:
    """Units the generator never emits take the reference's split."""

    @pytest.fixture()
    def plan(self):
        return _plan(*(_job(*shape) for shape in TWO_CHAINS))

    @staticmethod
    def _split(plan, unit):
        subunits = OptimizationUnitGenerator().independent_subunits(plan, unit)
        assert subunits == unit_oracle.OptimizationUnitGenerator().independent_subunits(plan, unit)
        return subunits

    def test_a_consumer_that_does_not_read_the_producer_is_split_off(self, plan):
        subunits = self._split(plan, OptimizationUnit(("A1",), ("A2", "B2")))
        assert [sub.jobs for sub in subunits] == [("A1", "A2"), ("B2",)]

    def test_disjoint_producer_groups_split(self, plan):
        subunits = self._split(plan, OptimizationUnit(("A1", "B1"), ("A2", "B2")))
        assert subunits == [
            OptimizationUnit(("A1",), ("A2",)),
            OptimizationUnit(("B1",), ("B2",)),
        ]
        # Groups come in the order of their first job in the unit.
        subunits = self._split(plan, OptimizationUnit(("B1", "A1"), ("A2", "B2")))
        assert [sub.producers for sub in subunits] == [("B1",), ("A1",)]
        # A consumer reading both producers joins the two groups.
        joined = self._split(plan, OptimizationUnit(("A1", "B1"), ("A2", "B2", "C")))
        assert joined == [OptimizationUnit(("A1", "B1"), ("A2", "B2", "C"))]

    def test_one_producer_and_its_readers_come_back_as_the_unit(self, plan):
        for consumers in ((), ("C",), ("C", "A2"), ("A2", "A2")):
            unit = OptimizationUnit(("A1",), consumers)
            assert self._split(plan, unit) == [unit]
        # The producer among its own consumers is no reader of itself.
        unit = OptimizationUnit(("A1",), ("A1", "A2"))
        assert self._split(plan, unit) == [unit]

    def test_a_unit_without_producers_gets_its_consumers_as_producers(self, plan):
        assert self._split(plan, OptimizationUnit((), ("A2", "C"))) == [
            OptimizationUnit(("A2", "C"), ("A2", "C"))
        ]

    def test_an_unknown_job_raises_like_the_reference(self, plan):
        for unit in (OptimizationUnit(("nope",), ()), OptimizationUnit(("A1",), ("nope",))):
            for generator in (OptimizationUnitGenerator(), unit_oracle.OptimizationUnitGenerator()):
                with pytest.raises(WorkflowValidationError, match="'nope'"):
                    generator.independent_subunits(plan, unit)

    def test_a_walk_over_the_hand_made_plan(self, plan):
        assert _assert_walks_equal(plan) == 2

    def test_a_handled_job_that_leaves_the_plan_leaves_the_handled_set(self, plan):
        """No transformation removes a job that already served as a
        producer, so only an edit between units reaches the pruning: a
        rename (the job set keeps its size) and removals (it shrinks)."""
        generator, reference = OptimizationUnitGenerator(), unit_oracle.OptimizationUnitGenerator()
        for walker in (generator, reference):
            walker.mark_handled(plan, walker.next_unit(plan))
        assert generator.handled == reference.handled == {"A1", "B1"}
        edits = (
            (lambda workflow: workflow.replace_job("A1", _job("A1x", "src_a", "a1")), {"B1"}),
            (lambda workflow: [workflow.remove_job(name) for name in ("C", "B2", "B1")], set()),
        )
        for edit, left in edits:
            edit(plan.workflow)
            for walker in (generator, reference):
                walker.mark_handled(plan, OptimizationUnit((), ()))
            assert generator.handled == reference.handled == left
        # A job that takes a pruned name again is not handled.
        plan.workflow.add_job(_job("B1", "src_b", "b9"))
        assert generator.next_unit(plan) == reference.next_unit(plan) == OptimizationUnit(
            ("A1x", "B1"), ("A2",)
        )
