"""Tests for optimization units, the search strategy, and the Stubby optimizer."""

import multiprocessing.process

import pytest

from repro.cluster import ClusterSpec
from repro.common.records import records_equal
from repro.core.optimization_unit import OptimizationUnit, OptimizationUnitGenerator
from repro.core.optimizer import StubbyOptimizer
from repro.core.parallel import Pool
from repro.core.plan import Plan
from repro.core.rrs import RecursiveRandomSearch
from repro.core.search import StubbySearch
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
)
from repro.mapreduce.config import ConfigDimension, ConfigurationSpace
from repro.profiler import Profiler
from repro.whatif import ActualCostModel
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import WORKLOAD_ORDER, build_workload

CLUSTER = ClusterSpec.paper_cluster()


def _profiled(abbr, scale=0.15):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload


def _optimize(plan_source):
    return StubbyOptimizer(CLUSTER, seed=17).optimize(plan_source)


class TestOptimizationUnits:
    def test_units_cover_graph_in_order(self):
        workload = _profiled("BR")
        generator = OptimizationUnitGenerator()
        plan = workload.plan
        units = []
        while (unit := generator.next_unit(plan)) is not None:
            generator.mark_handled(plan, unit)
            units.append(unit)
        assert units[0].producers == ("BR_J1",)
        assert set(units[0].consumers) == {"BR_J2", "BR_J3"}
        assert set(units[1].producers) == {"BR_J2", "BR_J3"}
        # Every job eventually serves as a producer.
        produced = {name for unit in units for name in unit.producers}
        assert produced == set(workload.workflow.job_names)

    def test_unit_jobs_deduplicated(self):
        unit = OptimizationUnit(producers=("A", "B"), consumers=("B", "C"))
        assert unit.jobs == ("A", "B", "C")

    def test_next_unit_none_when_done(self):
        workload = _profiled("IR")
        generator = OptimizationUnitGenerator()
        plan = workload.plan
        while True:
            unit = generator.next_unit(plan)
            if unit is None:
                break
            generator.mark_handled(plan, unit)
        assert generator.next_unit(plan) is None


class TestIndependentSubunits:
    """The dependency analysis behind the split-unit search."""

    def test_disjoint_components_split(self):
        # PJ's first unit has several source jobs; whether they split depends
        # on shared inputs, so build the ground truth from the graph itself.
        workload = build_workload("PJ", scale=0.1)
        generator = OptimizationUnitGenerator()
        unit = generator.next_unit(workload.plan)
        subunits = generator.independent_subunits(workload.plan, unit)
        # Partition: every unit job appears in exactly one sub-unit.
        seen = [name for sub in subunits for name in sub.jobs]
        assert sorted(seen) == sorted(set(seen))
        assert set(seen) == set(unit.jobs)
        # No two sub-units touch a common dataset.
        workflow = workload.plan.workflow
        touched = []
        for sub in subunits:
            datasets = set()
            for name in sub.jobs:
                job = workflow.job(name).job
                datasets.update(job.input_datasets)
                datasets.update(job.output_datasets)
            touched.append(datasets)
        for i in range(len(touched)):
            for j in range(i + 1, len(touched)):
                assert not (touched[i] & touched[j]), (subunits[i], subunits[j])

    def test_producers_ordered_and_covering(self, workflow_generator):
        for seed in (2101, 2102, 2103):
            generated = workflow_generator.generate(seed)
            generator = OptimizationUnitGenerator()
            unit = generator.next_unit(generated.plan)
            subunits = generator.independent_subunits(generated.plan, unit)
            assert sorted(n for s in subunits for n in s.producers) == sorted(unit.producers)
            # Deterministic order: sorted by first appearance in the unit.
            order = {name: i for i, name in enumerate(unit.jobs)}
            firsts = [min(order[n] for n in sub.jobs) for sub in subunits]
            assert firsts == sorted(firsts)


class TestStubbySearch:
    def _search(self):
        return StubbySearch(
            cluster=CLUSTER,
            vertical_transformations=[
                IntraJobVerticalPacking(),
                InterJobVerticalPacking(),
                PartitionFunctionTransformation(),
            ],
            horizontal_transformations=[HorizontalPacking(), PartitionFunctionTransformation()],
        )

    def test_enumeration_includes_untransformed_plan(self):
        workload = _profiled("IR")
        plan = workload.plan
        search = self._search()
        unit = OptimizationUnitGenerator().next_unit(plan)
        subplans = search.enumerate_subplans(plan, unit, search.vertical_transformations)
        assert subplans[0].transformations == ()
        assert len(subplans) >= 3

    def test_enumeration_deduplicates_by_signature(self):
        workload = _profiled("IR")
        plan = workload.plan
        search = self._search()
        unit = OptimizationUnitGenerator().next_unit(plan)
        subplans = search.enumerate_subplans(plan, unit, search.vertical_transformations)
        signatures = [record.plan.signature() for record in subplans]
        assert len(signatures) == len(set(signatures))

    def test_optimize_unit_picks_lowest_estimated_cost(self):
        workload = _profiled("IR")
        plan = workload.plan
        search = self._search()
        unit = OptimizationUnitGenerator().next_unit(plan)
        _, report = search.optimize_unit(plan, unit, search.vertical_transformations)
        costs = [record.estimated_cost for record in report.subplans]
        assert report.chosen_index == costs.index(min(costs))

    def test_chosen_configurations_are_applied(self):
        workload = _profiled("IR")
        plan = workload.plan
        search = self._search()
        unit = OptimizationUnitGenerator().next_unit(plan)
        optimized, report = search.optimize_unit(plan, unit, search.vertical_transformations)
        chosen = report.chosen
        for job_name, settings in chosen.best_settings.items():
            if not optimized.workflow.has_job(job_name):
                continue
            config = optimized.job(job_name).job.config
            if "num_reduce_tasks" in settings and not config.is_map_only and not config.forced_single_reduce:
                assert config.num_reduce_tasks == settings["num_reduce_tasks"]


class TestStatsAttribution:
    """Per-candidate stat deltas are explicit, exact, and add up."""

    def test_merged_stats_invariants(self, workflow_generator):
        generated = workflow_generator.generate(2077)
        result = _optimize(generated.plan)
        stats = result.cost_stats
        # Job lookups are served exactly one of two ways.
        assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert stats.full_estimates <= stats.queries
        # Every query of the run is one candidate's costing work, a split
        # unit's composed-combination scoring, or the optimizer's single
        # final accounting estimate — the explicit deltas add up exactly.
        candidate_queries = sum(
            record.cost_stats.queries
            for report in result.unit_reports
            for record in report.subplans
        )
        composition_queries = sum(
            report.composition_queries for report in result.unit_reports
        )
        assert candidate_queries + composition_queries + 1 == stats.queries

    def test_unit_report_attribution_is_per_candidate(self):
        workload = build_workload("IR", scale=0.12)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        result = _optimize(workload.plan)
        for report in result.unit_reports:
            for record in report.subplans:
                # Every candidate issues at least its baseline estimate.
                assert record.cost_stats.queries >= 1
                assert (
                    record.cost_stats.job_cache_hits + record.cost_stats.job_full_recosts
                    == record.cost_stats.job_queries
                )


class TestOptimizeLeavesInputUntouched:
    """optimize() must never mutate the caller's plan (regression test).

    A split unit whose chosen candidate had an empty application chain once
    applied its configuration settings onto the *input* plan in place,
    corrupting unoptimized-vs-optimized comparisons and the bisection
    snapshots.  Sweep enough random workflows to hit split units.
    """

    def test_input_plan_unchanged(self, workflow_generator):
        for seed in (10, 14, 55, 2001):
            generated = workflow_generator.generate(seed)
            plan = generated.plan
            history_before = len(plan.history)
            signature_before = plan.signature()
            configs_before = {
                name: plan.workflow.job(name).job.config.as_dict()
                for name in plan.workflow.job_names
            }
            jobs_before = list(plan.workflow.jobs)
            datasets_before = list(plan.workflow.datasets)
            result = _optimize(plan)
            # Vertices are frozen values, so identity is the whole proof.
            assert all(a is b for a, b in zip(plan.workflow.jobs, jobs_before, strict=True))
            assert all(
                a is b for a, b in zip(plan.workflow.datasets, datasets_before, strict=True)
            )
            assert len(plan.history) == history_before, f"seed {seed}"
            assert plan.signature() == signature_before, f"seed {seed}"
            for name in plan.workflow.job_names:
                assert plan.workflow.job(name).job.config.as_dict() == configs_before[name], (
                    f"seed {seed}: config of {name} mutated in the input plan"
                )
            # plan_before snapshots must not have been written through either.
            first = result.unit_reports[0]
            assert first.plan_before.signature() == signature_before


class TestComposedChoiceQuality:
    """Splitting a unit must not produce worse plans than whole-unit search.

    Workflow cost is a per-level makespan, so per-sub-unit greedy argmin can
    discard a rewrite that only pays off jointly; the composed cross-product
    scoring exists to close exactly that gap (regression: seed 55 once came
    out 83% worse than the unsplit search).
    """

    @pytest.mark.parametrize("seed", [10, 55])
    def test_split_no_worse_than_unsplit(self, seed, workflow_generator, monkeypatch):
        generated = workflow_generator.generate(seed)
        split = _optimize(generated.plan)
        monkeypatch.setattr(
            OptimizationUnitGenerator,
            "independent_subunits",
            lambda self, plan, unit: [unit],
        )
        unsplit = _optimize(generated.plan)
        assert split.estimated_cost_s <= unsplit.estimated_cost_s * 1.001, (
            f"seed {seed}: split search ({split.estimated_cost_s:.1f}s) worse than "
            f"whole-unit search ({unsplit.estimated_cost_s:.1f}s)"
        )


class TestBatchedRRS:
    def _space(self):
        return ConfigurationSpace(
            dimensions=[
                ConfigDimension(name="x", kind="int", low=1, high=64),
                ConfigDimension(name="y", kind="int", low=0, high=100),
            ]
        )

    def test_generations_dedup_and_keep_the_argmin(self):
        calls = []

        def objective(point):
            calls.append(point)
            x, y = point
            return (x - 17) ** 2 + (y - 50) ** 2

        a = RecursiveRandomSearch(seed=5).search(self._space(), objective)
        first_calls, calls[:] = list(calls), []
        b = RecursiveRandomSearch(seed=5).search(self._space(), objective)
        assert a.best_point == b.best_point
        assert a.best_value == b.best_value
        assert first_calls == calls
        # Every dispatched point is distinct, and the argmin is over all of them.
        assert len(calls) == len(set(calls)) == a.evaluations
        assert a.best_value == min([objective(point) for point in first_calls])
        assert objective((a.best_point["x"], a.best_point["y"])) == a.best_value


class TestStubbyOptimizer:
    def test_variant_names(self):
        # A result is labelled by the phases that ran.
        for factory, label in (
            (StubbyOptimizer, "Stubby"),
            (StubbyOptimizer.vertical_only, "Vertical"),
            (StubbyOptimizer.horizontal_only, "Horizontal"),
        ):
            assert StubbyOptimizer._variant_for(factory(CLUSTER).phases) == label

    def test_search_is_serial_and_says_where_work_fans_out(self):
        # bench/cold.py still passes backend="serial"; nothing else is taken.
        for accepted in (None, "serial", "serial:1"):
            assert not hasattr(StubbyOptimizer(CLUSTER, backend=accepted), "backend")
        with pytest.raises(ValueError, match=r"PlanningServer\(pool=\).*run\(backend=\)"):
            StubbyOptimizer(CLUSTER, backend="process:2")

    def test_optimize_never_forks(self, monkeypatch):
        def refuse(process):
            raise AssertionError("optimize() started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        for abbr in WORKLOAD_ORDER:
            result = _optimize(_profiled(abbr).plan)
            assert result.unit_reports and result.estimated_cost_s > 0
        # The trap is live: the pool that does fork walks into it.
        with pytest.raises(AssertionError, match="started a process"):
            with Pool("process:2").session(abs) as session:
                session.run([1, 2])

    def test_rejects_unknown_phase_lazily(self):
        # Construction accepts any phases; validation happens when optimize()
        # actually uses them, so per-call overrides share the same error path.
        optimizer = StubbyOptimizer(CLUSTER, phases=("diagonal",))
        with pytest.raises(ValueError, match="unknown phase 'diagonal'"):
            optimizer.optimize(_profiled("IR").plan)

    def test_rejects_unknown_phase_override(self):
        optimizer = StubbyOptimizer(CLUSTER)
        with pytest.raises(ValueError, match="unknown phase 'sideways'"):
            optimizer.optimize(_profiled("IR").plan, phases=("vertical", "sideways"))

    def test_phase_override_restricts_one_call(self):
        workload = _profiled("IR")
        optimizer = StubbyOptimizer(CLUSTER)
        result = optimizer.optimize(workload.plan, phases=("vertical",))
        assert "horizontal-packing" not in result.transformations_applied
        assert optimizer.phases == ("vertical", "horizontal")  # config untouched
        # The result is labeled by the phases that actually ran.
        assert result.optimizer == "Vertical"

    def test_as_plan_accepts_plan_and_workflow(self):
        workload = _profiled("IR")
        as_is = StubbyOptimizer._as_plan(workload.plan)
        assert isinstance(as_is, Plan)
        wrapped = StubbyOptimizer._as_plan(workload.workflow)
        assert isinstance(wrapped, Plan) and wrapped.workflow is workload.workflow

    def test_as_plan_rejects_other_types(self):
        for bogus in (None, 42, "workflow", ["jobs"], {"plan": True}):
            with pytest.raises(TypeError, match="expects a Plan or a Workflow"):
                StubbyOptimizer._as_plan(bogus)

    def test_optimizes_ir_and_reduces_cost(self):
        workload = _profiled("IR")
        plan = workload.plan
        initial_cost = StubbyOptimizer(CLUSTER).whatif.estimate_workflow(plan.workflow).total_s
        result = StubbyOptimizer(CLUSTER).optimize(plan)
        assert result.estimated_cost_s < initial_cost
        assert result.num_jobs <= workload.num_jobs
        assert "intra-job-vertical-packing" in result.transformations_applied

    def test_optimized_plan_is_equivalent(self):
        workload = _profiled("IR")
        result = StubbyOptimizer(CLUSTER).optimize(workload.plan)
        executor = WorkflowExecutor()
        _, original_fs = executor.execute(workload.workflow.copy(), base_datasets=workload.base_datasets)
        _, optimized_fs = executor.execute(result.plan.workflow, base_datasets=workload.base_datasets)
        assert records_equal(
            original_fs.get("ir_tfidf").all_records(),
            optimized_fs.get("ir_tfidf").all_records(),
        )

    def test_without_annotations_stubby_is_safe(self):
        """With zero annotations Stubby still returns a correct (unchanged) plan."""
        workload = build_workload("IR", scale=0.15)
        for name in workload.workflow.job_names:
            workload.workflow.annotate_job(name, schema=None, profile=None)
        result = StubbyOptimizer(CLUSTER).optimize(workload.plan)
        assert result.num_jobs == workload.num_jobs
        assert "intra-job-vertical-packing" not in result.transformations_applied

    def test_vertical_variant_does_not_horizontally_pack(self):
        workload = _profiled("PJ")
        result = StubbyOptimizer.vertical_only(CLUSTER).optimize(workload.plan)
        assert "horizontal-packing" not in result.transformations_applied

    def test_accepts_raw_workflow(self):
        workload = _profiled("IR")
        result = StubbyOptimizer(CLUSTER).optimize(workload.workflow)
        assert isinstance(result.plan, Plan)

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError):
            StubbyOptimizer(CLUSTER).optimize(42)

    def test_stubby_beats_unoptimized_on_actual_cost(self):
        workload = _profiled("US")
        executor = WorkflowExecutor()
        execution, fs = executor.execute(workload.workflow.copy(), base_datasets=workload.base_datasets)
        unoptimized = ActualCostModel(CLUSTER).workflow_cost(workload.workflow, execution, fs).total_s
        result = StubbyOptimizer(CLUSTER).optimize(workload.plan)
        execution2, fs2 = executor.execute(result.plan.workflow, base_datasets=workload.base_datasets)
        optimized = ActualCostModel(CLUSTER).workflow_cost(result.plan.workflow, execution2, fs2).total_s
        assert optimized < unoptimized
