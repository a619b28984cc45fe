"""Tests for the incremental, memoized cost-estimation service.

The contract under test (see ``docs/costing.md``):

* **Exactness** — a memoized/incremental estimate is *bit-identical* to a
  cold full re-estimation by a fresh engine, across random generator
  workflows, config perturbations (the RRS access pattern), and structural
  transformations (the enumeration access pattern).
* **Stats invariants** — every job lookup is classified exactly once
  (memo hit or full recost), the counters add up, and the memo holds one row
  per from-scratch derivation — nothing per configuration sample.
* **Decision invariance** — the optimizer picks identical plans and costs
  with the cache enabled and disabled, on every canned workload.
* **Savings** — per ``optimize()`` the service performs at least 5x fewer
  full-workflow what-if computations than the pre-refactor engine, which
  computed every query cold (one full computation per query).
"""

import dataclasses

import pytest

from repro.cluster import ClusterSpec
from repro.common.rng import DeterministicRNG
from repro.core.optimizer import StubbyOptimizer
from repro.core.search import record_unit_jobs, SubplanRecord
from repro.core.optimization_unit import OptimizationUnit
from repro.core.plan import Plan
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
)
from repro.experiments import ExperimentHarness
from repro.mapreduce.config import JobConfig
from repro.profiler import Profiler
from repro.verification import RandomWorkflowGenerator
from repro.whatif import CostService, WhatIfEngine
from repro.workloads import WORKLOAD_ORDER, build_workload

CLUSTER = ClusterSpec.paper_cluster()

#: Seeds for the exactness sweep (>= 25 by the issue's contract).
PROPERTY_SEEDS = list(range(7000, 7025))


def _profiled(abbr, scale=0.12):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload


def _assert_estimates_identical(incremental, cold, context=""):
    assert incremental.cost_basis == cold.cost_basis, context
    assert incremental.total_s == cold.total_s, context
    assert set(incremental.per_job) == set(cold.per_job), context
    for name, estimate in cold.per_job.items():
        assert incremental.per_job[name].total_s == estimate.total_s, f"{context} job={name}"
    assert incremental.dataset_sizes == cold.dataset_sizes, context


def _random_config_perturbation(plan, rng):
    """Mutate one job's configuration the way an RRS sample would."""
    name = rng.choice(plan.job_names)
    config = plan.job(name).job.config
    settings = {
        "num_reduce_tasks": rng.randint(1, 12),
        "split_size_mb": rng.randint(32, 256),
        "io_sort_mb": rng.randint(64, 512),
        "combiner_enabled": rng.random() < 0.5,
        "compress_map_output": rng.random() < 0.5,
        "compress_output": rng.random() < 0.5,
    }
    plan.set_job_config(name, config.with_settings(settings))


class TestExactness:
    """Incremental estimates must equal cold full re-estimations exactly."""

    def test_incremental_equals_cold_across_random_workflows(self):
        generator = RandomWorkflowGenerator()
        service = CostService(CLUSTER)  # shared across all seeds: worst case for staleness
        for seed in PROPERTY_SEEDS:
            generated = generator.generate(seed)
            plan = generated.plan
            rng = DeterministicRNG(seed)
            for step in range(5):
                incremental = service.estimate_workflow(plan.workflow)
                cold = WhatIfEngine(CLUSTER).estimate_workflow(plan.workflow)
                _assert_estimates_identical(
                    incremental, cold, context=f"seed={seed} step={step}"
                )
                _random_config_perturbation(plan, rng)
        # The sweep must have exercised the cache, not bypassed it.
        assert service.stats.job_cache_hits + service.stats.job_dataflow_hits > 0

    def test_incremental_equals_cold_across_structural_transformations(self):
        generator = RandomWorkflowGenerator()
        service = CostService(CLUSTER)
        transformations = (
            IntraJobVerticalPacking(),
            InterJobVerticalPacking(),
            HorizontalPacking(),
        )
        checked = 0
        for seed in PROPERTY_SEEDS[:10]:
            generated = generator.generate(seed)
            plan = generated.plan
            service.estimate_workflow(plan.workflow)  # warm the cache
            for transformation in transformations:
                for application in transformation.find_applications(plan, tuple(plan.job_names))[:2]:
                    transformed = transformation.apply(plan, application)
                    incremental = service.estimate_workflow(transformed.workflow)
                    cold = WhatIfEngine(CLUSTER).estimate_workflow(transformed.workflow)
                    _assert_estimates_identical(
                        incremental, cold, context=f"seed={seed} {transformation.name}"
                    )
                    checked += 1
        assert checked > 0

    def test_profile_free_workflows_fall_back_identically(self):
        generated = RandomWorkflowGenerator().with_config(profile=False).generate(PROPERTY_SEEDS[0])
        service = CostService(CLUSTER)
        incremental = service.estimate_workflow(generated.workflow)
        cold = WhatIfEngine(CLUSTER).estimate_workflow(generated.workflow)
        assert incremental.cost_basis == "job_count" == cold.cost_basis
        assert incremental.total_s == cold.total_s
        assert service.stats.fallback_queries == 1


class TestStatsInvariants:
    def test_lookup_classification_adds_up(self):
        generator = RandomWorkflowGenerator()
        service = CostService(CLUSTER)
        num_jobs = 0
        queries = 0
        for seed in PROPERTY_SEEDS[:8]:
            plan = generator.generate(seed).plan
            rng = DeterministicRNG(seed)
            for _ in range(4):
                service.estimate_workflow(plan.workflow)
                queries += 1
                num_jobs += plan.num_jobs
                _random_config_perturbation(plan, rng)
        stats = service.stats
        # Every query and every job lookup is accounted for, exactly once.
        assert stats.queries == queries
        assert stats.job_queries == num_jobs
        assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert stats.full_estimates <= stats.queries

    def test_repeated_estimate_is_all_hits(self):
        workload = _profiled("IR")
        service = CostService(CLUSTER)
        first = service.estimate_workflow(workload.workflow)
        before = service.stats.snapshot()
        second = service.estimate_workflow(workload.workflow)
        delta = service.stats.since(before)
        assert delta.queries == 1
        assert delta.job_cache_hits == workload.workflow.num_jobs
        assert delta.job_full_recosts == 0
        assert delta.full_estimates == 0
        assert first.total_s == second.total_s

    def test_disabled_cache_is_pass_through(self):
        workload = _profiled("IR")
        service = CostService(CLUSTER, enable_cache=False)
        service.estimate_workflow(workload.workflow)
        service.estimate_workflow(workload.workflow)
        stats = service.stats
        assert stats.job_cache_hits == 0
        assert stats.job_full_recosts == 2 * workload.workflow.num_jobs
        assert stats.full_estimates == 2
        assert service.cache_size == 0

    def test_cache_eviction_respects_bound(self):
        generator = RandomWorkflowGenerator()
        service = CostService(CLUSTER, max_cache_entries=5)
        for seed in PROPERTY_SEEDS[:6]:
            service.estimate_workflow(generator.generate(seed).workflow)
        assert service.cache_size <= 5


class TestOneMemoLevel:
    """The memo holds dataflow derivations only — never a row per RRS sample."""

    @pytest.mark.parametrize("abbr", WORKLOAD_ORDER)
    def test_every_row_is_one_from_scratch_derivation(self, abbr):
        workload = _profiled(abbr)
        optimizer = StubbyOptimizer(CLUSTER, seed=17)
        optimizer.optimize(workload.plan)
        stats = optimizer.costs.stats
        assert stats.job_cache_hits > 0 and stats.job_full_recosts > 0
        assert optimizer.costs.cache_size == stats.job_full_recosts
        assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries

    def test_workers_ship_no_more_rows_than_they_derived(self, monkeypatch):
        harness = ExperimentHarness(cluster=CLUSTER, scale=0.12)
        shipped = []
        absorb = harness.costs.absorb_entries

        def counting_absorb(entries):
            shipped.append(len(entries))
            absorb(entries)

        monkeypatch.setattr(harness.costs, "absorb_entries", counting_absorb)
        result = harness.run(
            workloads=("PJ",), optimizers=("Baseline", "Stubby", "Vertical"), backend="process:2"
        )
        derived = sum(
            run.cost_stats.job_full_recosts
            for comparison in result.comparisons.values()
            for run in comparison.runs.values()
        )
        # One export per worker at join; each row is a derivation some cell
        # of that worker paid for.
        assert len(shipped) == 2 and 0 < sum(shipped) <= derived
        assert harness.costs.cache_size <= harness.costs.stats.job_full_recosts


def _perturbed_values(value):
    """Other values of one :class:`JobConfig` field, by the field's type."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [0, 1, value + 1, 2 * value + 3]
    raise TypeError(
        f"no perturbation rule for a {type(value).__name__} JobConfig field: add one here"
    )


class TestKeyCompleteness:
    """The dataflow signature needs no job-model field of :class:`JobConfig`.

    The service runs the job model on every lookup, so a configuration field
    can only go stale through the *dataflow* it keys.  Enumerating
    ``dataclasses.fields`` covers a field the day it is added.
    """

    @pytest.mark.parametrize("abbr", ["SN", "BR"])
    def test_warm_equals_cold_under_every_single_field_perturbation(self, abbr):
        workload = _profiled(abbr)
        optimized = StubbyOptimizer(CLUSTER, seed=17).optimize(workload.plan).plan
        service = CostService(CLUSTER)  # shared: worst case for staleness
        checked = 0
        # The optimized plan adds what packing leaves behind: chained inputs,
        # partition-pruning filters, merged multi-pipeline jobs.
        for plan in (workload.plan, optimized):
            assert plan.num_jobs > 1
            service.estimate_workflow(plan.workflow)
            for name in plan.job_names:
                config = plan.job(name).job.config
                for config_field in dataclasses.fields(config):
                    for value in _perturbed_values(getattr(config, config_field.name)):
                        try:
                            changed = config.replace(**{config_field.name: value})
                        except ValueError:
                            continue  # rejected by JobConfig's own validation
                        if changed == config:
                            continue
                        perturbed = plan.copy()
                        perturbed.set_job_config(name, changed)
                        warm = service.estimate_workflow(perturbed.workflow)
                        cold = WhatIfEngine(CLUSTER).estimate_workflow(perturbed.workflow)
                        _assert_estimates_identical(
                            warm, cold, context=f"{abbr} {name}.{config_field.name}={value!r}"
                        )
                        checked += 1
        assert checked >= 2 * len(dataclasses.fields(JobConfig))
        assert service.stats.job_cache_hits > 0


class TestOptimizerIntegration:
    @pytest.mark.parametrize("abbr", WORKLOAD_ORDER)
    def test_optimizer_decisions_identical_with_and_without_cache(self, abbr):
        """Memoization must never change what the optimizer picks (fixed seed)."""
        workload = _profiled(abbr)
        cached = StubbyOptimizer(CLUSTER, seed=17).optimize(workload.plan)
        uncached = StubbyOptimizer(
            CLUSTER, seed=17, cost_service=CostService(CLUSTER, enable_cache=False)
        ).optimize(workload.plan)
        assert cached.plan.signature() == uncached.plan.signature()
        assert cached.estimated_cost_s == uncached.estimated_cost_s
        assert cached.transformations_applied == uncached.transformations_applied

    @pytest.mark.parametrize("abbr", WORKLOAD_ORDER)
    def test_at_least_5x_fewer_full_whatif_computations(self, abbr):
        """Acceptance: >=5x fewer full-workflow computations per optimize().

        The pre-refactor search computed every workflow estimate cold, so
        its full-computation count equals the service's ``queries`` counter.
        """
        workload = _profiled(abbr)
        result = StubbyOptimizer(CLUSTER, seed=17).optimize(workload.plan)
        stats = result.cost_stats
        assert stats is not None and stats.queries > 0
        # Queries that reused nothing at all are now rare...
        assert stats.full_estimates * 5 <= stats.queries
        # ...and so is the job-weighted amount of full-depth costing work.
        assert stats.effective_full_estimates * 5 <= stats.queries

    def test_unit_reports_carry_cost_stats(self):
        workload = _profiled("IR")
        result = StubbyOptimizer(CLUSTER).optimize(workload.plan)
        assert result.unit_reports
        total_queries = sum(report.cost_queries for report in result.unit_reports)
        assert total_queries > 0
        assert result.whatif_queries >= total_queries
        for report in result.unit_reports:
            assert report.jobs_recosted >= 0 and report.job_cache_hits >= 0

    def test_baselines_report_cost_stats(self):
        from repro.baselines import MRShareOptimizer, StarfishOptimizer

        workload = _profiled("IR")
        for optimizer in (StarfishOptimizer(CLUSTER), MRShareOptimizer(CLUSTER)):
            result = optimizer.optimize(workload.plan)
            assert result.cost_stats is not None
            assert result.cost_stats.queries > 0

    def test_shared_service_reuses_across_optimizers(self):
        """One service threaded through several optimizers shares its cache."""
        workload = _profiled("IR")
        service = CostService(CLUSTER)
        StubbyOptimizer(CLUSTER, cost_service=service).optimize(workload.plan)
        before = service.stats.snapshot()
        StubbyOptimizer(CLUSTER, cost_service=service).optimize(workload.plan)
        delta = service.stats.since(before)
        # The second run starts from a warm cache: nothing is cold.
        assert delta.full_estimates == 0


class TestMergeProvenance:
    def test_packing_records_merge_lineage(self):
        workload = _profiled("IR")
        result = StubbyOptimizer(CLUSTER).optimize(workload.plan)
        if any("+" in name for name in result.plan.job_names):
            merged = [name for name in result.plan.job_names if "+" in name]
            for name in merged:
                sources = result.plan.merge_sources(name)
                assert len(sources) > 1
                # Lineage names original jobs, never intermediate merges.
                assert all(workload.workflow.has_job(source) for source in sources)

    def test_record_merge_flattens_transitively(self):
        workload = _profiled("IR")
        plan = workload.plan
        plan.record_merge("A+B", ("IR_J1", "IR_J2"))
        plan.record_merge("A+B+C", ("A+B", "IR_J3"))
        assert plan.merge_sources("A+B+C") == ("IR_J1", "IR_J2", "IR_J3")
        assert plan.merge_sources("IR_J1") == ("IR_J1",)
        copied = plan.copy()
        assert copied.merge_sources("A+B+C") == ("IR_J1", "IR_J2", "IR_J3")

    def test_record_unit_jobs_uses_lineage_not_names(self):
        """Merged jobs are attributed to units via provenance, not '+'-parsing."""
        workload = _profiled("IR")
        plan = workload.plan
        unit = OptimizationUnit(producers=("IR_J1",), consumers=("IR_J2",))

        merged = plan.copy()
        vertex = merged.workflow.job("IR_J1")
        # Rename the job to something '+'-parsing could never attribute.
        renamed_job = dataclasses.replace(vertex.job, name="fused_scan_group")
        merged.workflow.replace_job("IR_J1", renamed_job, vertex.annotations)
        merged.workflow.remove_job("IR_J2")
        merged.workflow.prune_orphan_datasets()
        merged.record_merge("fused_scan_group", ("IR_J1", "IR_J2"))

        record = SubplanRecord(plan=merged, transformations=("inter-job-vertical-packing",))
        assert "fused_scan_group" in record_unit_jobs(record, unit)
