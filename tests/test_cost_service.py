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
from repro.common.errors import WorkflowValidationError
from repro.common.rng import DeterministicRNG
from repro.core.optimizer import StubbyOptimizer
from repro.core.search import record_unit_jobs, SubplanRecord
from repro.core.optimization_unit import OptimizationUnit
from repro.core.plan import Plan
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
)
from repro.experiments import ExperimentHarness
from repro.mapreduce.config import ConfigurationSpace, JobConfig
from repro.profiler import Profiler
from repro.verification import RandomWorkflowGenerator
from repro.whatif import CostService, WhatIfEngine
from repro.workloads import WORKLOAD_ORDER, build_workload
from tests.conftest import equivalence_seeds

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


def _materialised(plan, configs):
    """The plan with ``configs`` bound the way an edit binds them: the oracle's input."""
    bound = plan.copy()
    for name, config in configs.items():
        bound.set_job_config(name, config)
    return bound


def _assert_overlay_equals_cold(service, plan, base, configs, context):
    """``service`` under an overlay == a fresh cold engine on the materialised plan."""
    overlay = service.estimate_workflow(plan.workflow, configs, base)
    cold = WhatIfEngine(CLUSTER).estimate_workflow(_materialised(plan, configs).workflow)
    assert overlay == cold, context  # total_s, per_job, dataset_sizes, cost_basis
    assert list(overlay.per_job) == list(cold.per_job), context
    assert list(overlay.dataset_sizes) == list(cold.dataset_sizes), context
    return overlay


def _random_overlay(plan, rng):
    """Points from each job's own search space, on a random subset of the jobs."""
    names = [name for name in plan.job_names if rng.random() < 0.5] or plan.job_names[:1]
    configs = {}
    for name in names:
        job = plan.job(name).job
        space = ConfigurationSpace.for_job(
            max_reduce_tasks=2 * CLUSTER.total_reduce_slots,
            map_only=job.is_map_only,
            has_combiner=job.has_combiner,
        )
        configs[name] = job.config.with_settings(space.sample(rng))
    return configs


@pytest.mark.equivalence
class TestOverlayEqualsCold:
    """``estimate_workflow(workflow, configs, base)`` == the cold engine on a
    materialised copy.  The oracle lives here, not behind a switch in ``src/``."""

    @pytest.mark.parametrize("seed", equivalence_seeds())
    def test_random_workflows_random_subsets_random_points(self, seed):
        plan = RandomWorkflowGenerator().generate(seed).plan
        rng = DeterministicRNG(seed)
        service = CostService(CLUSTER)
        base = service.estimate_workflow(plan.workflow)
        assert base == WhatIfEngine(CLUSTER).estimate_workflow(plan.workflow)
        for step in range(6):
            configs = _random_overlay(plan, rng)
            overlay = _assert_overlay_equals_cold(
                service, plan, base, configs, f"seed={seed} step={step}"
            )
            # The same query without the base, and without the memo: same answer.
            assert service.estimate_workflow(plan.workflow, configs) == overlay
            assert (
                CostService(CLUSTER, enable_cache=False).estimate_workflow(
                    plan.workflow, configs, base
                )
                == overlay
            )
        stats = service.stats
        assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries
        assert stats.job_queries == stats.queries * plan.num_jobs

    @pytest.mark.parametrize("abbr", ["IR", "LA", "BA", "US"])
    def test_candidates_with_chained_and_pruned_readers(self, abbr):
        """Every subplan the search enumerated on a canned plan, intra-job
        packing (IR, BA, US: chained readers) and partition pruning (US: pruned
        readers of a produced dataset; LA prunes a base dataset, which has no
        producer to overlay) included: overlaying a producer must reach the
        readers of its reduce-task count."""
        workload = _profiled(abbr, scale=0.15)
        result = StubbyOptimizer(CLUSTER, seed=17).optimize(workload.plan)
        rng = DeterministicRNG(17)
        service = CostService(CLUSTER)
        readers_reached = 0
        for report in result.unit_reports:
            for index, record in enumerate(report.subplans):
                plan = record.plan
                base = service.estimate_workflow(plan.workflow)
                for step in range(4):
                    configs = _random_overlay(plan, rng)
                    _assert_overlay_equals_cold(
                        service, plan, base, configs,
                        f"{abbr} {report.phase} {record.transformations} #{index} step={step}",
                    )
                readers_reached += len(base.basis.fact_readers)
        assert readers_reached > 0 or abbr == "LA", f"{abbr}: no fact reader was ever reached"

    def test_moved_contributions_turn_the_query_into_a_full_walk(self):
        """A hash-partitioned producer feeding a partition-pruned reader: its
        reduce-task count sets the reader's pruned fraction, so overlaying it
        moves the reader's output sizes and everything downstream."""
        moved = 0
        for seed in equivalence_seeds()[:10]:
            plan = RandomWorkflowGenerator().generate(seed).plan
            workflow = plan.workflow
            for producer in workflow.jobs:
                readers = workflow.consumer_jobs(producer.name)
                if producer.job.is_map_only or producer.job.effective_partitioner.kind == "range":
                    continue
                if not readers or not workflow.consumer_jobs(readers[0].name):
                    continue
                dataset = producer.job.output_datasets[0]
                workflow.update_job(
                    readers[0].name,
                    lambda job: dataclasses.replace(
                        job,
                        pipelines=[
                            p.with_partition_filter(dataset, (0,)) if p.reads(dataset) else p
                            for p in job.pipelines
                        ],
                    ),
                )
                service = CostService(CLUSTER)
                base = service.estimate_workflow(workflow)
                config = producer.job.config
                configs = {
                    producer.name: config.replace(num_reduce_tasks=config.num_reduce_tasks + 3)
                }
                overlay = _assert_overlay_equals_cold(
                    service, plan, base, configs, f"seed={seed} {producer.name}"
                )
                assert overlay.dataset_sizes != base.dataset_sizes
                assert overlay.basis is None and base.basis is not None
                moved += 1
                break
        assert moved > 0

    @pytest.mark.parametrize("abbr", ["BR", "US"])
    def test_every_single_field_perturbation(self, abbr):
        """ROADMAP item 4, incremental half: a ``JobConfig`` field the model
        starts reading without the carried / kept / re-derived rule knowing
        fails here the day it is added."""
        raw = _profiled(abbr).plan
        # Partition pruning (US) then intra-job packing, applied directly: the
        # plan then holds pruned and chained readers whatever the search prefers.
        rewritten = raw
        for transformation in (PartitionFunctionTransformation(), IntraJobVerticalPacking()):
            for application in transformation.find_applications(rewritten, tuple(rewritten.job_names))[:1]:
                rewritten = transformation.apply(rewritten, application)
        service = CostService(CLUSTER)
        checked = 0
        fact_readers = set()
        for plan in (raw, rewritten):
            base = service.estimate_workflow(plan.workflow)
            for name in plan.job_names:
                config = plan.job(name).job.config
                for config_field in dataclasses.fields(config):
                    for value in _perturbed_values(getattr(config, config_field.name)):
                        try:
                            changed = config.replace(**{config_field.name: value})
                        except ValueError:
                            continue  # rejected by JobConfig's own validation
                        _assert_overlay_equals_cold(
                            service, plan, base, {name: changed},
                            f"{abbr} {name}.{config_field.name}={value!r}",
                        )
                        checked += 1
            fact_readers |= base.basis.fact_readers
        assert checked >= 2 * len(dataclasses.fields(JobConfig))
        assert fact_readers, f"{abbr}: the rewritten plan holds no chained or pruned reader"


class TestOverlayContract:
    """What the overlay path may skip, and what it may never mix in."""

    def test_untouched_jobs_are_carried_and_knob_moves_skip_the_signature(self):
        workload = _profiled("BR")
        plan = workload.plan
        service = CostService(CLUSTER)
        base = service.estimate_workflow(plan.workflow)
        engine = service.engine
        target = next(v.name for v in plan.workflow.jobs if not v.job.is_map_only)
        config = plan.job(target).job.config
        signatures = engine.signature_derivations + engine.signature_memo_hits
        before = service.stats.snapshot()
        overlay = service.estimate_workflow(
            plan.workflow, {target: config.replace(io_sort_mb=config.io_sort_mb + 64)}, base
        )
        for name in plan.job_names:
            assert (overlay.per_job[name] is base.per_job[name]) == (name != target)
        service.estimate_workflow(plan.workflow, {target: config.replace(io_sort_mb=8)}, base)
        assert engine.signature_derivations + engine.signature_memo_hits == signatures
        delta = service.stats.since(before)
        assert (delta.queries, delta.job_queries) == (2, 2 * plan.num_jobs)
        assert (delta.job_cache_hits, delta.job_full_recosts) == (delta.job_queries, 0)
        assert delta.cross_origin_hits == 0  # nothing above was served by the LRU

    def test_an_unchanged_config_is_no_overlay(self):
        plan = _profiled("IR").plan
        service = CostService(CLUSTER)
        base = service.estimate_workflow(plan.workflow)
        name = plan.job_names[0]
        config = plan.job(name).job.config
        assert config.with_settings(config.as_dict()) is config
        same = service.estimate_workflow(plan.workflow, {name: config}, base)
        assert same == base and same.per_job[name] is base.per_job[name]
        assert same.basis is not None  # costed under no overlay: a base in its own right

    def test_an_edit_after_the_base_was_taken_is_not_mixed_in(self):
        """A base answers for the vertices it snapshotted; Starfish edits the
        plan between jobs and must not be served its pre-edit costs."""
        plan = _profiled("BR").plan
        service = CostService(CLUSTER)
        base = service.estimate_workflow(plan.workflow)
        reducing = [v.name for v in plan.workflow.jobs if not v.job.is_map_only]
        edited, tuned = reducing[0], reducing[-1]
        plan.set_job_config(
            edited, plan.job(edited).job.config.replace(num_reduce_tasks=23, io_sort_mb=64)
        )
        config = plan.job(tuned).job.config
        configs = {tuned: config.replace(split_size_mb=config.split_size_mb + 32)}
        stale = _assert_overlay_equals_cold(service, plan, base, configs, "stale base")
        assert stale.per_job[edited] != base.per_job[edited]
        fresh = service.estimate_workflow(plan.workflow)
        assert service.estimate_workflow(plan.workflow, configs, fresh) == stale
        # Dataset vertices are part of the snapshot too.
        source = plan.workflow.base_datasets()[0]
        annotation = dataclasses.replace(source.annotation, size_bytes=source.annotation.size_bytes * 2)
        plan.workflow.add_dataset(source.name, annotation=annotation)
        _assert_overlay_equals_cold(service, plan, fresh, configs, "stale dataset")

    def test_a_dataset_sized_twice_makes_no_base(self):
        """A base hands re-derived jobs its *final* sizes; that is only the
        size a job was costed on if no dataset is contributed to by two jobs."""
        plan = RandomWorkflowGenerator().generate(PROPERTY_SEEDS[1]).plan
        workflow = plan.workflow
        writer = next(v for v in workflow.jobs if workflow.consumer_jobs(v.name))
        twin = dataclasses.replace(writer.job, name=f"{writer.name}_twin")
        workflow.add_job(twin, writer.annotations)
        service = CostService(CLUSTER)
        base = service.estimate_workflow(workflow)
        assert base.basis is None
        assert base == WhatIfEngine(CLUSTER).estimate_workflow(workflow)
        config = writer.job.config
        configs = {writer.name: config.replace(io_sort_mb=config.io_sort_mb + 64)}
        _assert_overlay_equals_cold(service, plan, base, configs, "two writers")

    def test_overlay_of_an_unknown_job_is_rejected(self):
        plan = _profiled("IR").plan
        service = CostService(CLUSTER)
        with pytest.raises(WorkflowValidationError):
            service.estimate_workflow(plan.workflow, {"no-such-job": JobConfig()})

    def test_profile_free_fallback_honours_the_overlay(self):
        generated = RandomWorkflowGenerator().with_config(profile=False).generate(PROPERTY_SEEDS[0])
        plan = generated.plan
        name = next(v.name for v in plan.workflow.jobs if not v.job.is_map_only)
        configs = {name: plan.job(name).job.config.replace(num_reduce_tasks=9)}
        overlay = CostService(CLUSTER).estimate_workflow(plan.workflow, configs)
        cold = WhatIfEngine(CLUSTER).estimate_workflow(_materialised(plan, configs).workflow)
        assert overlay == cold and overlay.cost_basis == "job_count"
        assert overlay.per_job[name].num_reduce_tasks == 9


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
