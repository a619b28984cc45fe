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

import collections
import contextlib
import dataclasses
import itertools
import re

import pytest

from repro.cluster import ClusterSpec
from repro.common.errors import DeadlineExceeded, WorkflowValidationError
from repro.common.rng import DeterministicRNG
from repro.common.store import attributed
from repro.core.budget import TimeBudget
from repro.core.optimizer import StubbyOptimizer
from repro.core.search import record_unit_jobs, SubplanRecord
from repro.core.optimization_unit import OptimizationUnit
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
)
from repro.experiments import ExperimentHarness
from repro.mapreduce.config import SETTING_FLOORS, ConfigurationSpace, JobConfig
from repro.profiler import Profiler
from repro.verification import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RandomWorkflowGenerator,
    install_fault_plan,
)
from repro.whatif import ActualCostModel, CostService, WhatIfEngine
from repro.whatif.model import config_of
from repro.whatif.service import CostServiceStats, OverlaySession
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import WORKLOAD_ORDER, build_workload
from tests import graph_oracle
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
    name = rng.choice(plan.workflow.job_names)
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
                for application in transformation.find_applications(plan, tuple(plan.workflow.job_names))[:2]:
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
            for name in plan.workflow.job_names:
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


def _cold(plan, configs=None):
    """A fresh cold engine's estimate of ``plan`` with ``configs`` bound."""
    return WhatIfEngine(CLUSTER).estimate_workflow(_materialised(plan, configs or {}).workflow)


def _space(plan, names=None):
    """The search's joint RRS space over ``names`` (default: every job) of
    ``plan``, its tuned jobs, and its point at rest (the jobs' own values)."""
    search = StubbyOptimizer(CLUSTER).search
    space, initial, tuned = search._joint_space(plan, names or plan.workflow.job_names)
    return space, tuned, tuple(space.clamp(initial)[name] for name in space.names)


def _bound(plan, tuned, point):
    """The overlay ``point`` binds on the jobs of ``tuned`` (``JobConfig.with_values``)."""
    configs = {}
    for name, dims in tuned.items():
        config = plan.job(name).job.config
        moved = config.with_values(point, config.setting_slots(dims))
        if moved is not config:
            configs[name] = moved
    return configs


def _with_fact_readers(abbr):
    """A canned plan after partition pruning then intra-job packing, applied
    directly: it holds pruned and chained readers whatever the search prefers."""
    plan = _profiled(abbr).plan
    for transformation in (PartitionFunctionTransformation(), IntraJobVerticalPacking()):
        for application in transformation.find_applications(plan, tuple(plan.workflow.job_names))[:1]:
            plan = transformation.apply(plan, application)
    return plan


def _points(plan, rng, count):
    """The candidate's own RRS space (the search's joint space over every
    job), and ``count`` of its points, each moving a random subset of the
    jobs, with the overlay each binds (:func:`_bound`)."""
    space, tuned, at_rest = _space(plan)
    owner = {index: name for name, dims in tuned.items() for index, _ in dims}
    samples = []
    for _ in range(count):
        drawn = space.sample(rng)
        chosen = {name for name in tuned if rng.random() < 0.5}
        point = tuple(
            drawn[index] if owner[index] in chosen else value for index, value in enumerate(at_rest)
        )
        samples.append((point, _bound(plan, tuned, point)))
    return space, tuned, samples


def _moved(at_rest, index, value):
    """``at_rest`` with the value at ``index`` replaced."""
    return at_rest[:index] + (value,) + at_rest[index + 1:]


def _perturbed_points(space, at_rest, index):
    """``at_rest`` with the value at ``index`` perturbed (:func:`_perturbed_values`),
    each value kept inside its dimension: points of ``space``."""
    dimension = space.dimensions[index]
    values = dict.fromkeys(dimension.clamp(value) for value in _perturbed_values(at_rest[index]))
    return [_moved(at_rest, index, value) for value in values if value != at_rest[index]]


def _assert_equal_in_order(answer, cold, context):
    assert answer == cold, context  # total_s, per_job, dataset_sizes, cost_basis
    assert list(answer.per_job) == list(cold.per_job), context
    assert list(answer.dataset_sizes) == list(cold.dataset_sizes), context


def _assert_points_equal_cold(service, plan, space, tuned, samples, context, base=True):
    """Each point of ``samples``, costed in one ``service`` session, == a fresh
    cold engine's ``total_s`` on the materialised plan.  The session takes
    its base first (``==`` the cold estimate, key order included) and
    returns it; without ``base`` every point is a full walk."""
    estimate = None
    with service.overlay(plan.workflow) as session:
        if base:
            estimate = session.estimate()
            _assert_equal_in_order(estimate, _cold(plan), context)
        cost = session.objective(space, tuned.items())
        for step, (point, configs) in enumerate(samples):
            assert cost(point) == _cold(plan, configs).total_s, f"{context} step={step}"
    return estimate


def _cost_points(service, plan, space, tuned, samples):
    """``samples``' points costed in one session after its base: their totals,
    and what the session credited."""
    with service.overlay(plan.workflow) as session:
        session.estimate()
        cost = session.objective(space, tuned.items())
        answers = [cost(point) for point, _ in samples]
    return answers, session.delta


def _one_by_one(service, plan, space, tuned, samples):
    """The same points, one fresh session each (its base, then the point): the
    totals, and what a base-only session credited plus, per point, what its
    session credited after its base."""
    with service.overlay(plan.workflow) as session:
        session.estimate()
    credited = session.delta.snapshot()
    answers = []
    for point, _ in samples:
        with service.overlay(plan.workflow) as session:
            session.estimate()
            base = session.delta.snapshot()
            answers.append(session.objective(space, tuned.items())(point))
        credited.accumulate(session.delta.since(base))
    return answers, credited


@pytest.mark.equivalence
class TestOverlayEqualsCold:
    """An RRS point costed in a session == the cold engine's ``total_s`` on a
    materialised copy.  The oracle lives here, not behind a switch in ``src/``."""

    @pytest.mark.parametrize("seed", equivalence_seeds())
    def test_random_workflows_random_subsets_random_points(self, seed):
        plan = RandomWorkflowGenerator().generate(seed).plan
        space, tuned, samples = _points(plan, DeterministicRNG(seed), 6)
        service = CostService(CLUSTER)
        context = f"seed={seed}"
        _assert_points_equal_cold(service, plan, space, tuned, samples, context)
        # The same points without a base, and without the memo: same answers.
        _assert_points_equal_cold(service, plan, space, tuned, samples, context, base=False)
        _assert_points_equal_cold(
            CostService(CLUSTER, enable_cache=False), plan, space, tuned, samples, context
        )
        stats = service.stats
        assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries
        assert stats.job_queries == stats.queries * plan.num_jobs

    @pytest.mark.parametrize("abbr", ["IR", "LA", "BA", "US"])
    def test_candidates_with_chained_and_pruned_readers(self, abbr):
        """Every subplan the search enumerated on a canned plan, intra-job
        packing (IR, BA, US: chained readers) and partition pruning (US: pruned
        readers of a produced dataset; LA prunes a base dataset, which has no
        producer to overlay) included: a point moving a producer must reach the
        readers of its reduce-task count — a chained reader through its
        map-task count, a pruned reader through its dataflow."""
        workload = _profiled(abbr, scale=0.15)
        result = StubbyOptimizer(CLUSTER, seed=17).optimize(workload.plan)
        rng = DeterministicRNG(17)
        service = CostService(CLUSTER)
        readers_reached = 0
        for report in result.unit_reports:
            for index, record in enumerate(report.subplans):
                space, tuned, samples = _points(record.plan, rng, 4)
                base = _assert_points_equal_cold(
                    service, record.plan, space, tuned, samples,
                    f"{abbr} {report.phase} {record.transformations} #{index}",
                )
                # IR and BA prune nothing: they must reach a chained reader.
                readers_reached += len(base.basis.chained | base.basis.fact_readers)
        assert readers_reached > 0 or abbr == "LA", f"{abbr}: no chained or pruned reader was reached"

    def test_moved_contributions_turn_the_query_into_a_full_walk(self):
        """A hash-partitioned producer feeding a partition-pruned reader: its
        reduce-task count sets the reader's pruned fraction, so a point moving
        it moves the reader's output sizes and everything downstream, and the
        point's walk starts over."""
        moved = 0
        for seed in equivalence_seeds()[:10]:
            plan = RandomWorkflowGenerator().generate(seed).plan
            workflow = plan.workflow
            for producer in workflow.jobs:
                readers = graph_oracle.consumer_jobs(workflow, producer.name)
                if producer.job.is_map_only or producer.job.effective_partitioner.kind == "range":
                    continue
                if producer.job.config.forced_single_reduce:
                    continue  # a held count: no point moves it
                if not readers or not graph_oracle.consumer_jobs(workflow, readers[0].name):
                    continue
                space, tuned, at_rest = _space(plan, [producer.name])
                index = {setting: i for i, setting in tuned[producer.name]}["num_reduce_tasks"]
                count = producer.job.config.num_reduce_tasks
                moved_count = space.dimensions[index].clamp(count + 3)
                if moved_count == count:
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
                point = _moved(at_rest, index, moved_count)
                configs = _bound(plan, tuned, point)
                service = CostService(CLUSTER)
                walks = []
                run_costing = service.engine.run_costing
                service.engine.run_costing = lambda *args: walks.append(args) or run_costing(*args)
                base = _assert_points_equal_cold(
                    service, plan, space, tuned, [(point, configs)], f"seed={seed} {producer.name}"
                )
                assert _cold(plan, configs).dataset_sizes != base.dataset_sizes
                assert base.basis is not None and len(walks) == 2  # the base's, the point's
                moved += 1
                break
        assert moved > 0

    @pytest.mark.parametrize("abbr", ["BR", "US"])
    def test_every_single_field_perturbation(self, abbr):
        """ROADMAP item 4, incremental half: a searched ``JobConfig`` setting
        the model starts reading without the carried / kept / re-derived rule
        knowing fails here the day it is added.  (A field no point sets is
        ``TestKeyCompleteness``'s.)"""
        raw = _profiled(abbr).plan
        # Partition pruning (US) then intra-job packing, applied directly: the
        # plan then holds pruned and chained readers whatever the search prefers.
        rewritten = raw
        for transformation in (PartitionFunctionTransformation(), IntraJobVerticalPacking()):
            for application in transformation.find_applications(rewritten, tuple(rewritten.workflow.job_names))[:1]:
                rewritten = transformation.apply(rewritten, application)
        service = CostService(CLUSTER)
        checked = collections.Counter()
        readers = set()
        for plan in (raw, rewritten):
            space, tuned, at_rest = _space(plan)
            samples = []
            for dims in tuned.values():
                for index, setting in dims:
                    for point in _perturbed_points(space, at_rest, index):
                        samples.append((point, _bound(plan, tuned, point)))
                        checked[setting] += 1
            base = _assert_points_equal_cold(service, plan, space, tuned, samples, abbr)
            readers |= base.basis.chained | base.basis.fact_readers
        assert set(checked) == set(SETTING_FLOORS) - {"combiner_enabled"}, checked  # no combiner job
        assert readers, f"{abbr}: the rewritten plan holds no chained or pruned reader"


class TestOverlayContract:
    """What the point path may skip, and what it may never mix in."""

    def test_untouched_jobs_are_carried_and_knob_moves_skip_the_signature(self, monkeypatch):
        plan = _profiled("BR").plan
        service = CostService(CLUSTER)
        engine = service.engine
        target = next(v.name for v in plan.workflow.jobs if not v.job.is_map_only)
        space, tuned, at_rest = _space(plan, [target])
        index = {setting: i for i, setting in tuned[target]}["io_sort_mb"]
        config = plan.job(target).job.config
        walked = []
        walk = OverlaySession._walk

        def recording(session, steps, materialise):
            walked.append([job.name for job, _, _ in steps])
            return walk(session, steps, materialise)

        monkeypatch.setattr(OverlaySession, "_walk", recording)
        with service.overlay(plan.workflow) as session:
            session.estimate()
            signatures = engine.signature_derivations + engine.signature_memo_hits
            before = session.delta.snapshot()
            cost = session.objective(space, tuned.items())
            for value in (config.io_sort_mb + 64, 8):
                point = _moved(at_rest, index, value)
                assert cost(point) == _cold(plan, _bound(plan, tuned, point)).total_s
        assert walked == [[target], [target]]  # every other job is carried
        assert engine.signature_derivations + engine.signature_memo_hits == signatures
        delta = session.delta.since(before)
        assert (delta.queries, delta.job_queries) == (2, 2 * plan.num_jobs)
        assert (delta.job_cache_hits, delta.job_full_recosts) == (delta.job_queries, 0)
        assert delta.cross_origin_hits == 0  # nothing above was served by the LRU

    def test_an_unchanged_config_is_no_overlay(self):
        plan = _profiled("IR").plan
        service = CostService(CLUSTER)
        config = plan.job(plan.workflow.job_names[0]).job.config
        assert config.with_settings(config.as_dict()) is config
        space, tuned, at_rest = _space(plan)
        assert _bound(plan, tuned, at_rest) == {}  # the jobs' own values bind nothing
        engine = service.engine
        with service.overlay(plan.workflow) as session:
            base = session.estimate()
            signatures = engine.signature_derivations + engine.signature_memo_hits
            assert session.objective(space, tuned.items())(at_rest) == base.total_s
        assert engine.signature_derivations + engine.signature_memo_hits == signatures
        assert base.basis is not None  # costed under no overlay: a base in its own right

    def test_a_dataset_sized_twice_makes_no_base(self):
        """A base hands re-derived jobs its *final* sizes; that is only the
        size a job was costed on if no dataset is contributed to by two jobs."""
        plan = RandomWorkflowGenerator().generate(PROPERTY_SEEDS[1]).plan
        workflow = plan.workflow
        writer = next(v for v in workflow.jobs if graph_oracle.consumer_jobs(workflow, v.name))
        twin = dataclasses.replace(writer.job, name=f"{writer.name}_twin")
        workflow.add_job(twin, writer.annotations)
        space, tuned, samples = _points(plan, DeterministicRNG(PROPERTY_SEEDS[1]), 6)
        base = _assert_points_equal_cold(
            CostService(CLUSTER), plan, space, tuned, samples, "two writers"
        )
        assert base.basis is None

    @pytest.mark.parametrize("based", (True, False), ids=("based", "unbased"))
    @pytest.mark.parametrize(
        "setting, loosen",
        (
            ("num_reduce_tasks", dict(low=0)),  # below the setting's floor of 1
            ("compress_output", dict(kind="int", low=0, high=1)),  # a flag read from an int
        ),
    )
    def test_a_space_with_values_would_change_is_refused(self, setting, loosen, based):
        """A sample takes a point's values as they are, so the objective is
        refused, naming the dimension, on a space holding values
        ``JobConfig.with_values`` would change."""
        plan = _profiled("IR").plan
        space, tuned, _ = _space(plan)
        name, index = next(
            (name, index)
            for name, dims in tuned.items()
            for index, tuned_setting in dims
            if tuned_setting == setting
        )
        dimensions = list(space.dimensions)
        dimensions[index] = dataclasses.replace(dimensions[index], **loosen)
        loose = ConfigurationSpace(dimensions=dimensions)
        with CostService(CLUSTER).overlay(plan.workflow) as session:
            if based:
                session.estimate()
            with pytest.raises(ValueError, match=re.escape(repr(f"{name}::{setting}"))):
                session.objective(loose, tuned.items())
            session.objective(space, tuned.items())  # the search's own space is one

    def test_overlay_of_an_unknown_job_is_rejected(self):
        plan = _profiled("IR").plan
        space, tuned, _ = _space(plan)
        with CostService(CLUSTER).overlay(plan.workflow) as session:
            with pytest.raises(WorkflowValidationError):
                session.objective(space, [("no-such-job", tuned[plan.workflow.job_names[0]])])

    def test_a_profile_free_point_costs_the_fallback(self):
        generated = RandomWorkflowGenerator().with_config(profile=False).generate(PROPERTY_SEEDS[0])
        plan = generated.plan
        space, tuned, samples = _points(plan, DeterministicRNG(PROPERTY_SEEDS[0]), 4)
        service = CostService(CLUSTER)
        with service.overlay(plan.workflow) as session:
            assert session.estimate() == _cold(plan)
            cost = session.objective(space, tuned.items())
            for point, configs in samples:
                cold = _cold(plan, configs)
                assert cost(point) == cold.total_s and cold.cost_basis == "job_count"
        assert service.stats.fallback_queries == service.stats.queries == 1 + len(samples)


class TestOverlaySession:
    """``CostService.overlay``: a candidate's points in one session, paying
    once what is the same for all of them and crediting exactly what the same
    points asked one fresh session each would (``docs/costing.md``, "Costing
    a sample")."""

    # BR, US: chained and pruned readers, BR's two forced-single jobs hold
    # their reduce count; BA, IR: combiner jobs (BA's forced-single too).
    @pytest.mark.parametrize("abbr", ["BR", "US", "BA", "IR"])
    def test_a_session_credits_what_its_samples_one_by_one_would(self, abbr, monkeypatch):
        """Rows another origin stored answer some of the lookups."""
        self._credits_alike(abbr, True, monkeypatch)

    @pytest.mark.parametrize("abbr", ["BR", "US", "BA", "IR"])
    def test_a_session_on_a_cold_memo_credits_what_its_samples_one_by_one_would(
        self, abbr, monkeypatch
    ):
        """Every row is derived under the session's origin.  A sample derives
        only a combiner flip, a re-derived fact reader or a walk that started
        over, and a warm memo already holds those of these samples: here the
        derivations are credited too."""
        self._credits_alike(abbr, False, monkeypatch)

    @staticmethod
    def _credits_alike(abbr, warm, monkeypatch):
        plan = _with_fact_readers(abbr)
        space, tuned, samples = _points(plan, DeterministicRNG(11), 16)
        moves = collections.Counter()
        for point, configs in samples:
            for name, config in configs.items():
                own = plan.job(name).job.config
                moves["reduce count"] += config.num_reduce_tasks != own.num_reduce_tasks
                moves["combiner"] += plan.job(name).job.has_combiner and (
                    config.combiner_enabled != own.combiner_enabled
                )
            for name, dims in tuned.items():
                own = plan.job(name).job.config
                moves["held"] += own.forced_single_reduce and any(
                    setting == "num_reduce_tasks" and point[index] != own.num_reduce_tasks
                    for index, setting in dims
                )
        jobs = [vertex.job for vertex in plan.workflow.jobs]
        assert moves["reduce count"] > 0
        assert (moves["combiner"] > 0) == any(job.has_combiner for job in jobs)
        assert (moves["held"] > 0) == any(job.config.forced_single_reduce for job in jobs)
        runs = {}
        for mode, cost_points in (("session", _cost_points), ("one by one", _one_by_one)):
            service = CostService(CLUSTER)
            if warm:
                with attributed((service,), "warm"):  # rows another origin stored
                    _cost_points(service, plan, space, tuned, samples[::2])
            before = service.stats_snapshot()
            applies = []
            apply_delta = service._apply_delta
            monkeypatch.setattr(
                service, "_apply_delta", lambda delta: applies.append(delta) or apply_delta(delta)
            )
            visits = FaultPlan([])  # no spec: it only counts site visits
            with install_fault_plan(visits), attributed((service,), "cold") as (outer,):
                inner = CostServiceStats()
                with service.attribute_to(inner):
                    answers, credited = cost_points(service, plan, space, tuned, samples)
            delta = service.stats_snapshot().since(before)
            assert outer == inner == delta, mode  # every sink saw what the global counters saw
            runs[mode] = (credited, visits.report()["site_visits"]["whatif.estimate"], answers, len(applies))
        session, one_by_one = runs["session"], runs["one by one"]
        assert session[2] == one_by_one[2]
        assert session[0] == one_by_one[0]
        # One session: the base, then every point; one by one adds a base per point.
        assert session[1] == 1 + len(samples) and one_by_one[1] == session[1] + len(samples)
        assert session[3] == 1 and one_by_one[3] == 1 + len(samples)
        delta = session[0]
        assert delta.queries == 1 + len(samples)
        if warm:
            assert delta.cross_origin_hits > 0
        else:
            assert delta.job_full_recosts > 0 and delta.cross_origin_hits == 0

    @pytest.mark.parametrize("capacity", [2, 4, 8, 16, 64])
    @pytest.mark.parametrize("abbr", ["BA", "IR"])
    def test_an_evicting_memo_answers_alike_and_credits_alike_once_it_holds_the_rows(
        self, abbr, capacity
    ):
        """A later combiner flip is credited as its memo row answering it
        would be, without an LRU lookup (``_flipped``).  Where the memo is
        so small that it evicts that row while the session is open, the
        same point asked alone would re-derive it, so only the answers are
        promised there; once the memo holds the rows the points read, the
        counters are the one-by-one counters too."""
        plan = _with_fact_readers(abbr)
        space, tuned, samples = _points(plan, DeterministicRNG(11), 16)
        runs = {}
        for mode, cost_points in (("session", _cost_points), ("one by one", _one_by_one)):
            service = CostService(CLUSTER, max_cache_entries=capacity)
            with attributed((service,), "warm"):  # rows another origin stored
                _cost_points(service, plan, space, tuned, samples[::2])
            with attributed((service,), "cold"):
                runs[mode] = cost_points(service, plan, space, tuned, samples)
        assert runs["session"][0] == runs["one by one"][0]
        if capacity >= 16:
            assert runs["session"][1] == runs["one by one"][1]

    def test_a_fact_readers_combiner_flip_is_derived_under_its_moved_producer(self):
        """A combiner job made a partition-pruned reader of a hash-partitioned
        producer: a point that flips its combiner and moves the producer's
        reduce count must derive it under the moved count, not reuse the
        flip a sample without that move looked up."""
        checked = 0
        for seed in equivalence_seeds()[:10]:
            plan = RandomWorkflowGenerator().generate(seed).plan
            workflow = plan.workflow
            pairs = [
                (producer, reader)
                for producer in workflow.jobs
                if not producer.job.is_map_only and producer.job.effective_partitioner.kind != "range"
                for reader in graph_oracle.consumer_jobs(workflow, producer.name)
                if reader.job.has_combiner
            ]
            if not pairs:
                continue
            producer, reader = pairs[0]
            dataset = producer.job.output_datasets[0]
            workflow.update_job(
                reader.name,
                lambda job: dataclasses.replace(
                    job,
                    pipelines=[
                        p.with_partition_filter(dataset, (0,)) if p.reads(dataset) else p
                        for p in job.pipelines
                    ],
                ),
            )
            space, tuned, samples = _points(plan, DeterministicRNG(seed), 24)
            service = CostService(CLUSTER)
            with service.overlay(workflow) as session:
                assert reader.name in session.estimate().basis.fact_readers
                cost = session.objective(space, tuned.items())
                for step, (point, configs) in enumerate(samples):
                    own = {name: plan.job(name).job.config for name in configs}
                    both = (
                        producer.name in configs and reader.name in configs
                        and configs[producer.name].num_reduce_tasks
                        != own[producer.name].num_reduce_tasks
                        and configs[reader.name].combiner_enabled
                        != own[reader.name].combiner_enabled
                    )
                    assert cost(point) == _cold(plan, configs).total_s, f"seed={seed} step={step}"
                    checked += both
        assert checked > 0

    @pytest.mark.parametrize("interrupt", ["deadline", "fault"])
    def test_an_interrupted_session_credits_every_sample_it_costed(self, interrupt, monkeypatch):
        plan = _profiled("BR").plan
        costed = 7  # samples costed before the interruption

        def cost_candidate(search, record):
            search._cost_candidate(record, tuple(plan.workflow.job_names), "vertical/test/candidate-0")
            return record

        # The reference: an uninterrupted candidate, its session's delta after each query.
        progress = []
        estimate, objective = OverlaySession.estimate, OverlaySession.objective

        def recording(session):
            answer = estimate(session)
            progress.append(session.delta.snapshot())
            return answer

        def recording_objective(session, space, tuned):
            cost = objective(session, space, tuned)

            def recorded(point):
                answer = cost(point)
                progress.append(session.delta.snapshot())
                return answer

            return recorded

        monkeypatch.setattr(OverlaySession, "estimate", recording)
        monkeypatch.setattr(OverlaySession, "objective", recording_objective)
        reference = cost_candidate(
            StubbyOptimizer(CLUSTER, seed=17).search, SubplanRecord(plan=plan, transformations=())
        )
        monkeypatch.setattr(OverlaySession, "estimate", estimate)
        monkeypatch.setattr(OverlaySession, "objective", objective)
        assert reference.cost_stats == progress[-1] and len(progress) > costed + 2

        search = StubbyOptimizer(CLUSTER, seed=17).search
        if interrupt == "deadline":
            # One tick per check: the candidate's, then one per sample; the
            # budget expires at the check before sample ``costed + 1``.
            ticks = itertools.count(1)
            search._budget = TimeBudget(deadline_at=costed + 2, clock=lambda: next(ticks))
            scope, raised = contextlib.nullcontext(), DeadlineExceeded
        else:
            # Visit 1 is the baseline: the fault stops sample ``costed + 1``.
            fault = FaultSpec(site="whatif.estimate", at_hits=(costed + 2,))
            scope, raised = install_fault_plan(FaultPlan([fault])), InjectedFault
        record = SubplanRecord(plan=plan, transformations=())
        with scope, pytest.raises(raised):
            cost_candidate(search, record)
        # The baseline and ``costed`` samples, in the candidate's sink and the global counters.
        assert record.cost_stats == search.costs.stats == progress[costed]
        assert record.cost_stats.queries == costed + 1

    @pytest.mark.equivalence
    @pytest.mark.parametrize("seed", equivalence_seeds())
    def test_sessions_on_random_candidates_equal_cold(self, seed):
        """Random workflows, the candidates one application of each
        transformation makes, several points per session: the base ``==`` the
        cold engine, key order included, and every point's total ``==`` the
        cold engine's on the materialised plan."""
        candidates = _random_candidates(seed)
        rng = DeterministicRNG(seed)
        service = CostService(CLUSTER)  # shared: answers may come from any candidate's rows
        for index, candidate in enumerate(candidates):
            space, tuned, samples = _points(candidate, rng, 5)
            _assert_points_equal_cold(
                service, candidate, space, tuned, samples, f"seed={seed} candidate={index}"
            )
        stats = service.stats
        assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries

    @pytest.mark.equivalence
    @pytest.mark.parametrize("seed", equivalence_seeds())
    def test_points_on_random_candidates_equal_their_overlays_and_cold(self, seed):
        """A point walked from the session's base ``==`` its overlay walked in
        full (a session without a base binds ``JobConfig.with_values`` and
        walks every job) ``==`` the cold engine on the materialised plan, for
        points of each candidate's own space: random workflows (half the sum
        jobs carry a combiner) and the candidates one application of each
        transformation makes."""
        rng = DeterministicRNG(seed)
        service = CostService(CLUSTER)
        for index, candidate in enumerate(_random_candidates(seed)):
            space, tuned, samples = _points(candidate, rng, 6)
            workflow = candidate.workflow
            with service.overlay(workflow) as based, service.overlay(workflow) as unbased:
                based.estimate()
                cost = based.objective(space, tuned.items())
                walked = unbased.objective(space, tuned.items())
                for step, (point, configs) in enumerate(samples):
                    context = f"seed={seed} candidate={index} step={step}"
                    assert cost(point) == walked(point) == _cold(candidate, configs).total_s, context
        stats = service.stats
        assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries


def _random_candidates(seed):
    """Random workflow ``seed`` and the candidates one application of each transformation makes."""
    plan = RandomWorkflowGenerator().generate(seed).plan
    candidates = [plan]
    for transformation in (
        IntraJobVerticalPacking(),
        InterJobVerticalPacking(),
        HorizontalPacking(),
        PartitionFunctionTransformation(),
    ):
        for application in transformation.find_applications(plan, tuple(plan.workflow.job_names))[:1]:
            candidates.append(transformation.apply(plan, application))
    return candidates


def _chained_through_map_only():
    """Seed 7269's reducing ``J1`` -> map-only ``J2`` -> combiner job ``J3``,
    with ``J2`` and ``J3`` under the chaining constraint: ``J3``'s chain
    source is ``J1``, reached through ``J2``."""
    plan = RandomWorkflowGenerator().generate(7269).plan
    for name in ("R7269_J2", "R7269_J3"):
        config = plan.job(name).job.config
        plan.set_job_config(name, config.replace(max_parallel_maps_per_producer_reduce=1))
    return plan


def _chained_plans():
    """``(label, plan)``: every canned plan and every subplan its search
    enumerated that holds a chained job (one of each signature), then
    :func:`_chained_through_map_only`."""
    seen = set()
    for abbr in WORKLOAD_ORDER:
        workload = _profiled(abbr)
        result = StubbyOptimizer(CLUSTER, seed=17).optimize(workload.plan)
        plans = [(abbr, workload.plan)] + [
            (f"{abbr} {report.phase} {record.transformations} #{index}", record.plan)
            for report in result.unit_reports
            for index, record in enumerate(report.subplans)
        ]
        for label, plan in plans:
            signature = plan.signature()
            if signature in seen or not any(v.job.config.chained_input for v in plan.workflow.jobs):
                continue
            seen.add(signature)
            yield label, plan
    yield "through a map-only producer", _chained_through_map_only()


class TestChainedCount:
    """A chained job's map-task count — its chain source's reduce-task count —
    is a job-model input (``docs/costing.md``, "Signatures and invalidation"): a
    moved source keeps the reader on its kernel, and the memo holds no row
    per count."""

    def test_every_source_count_equals_cold_and_derives_no_row_per_count(self, monkeypatch):
        """Per chain, the source's reduce-task count over its whole search
        range, with and without a combiner flip on the reader: the session's
        objective ``==`` the cold engine on the materialised plan, and a reader without a pruned input is derived once per (input
        sizes, combiner state), whatever the count."""
        engine = WhatIfEngine(CLUSTER)
        search = StubbyOptimizer(CLUSTER).search
        checked = collections.Counter()
        for label, plan in _chained_plans():
            workflow = plan.workflow
            for reader in workflow.jobs:
                source = engine.chain_source(reader, workflow)
                if source is None:
                    continue
                producers = {workflow.producer_of(name) for name in reader.job.input_datasets}
                checked["through a map-only producer"] += source not in producers
                pruned = any(pipeline.input_partition_filter for pipeline in reader.job.pipelines)
                space, initial, tuned = search._joint_space(plan, [source.name, reader.name])
                at_rest = tuple(space.clamp(initial)[name] for name in space.names)
                slots = {setting: index for index, setting in tuned[source.name]}
                flips = [False]
                if reader.job.has_combiner:
                    flips.append(True)
                    slots["flip"] = {s: i for i, s in tuned[reader.name]}["combiner_enabled"]
                if "num_reduce_tasks" in slots:
                    dimension = space.dimensions[slots["num_reduce_tasks"]]
                    counts = range(int(dimension.low), int(dimension.high) + 1)
                else:  # held at one task
                    counts = [None]

                service = CostService(CLUSTER)
                derived = collections.Counter()
                derive = service.engine.derive_vertex_dataflow

                def counting(vertex, workflow, sizes, configs=None):
                    if vertex.name == reader.name:
                        combiner = vertex.job.has_combiner and config_of(vertex, configs).combiner_enabled
                        inputs = tuple(sizes[name] for name in vertex.job.input_datasets)
                        derived[(inputs, combiner)] += 1
                    return derive(vertex, workflow, sizes, configs)

                monkeypatch.setattr(service.engine, "derive_vertex_dataflow", counting)
                with service.overlay(workflow) as session:
                    session.estimate()
                    cost = session.objective(space, tuned.items())
                    for count in counts:
                        for flip in flips:
                            point = list(at_rest)
                            if count is not None:
                                point[slots["num_reduce_tasks"]] = count
                            if flip:
                                point[slots["flip"]] = not point[slots["flip"]]
                            point = tuple(point)
                            cold = _cold(plan, _bound(plan, tuned, point))
                            context = f"{label}: {reader.name} under {source.name}={count} flip={flip}"
                            assert cost(point) == cold.total_s, context
                            checked["samples"] += 1
                if not pruned:
                    assert set(derived.values()) == {1}, (label, reader.name, derived)
                    checked["unpruned readers"] += 1
                checked["flipped"] += len(flips) - 1
        assert checked["through a map-only producer"] > 0, checked
        assert checked["unpruned readers"] > 0 and checked["flipped"] > 0, checked

    # BR, PJ: chained readers; US: chained readers and readers pruned on a
    # range-partitioned producer's output, whose partition count is fixed.
    @pytest.mark.parametrize("abbr", ["BR", "PJ", "US"])
    def test_a_moved_reduce_count_rederives_no_reader_that_does_not_read_it(
        self, abbr, monkeypatch
    ):
        """During a cold ``optimize()``, a job whose dataflow reads no
        producer's reduce-task count — none but a reader pruned on a reducing,
        hash-partitioned producer's output does — is derived (or even
        re-keyed and looked up) inside a sample's walk only through its
        combiner flip (``_flipped``) or a walk that started over: never
        because a chain source's or another producer's reduce-task count
        moved."""
        where = []
        derivations = collections.Counter()

        def inside(owner, attribute, label):
            original = getattr(owner, attribute)

            def wrapped(*args, **kwargs):
                where.append(label)
                try:
                    return original(*args, **kwargs)
                finally:
                    where.pop()

            monkeypatch.setattr(owner, attribute, wrapped)

        def reads_a_reduce_count(vertex, workflow):
            for pipeline in vertex.job.pipelines:
                for name in pipeline.input_partition_filter:
                    producer = workflow.producer_of(name)
                    if producer is not None and not producer.job.is_map_only and (
                        producer.job.effective_partitioner.kind != "range"
                    ):
                        return True
            return False

        walk = OverlaySession._walk

        def counted_walk(session, steps, materialise):
            # Steps moving a chained count; samples moving a reduce count over a pruned reader.
            derivations["count moves"] += sum(
                inputs is not None and inputs[-1] != job.inputs[-1] for job, inputs, _ in steps
            )
            derivations["pruned moves"] += any(
                inputs is not None and inputs[0] != job.inputs[0] for job, inputs, _ in steps
            ) and any(
                pipeline.input_partition_filter
                for vertex in session.workflow.jobs
                for pipeline in vertex.job.pipelines
            )
            return walk(session, steps, materialise)

        monkeypatch.setattr(OverlaySession, "_walk", counted_walk)
        inside(OverlaySession, "_walk", "walk")
        inside(OverlaySession, "_flipped", "flip")
        inside(WhatIfEngine, "run_costing", "full walk")
        derive = WhatIfEngine.derive_vertex_dataflow
        rederive = OverlaySession._cost_vertex

        def counted(engine, vertex, workflow, sizes, configs=None):
            if where and not reads_a_reduce_count(vertex, workflow):
                derivations[where[-1]] += 1
            return derive(engine, vertex, workflow, sizes, configs)

        def counted_lookup(session, vertex, workflow, sizes, configs):
            if where[-1:] == ["walk"] and not reads_a_reduce_count(vertex, workflow):
                derivations["walk lookups"] += 1
            return rederive(session, vertex, workflow, sizes, configs)

        monkeypatch.setattr(WhatIfEngine, "derive_vertex_dataflow", counted)
        monkeypatch.setattr(OverlaySession, "_cost_vertex", counted_lookup)
        StubbyOptimizer(CLUSTER, seed=17).optimize(_profiled(abbr, scale=0.15).plan)
        assert derivations["count moves"] > 0, derivations
        assert derivations["walk"] == derivations["walk lookups"] == 0, derivations
        assert derivations["pruned moves"] > 0 or abbr != "US", derivations

    def test_the_judge_resolves_a_chain_as_the_estimate_does(self):
        """The judge (``ActualCostModel``) walks the estimate's walk: through
        a map-only chained producer, ``R7269_J3`` runs its chain source's two
        reduce tasks as map tasks on both sides, and the totals agree."""
        plan = _chained_through_map_only()
        base_datasets = RandomWorkflowGenerator().generate(7269).base_datasets
        execution, filesystem = WorkflowExecutor().execute(
            plan.workflow, base_datasets=base_datasets
        )
        actual = ActualCostModel(CLUSTER).workflow_cost(plan.workflow, execution, filesystem)
        estimate = WhatIfEngine(CLUSTER).estimate_workflow(plan.workflow)
        assert actual.per_job["R7269_J3"].num_map_tasks == 2
        assert estimate.per_job["R7269_J3"].num_map_tasks == 2
        assert actual.total_s == estimate.total_s


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
        # ...and so is the job-weighted amount of full-depth costing work:
        # from-scratch job derivations over the mean workflow size per query.
        assert stats.job_full_recosts * stats.queries / stats.job_queries * 5 <= stats.queries

    def test_unit_reports_carry_cost_stats(self):
        workload = _profiled("IR")
        result = StubbyOptimizer(CLUSTER).optimize(workload.plan)
        assert result.unit_reports
        total_queries = sum(
            record.cost_stats.queries for report in result.unit_reports for record in report.subplans
        )
        assert total_queries > 0
        assert result.cost_stats.queries >= total_queries

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
        if any("+" in name for name in result.plan.workflow.job_names):
            merged = [name for name in result.plan.workflow.job_names if "+" in name]
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
