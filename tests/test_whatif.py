"""Tests for the What-if cost model, actual-cost model, and adjustments."""

import collections
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.mapreduce.config import JobConfig
from repro.profiler import Profiler
from repro.whatif import (
    ActualCostModel,
    JobDataflow,
    WhatIfEngine,
    adjust_profile_for_horizontal_packing,
    adjust_profile_for_inter_job_packing,
    adjust_profile_for_intra_job_packing,
    estimate_job_time,
)
from repro.whatif.jobmodel import JobKernel, job_model_settings
from repro.whatif.scheduling import level_makespan, level_terms, workflow_makespan
from repro.workflow.annotations import ProfileAnnotation
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import build_workload
from tests import jobmodel_oracle
from tests.conftest import equivalence_seeds, small_test_cluster

CLUSTER = ClusterSpec.paper_cluster()
GB = 1024.0 ** 3


def _dataflow(**overrides):
    base = dict(
        input_bytes=10 * GB,
        input_records=1e8,
        map_output_records=1e8,
        map_output_bytes=10 * GB,
        shuffle_records=1e8,
        shuffle_bytes=10 * GB,
        reduce_input_records=1e8,
        output_records=1e7,
        output_bytes=1 * GB,
        map_cpu_cost_per_record=2.0,
        reduce_cpu_cost_per_record=2.0,
    )
    base.update(overrides)
    return JobDataflow(**base)


class TestJobModel:
    def test_more_input_takes_longer(self):
        small = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=50), CLUSTER, 0)
        big = estimate_job_time(
            _dataflow(input_bytes=100 * GB, input_records=1e9), JobConfig(num_reduce_tasks=50), CLUSTER, 0
        )
        assert big.total_s > small.total_s

    def test_more_reducers_speed_up_reduce_phase(self):
        few = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=2), CLUSTER, 0)
        many = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=100), CLUSTER, 0)
        assert many.reduce_phase_s < few.reduce_phase_s

    def test_parallelism_capped_by_distinct_partition_keys(self):
        capped = estimate_job_time(
            _dataflow(distinct_partition_keys=2.0), JobConfig(num_reduce_tasks=100), CLUSTER, 0
        )
        uncapped = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=100), CLUSTER, 0)
        assert capped.reduce_phase_s > uncapped.reduce_phase_s

    def test_map_only_has_no_shuffle_or_reduce(self):
        estimate = estimate_job_time(_dataflow(map_only=True), JobConfig(num_reduce_tasks=0), CLUSTER, 0)
        assert estimate.shuffle_s == 0.0
        assert estimate.reduce_phase_s == 0.0

    def test_compression_reduces_shuffle_time(self):
        plain = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=50), CLUSTER, 0)
        compressed = estimate_job_time(
            _dataflow(), JobConfig(num_reduce_tasks=50, compress_map_output=True), CLUSTER, 0
        )
        assert compressed.shuffle_s < plain.shuffle_s

    def test_chained_map_tasks_override_split_derivation(self):
        estimate = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=10), CLUSTER, 17)
        assert estimate.num_map_tasks == 17

    def test_pipeline_contention_costs_more(self):
        single = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=50), CLUSTER, 0)
        packed = estimate_job_time(_dataflow(pipeline_count=3), JobConfig(num_reduce_tasks=50), CLUSTER, 0)
        assert packed.total_s > single.total_s

    def test_dataflow_validation(self):
        with pytest.raises(ValueError):
            _dataflow(input_bytes=-1)
        with pytest.raises(ValueError):
            _dataflow(pipeline_count=0)

    def test_dataflow_scaling(self):
        doubled = _dataflow().scaled(2.0)
        assert doubled.input_bytes == 2 * _dataflow().input_bytes


#: The paper's cluster, the small test cluster and a 7-node paper cluster,
#: plus one whose CPU speed factor is not 1.0: with 1.0, multiplying by it is
#: exact whatever the grouping, so only the fourth shows that the CPU product
#: keeps its order.
ORACLE_CLUSTERS = (
    ClusterSpec.paper_cluster(),
    small_test_cluster(),
    ClusterSpec.paper_cluster().scaled(7),
    dataclasses.replace(small_test_cluster(), cpu_speed_factor=1.37, network_mb_per_s=47.0),
)

_amounts = st.one_of(st.just(0.0), st.floats(0.0, 1e13, allow_nan=False), st.integers(1, 10**9))
_costs = st.floats(0.0, 50.0, allow_nan=False)
_caps = st.one_of(st.none(), st.just(0.0), st.floats(0.01, 1e6), st.integers(1, 500))

_dataflows = st.builds(
    JobDataflow,
    **{name: _amounts for name in (
        "input_bytes", "input_records", "map_output_records", "map_output_bytes",
        "shuffle_records", "shuffle_bytes", "reduce_input_records", "output_records",
        "output_bytes",
    )},
    map_cpu_cost_per_record=_costs,
    reduce_cpu_cost_per_record=_costs,
    map_only=st.booleans(),
    pipeline_count=st.integers(1, 4),
    distinct_reduce_groups=_caps,
    distinct_partition_keys=_caps,
)
#: A chained map-task count, or none.
_chained = st.one_of(st.none(), st.integers(0, 400))
_configs = st.builds(
    JobConfig,
    num_reduce_tasks=st.integers(0, 300),
    split_size_mb=st.integers(1, 1024),
    io_sort_mb=st.integers(1, 2048),
    combiner_enabled=st.booleans(),
    compress_map_output=st.booleans(),
    compress_output=st.booleans(),
    max_parallel_maps_per_producer_reduce=st.integers(0, 3),
    forced_single_reduce=st.booleans(),
)


def _random_job(rng):
    """One ``(dataflow, config, chained map-task count)`` from ``rng``: the
    strategies above, seeded."""
    def amount():
        return rng.choice([0.0, rng.uniform(0.0, 1e13), rng.uniform(0.0, 1e6), rng.randint(1, 10**9)])

    def cap():
        return rng.choice([None, 0.0, rng.uniform(0.01, 1e6), rng.randint(1, 500)])

    dataflow = JobDataflow(
        *[amount() for _ in range(9)],
        map_cpu_cost_per_record=rng.uniform(0.0, 50.0),
        reduce_cpu_cost_per_record=rng.uniform(0.0, 50.0),
        map_only=rng.random() < 0.3,
        pipeline_count=rng.randint(1, 4),
        distinct_reduce_groups=cap(),
        distinct_partition_keys=cap(),
    )
    chained_map_tasks = rng.choice([None, 0, rng.randint(1, 400)])
    config = JobConfig(
        num_reduce_tasks=rng.randint(0, 300),
        split_size_mb=rng.randint(1, 1024),
        io_sort_mb=rng.randint(1, 2048),
        combiner_enabled=rng.random() < 0.5,
        compress_map_output=rng.random() < 0.5,
        compress_output=rng.random() < 0.5,
        max_parallel_maps_per_producer_reduce=rng.randint(0, 3),
        forced_single_reduce=rng.random() < 0.2,
    )
    return dataflow, config, chained_map_tasks


def _assert_equals_the_oracle(dataflow, config, chained, cluster, ours=None):
    """``ours`` (default: ``estimate_job_time``) ``==`` the oracle's estimate, field by field."""
    if ours is None:
        ours = estimate_job_time(dataflow, config, cluster, chained)
    theirs = jobmodel_oracle.estimate_job_time(dataflow, config, cluster, chained)
    for name in jobmodel_oracle.FIELDS:
        assert getattr(ours, name) == getattr(theirs, name), (name, dataflow, config, cluster)
        assert type(getattr(ours, name)) is type(getattr(theirs, name)), name
    assert ours.total_s == theirs.total_s
    return ours


def _makespan(estimates, cluster):
    """``level_makespan`` of a level held as estimates."""
    return level_makespan([level_terms(e, cluster.task_startup_s) for e in estimates], cluster)


class TestJobModelOracle:
    """The flat job model ``==`` the phase-by-phase one it replaced, on every
    field, and ``level_makespan`` ``==`` its loop-summed original: exact
    equality, so every estimate and decision built on them is unchanged."""

    @settings(max_examples=400)
    @given(_dataflows, _configs, _chained, st.sampled_from(ORACLE_CLUSTERS))
    def test_estimate_job_time_equals_the_oracle(self, dataflow, config, chained, cluster):
        _assert_equals_the_oracle(dataflow, config, chained, cluster)

    @settings(max_examples=150)
    @given(
        st.lists(st.tuples(_dataflows, _configs, _chained), max_size=8),
        st.sampled_from(ORACLE_CLUSTERS),
    )
    def test_level_makespan_equals_the_oracle(self, jobs, cluster):
        estimates = [
            estimate_job_time(dataflow, config, cluster, chained) for dataflow, config, chained in jobs
        ]
        assert _makespan(estimates, cluster) == jobmodel_oracle.level_makespan(estimates, cluster)

    @pytest.mark.equivalence
    @pytest.mark.parametrize("seed", equivalence_seeds())
    def test_seeded_sweep_equals_the_oracle(self, seed):
        rng = random.Random(seed)
        for cluster in ORACLE_CLUSTERS:
            level = [_assert_equals_the_oracle(*_random_job(rng), cluster) for _ in range(60)]
            for size in (2, 5, 60):
                estimates = level[:size]
                assert _makespan(estimates, cluster) == jobmodel_oracle.level_makespan(
                    estimates, cluster
                )


#: One ``(dataflow, chained map-task count)`` per branch of the kernel's key
#: derivation and halves.
KERNEL_JOBS = {
    "plain": (_dataflow(), 0),
    "map-only": (_dataflow(map_only=True), 0),
    "chained": (_dataflow(), 37),
    "capped reducers": (_dataflow(distinct_reduce_groups=12.0, distinct_partition_keys=30), 0),
    "partition-capped": (_dataflow(distinct_partition_keys=7), 0),
    "packed": (_dataflow(pipeline_count=3, map_output_bytes=40 * GB), 0),
    "many spills": (_dataflow(map_output_bytes=300 * GB), 0),
}

#: Settings in JOB_MODEL_SETTINGS order; a reduce count of 0 takes the map-only branch.
KERNEL_SETTINGS = [
    (reduces, split, sort, compress_map_output, compress_output)
    for reduces in (0, 1, 5, 40, 300)
    for split in (8, 64, 256)
    for sort in (8, 128, 512)
    for compress_map_output in (False, True)
    for compress_output in (False, True)
]


class TestJobKernel:
    """A kernel held across many settings answers each with the level terms
    of the phase-by-phase oracle's estimate (``==``, every term a float),
    whether a half was computed for the call or came from the kernel's memo
    of an earlier key."""

    @pytest.mark.parametrize("label", sorted(KERNEL_JOBS))
    @pytest.mark.parametrize("cluster", ORACLE_CLUSTERS, ids=("paper", "small", "paper7", "slow-cpu"))
    def test_memoized_halves_equal_the_oracle(self, label, cluster):
        dataflow, chained = KERNEL_JOBS[label]
        kernel = JobKernel(dataflow, cluster)
        # Twice over, the second pass shuffled: every half it reads is a memo hit.
        order = KERNEL_SETTINGS + random.Random(label).sample(KERNEL_SETTINGS, len(KERNEL_SETTINGS))
        calls = collections.Counter()
        for settings in order:
            reduces, split, sort, compress_map_output, compress_output = settings
            config = JobConfig(
                num_reduce_tasks=reduces, split_size_mb=split, io_sort_mb=sort,
                compress_map_output=compress_map_output, compress_output=compress_output,
            )
            theirs = jobmodel_oracle.estimate_job_time(dataflow, config, cluster, chained)
            rows = len(kernel.maps) + len(kernel.reduces)
            ours = kernel.terms((*settings, chained))
            calls["computed" if len(kernel.maps) + len(kernel.reduces) > rows else "memo"] += 1
            assert ours == level_terms(theirs, cluster.task_startup_s), (label, settings)
            assert [type(term) for term in ours] == [float] * 5, (label, settings)
            assert ours[0] == theirs.total_s
            # The estimate reads the same halves: always a memo hit here.
            estimate = kernel.estimate((*settings, chained))
            _assert_equals_the_oracle(dataflow, config, chained, cluster, estimate)
        # Each half ran once per key, and far fewer times than it was read.
        assert calls["computed"] and calls["memo"] > len(KERNEL_SETTINGS), calls
        assert len(kernel.maps) + len(kernel.reduces) < len(KERNEL_SETTINGS)
        passes = {key[1] for key in kernel.maps}
        if label == "many spills":
            assert max(passes - {None}) > 1  # more than one spill pass is exercised
        if dataflow.map_only:
            assert not kernel.reduces and passes == {None}


class TestLevelTerms:
    """What the level model reads of a job: a kernel's terms ``==``
    ``level_terms`` of the phase-by-phase oracle's estimate on random jobs,
    its estimate ``==`` the oracle's, and ``level_makespan`` over terms ``==``
    the oracle's over estimates."""

    @settings(max_examples=300)
    @given(_dataflows, _configs, _chained, st.sampled_from(ORACLE_CLUSTERS))
    def test_random_jobs_terms_equal_the_oracles_level_terms(self, dataflow, config, chained, cluster):
        theirs = jobmodel_oracle.estimate_job_time(dataflow, config, cluster, chained)
        inputs = (*job_model_settings(config), chained or 0)  # a kernel's count is an int

        def check(kernel, reader):
            if reader == "terms":
                assert kernel.terms(inputs) == level_terms(theirs, cluster.task_startup_s)
            else:
                estimate = kernel.estimate(inputs)
                _assert_equals_the_oracle(dataflow, config, chained, cluster, estimate)

        for order in (("terms", "estimate"), ("estimate", "terms")):
            kernel = JobKernel(dataflow, cluster)
            for reader in order * 2:  # the first computes the halves, the rest read the memo
                check(kernel, reader)

    @pytest.mark.parametrize("seed", range(4))
    def test_level_makespan_over_terms_equals_the_oracle(self, seed):
        rng = random.Random(seed)
        for cluster in ORACLE_CLUSTERS:
            jobs = [_random_job(rng) for _ in range(12)]
            pool = [estimate_job_time(df, config, cluster, chained) for df, config, chained in jobs]
            levels = [[], [pool[0]], [pool[1], pool[1]], [pool[2]] * 5]  # empty, single, ties
            for _ in range(40):
                level = rng.sample(pool, rng.randint(1, 8))
                levels.append(level + rng.sample(level, rng.randint(0, len(level))))  # repeats tie
            for level in levels:
                terms = [level_terms(e, cluster.task_startup_s) for e in level]
                assert level_makespan(terms, cluster) == jobmodel_oracle.level_makespan(
                    level, cluster
                ), (seed, len(level))


class TestScheduling:
    def test_single_job_level(self):
        estimate = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=50), CLUSTER, 0)
        assert _makespan([estimate], CLUSTER) == estimate.total_s

    def test_two_small_jobs_run_concurrently(self):
        small = _dataflow(input_bytes=0.5 * GB, input_records=1e6, map_output_bytes=0.1 * GB,
                          map_output_records=1e5, shuffle_records=1e5, shuffle_bytes=0.1 * GB,
                          reduce_input_records=1e5, output_records=1e4, output_bytes=0.01 * GB)
        estimate = estimate_job_time(small, JobConfig(num_reduce_tasks=4), CLUSTER, 0)
        level = _makespan([estimate, estimate], CLUSTER)
        assert level < 2 * estimate.total_s * 0.95

    def test_workflow_makespan_sums_levels(self):
        estimate = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=50), CLUSTER, 0)
        total = workflow_makespan([[estimate], [estimate]], CLUSTER)
        assert total == pytest.approx(2 * estimate.total_s)


class TestWhatIfEngine:
    @pytest.fixture(scope="class")
    def profiled_ir(self):
        workload = build_workload("IR", scale=0.15)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        return workload

    def test_estimate_produces_per_job_costs(self, profiled_ir):
        estimate = WhatIfEngine(CLUSTER).estimate_workflow(profiled_ir.workflow)
        assert estimate.cost_basis == "whatif"
        assert set(estimate.per_job) == {"IR_J1", "IR_J2", "IR_J3"}
        assert estimate.total_s > 0

    def test_estimate_matches_actual_for_profiled_plan(self, profiled_ir):
        """With full (noise-free) profiles the estimate equals the measured cost."""
        executor = WorkflowExecutor()
        execution, filesystem = executor.execute(
            profiled_ir.workflow.copy(), base_datasets=profiled_ir.base_datasets
        )
        estimated = WhatIfEngine(CLUSTER).estimate_workflow(profiled_ir.workflow).total_s
        actual = ActualCostModel(CLUSTER).workflow_cost(
            profiled_ir.workflow, execution, filesystem
        ).total_s
        assert estimated == pytest.approx(actual, rel=0.15)

    def test_fallback_to_job_count_without_profiles(self):
        workload = build_workload("IR", scale=0.15)
        estimate = WhatIfEngine(CLUSTER).estimate_workflow(workload.workflow)
        assert estimate.cost_basis == "job_count"
        assert estimate.total_s == pytest.approx(1000.0 * workload.num_jobs)

    def test_fewer_reduce_tasks_estimated_slower(self, profiled_ir):
        from repro.core.plan import Plan

        plan = Plan(profiled_ir.workflow.copy())
        slow = plan.copy()
        slow.set_job_config("IR_J1", slow.job("IR_J1").job.config.replace(num_reduce_tasks=1))
        fast = plan.copy()
        fast.set_job_config("IR_J1", fast.job("IR_J1").job.config.replace(num_reduce_tasks=90))
        engine = WhatIfEngine(CLUSTER)
        assert engine.estimate_workflow(fast.workflow).total_s < engine.estimate_workflow(slow.workflow).total_s


class TestAdjustments:
    def test_intra_adjustment_multiplies_selectivities(self):
        producer = ProfileAnnotation(map_selectivity=1.0, reduce_selectivity=0.5)
        consumer = ProfileAnnotation(
            map_selectivity=0.4, reduce_selectivity=0.5,
            map_cpu_cost_per_record=2.0, reduce_cpu_cost_per_record=10.0,
        )
        adjusted = adjust_profile_for_intra_job_packing(producer, consumer)
        assert adjusted.map_selectivity == pytest.approx(0.2)
        assert adjusted.reduce_selectivity == 1.0
        assert adjusted.map_cpu_cost_per_record == pytest.approx(2.0 + 0.4 * 10.0)

    def test_inter_adjustment_map_side(self):
        surviving = ProfileAnnotation(map_selectivity=0.5, map_cpu_cost_per_record=1.0)
        absorbed = ProfileAnnotation(map_selectivity=0.2, map_cpu_cost_per_record=4.0)
        adjusted = adjust_profile_for_inter_job_packing(surviving, absorbed, absorbed_into_map_side=True)
        assert adjusted.map_selectivity == pytest.approx(0.1)

    def test_inter_adjustment_reduce_side(self):
        surviving = ProfileAnnotation(reduce_selectivity=0.5, reduce_cpu_cost_per_record=2.0)
        absorbed = ProfileAnnotation(map_selectivity=0.3, map_cpu_cost_per_record=1.0)
        adjusted = adjust_profile_for_inter_job_packing(surviving, absorbed, absorbed_into_map_side=False)
        assert adjusted.reduce_selectivity == pytest.approx(0.15)

    def test_horizontal_adjustment_adds_selectivities_and_costs(self):
        profiles = [
            ProfileAnnotation(map_selectivity=0.5, map_cpu_cost_per_record=1.0),
            ProfileAnnotation(map_selectivity=0.25, map_cpu_cost_per_record=3.0),
        ]
        adjusted = adjust_profile_for_horizontal_packing(profiles)
        assert adjusted.map_selectivity == pytest.approx(0.75)
        assert adjusted.map_cpu_cost_per_record == pytest.approx(4.0)

    def test_horizontal_adjustment_requires_profiles(self):
        with pytest.raises(ValueError):
            adjust_profile_for_horizontal_packing([])
