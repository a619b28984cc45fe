"""Tests for the deterministic RNG and the cluster specification."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.cluster import ClusterSpec, NodeSpec
from repro.common import rng as rng_module
from repro.common.rng import DeterministicRNG
from repro.mapreduce.config import JobConfig
from repro.whatif import JobDataflow, estimate_job_time
from tests.conftest import small_test_cluster
from tests.rng_oracle import ZipfOracle, running_sums

#: The exponents the data generators draw with, and 2.0.
ZIPF_ALPHAS = (1.1, 1.2, 1.3, 1.4, 1.5, 2.0)


def _dataflow(**overrides):
    values = dict.fromkeys(
        (
            "input_bytes", "input_records", "map_output_records", "map_output_bytes",
            "shuffle_records", "shuffle_bytes", "reduce_input_records", "output_records",
            "output_bytes",
        ),
        1e9,
    )
    return JobDataflow(**{**values, **overrides})


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(3)
        b = DeterministicRNG(3)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRNG(1)
        b = DeterministicRNG(2)
        assert [a.randint(0, 10_000) for _ in range(10)] != [b.randint(0, 10_000) for _ in range(10)]

    def test_fork_is_deterministic(self):
        a = DeterministicRNG(5).fork("child")
        b = DeterministicRNG(5).fork("child")
        assert a.random() == b.random()

    def test_fork_is_independent_of_parent_consumption(self):
        parent1 = DeterministicRNG(5)
        parent1.random()
        parent2 = DeterministicRNG(5)
        assert parent1.fork("x").random() == parent2.fork("x").random()

    def test_zipf_in_domain(self):
        rng = DeterministicRNG(7)
        samples = [rng.zipf(20) for _ in range(200)]
        assert all(1 <= s <= 20 for s in samples)

    def test_zipf_skew(self):
        rng = DeterministicRNG(7)
        samples = [rng.zipf(50, alpha=1.5) for _ in range(500)]
        ones = sum(1 for s in samples if s == 1)
        assert ones > len(samples) * 0.2

    def test_zipf_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).zipf(0)


def _typed(values):
    return [(value, type(value)) for value in values]


class TestZipfEqualsTheOriginalLoop:
    """``zipf`` draws from a table built once per law and generator; every
    draw equals the original rebuild-and-scan loop's (``tests/rng_oracle.py``)
    by value and by type, and the table holds the loop's own floats."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        laws=st.lists(
            st.tuples(st.integers(1, 500), st.sampled_from(ZIPF_ALPHAS)), min_size=2, max_size=2
        ),
        rounds=st.integers(1, 40),
    )
    def test_interleaved_draws_equal_the_oracle(self, seed, laws, rounds):
        rng, oracle = DeterministicRNG(seed), ZipfOracle(seed)
        order = [law for _ in range(rounds) for law in laws]
        assert _typed(rng.zipf(n, alpha) for n, alpha in order) == _typed(
            oracle.zipf(n, alpha) for n, alpha in order
        )

    @given(n=st.integers(1, 500), alpha=st.sampled_from(ZIPF_ALPHAS))
    def test_the_table_holds_the_running_sums_and_sum_of_the_weights(self, n, alpha):
        rng = DeterministicRNG(1)
        rng.zipf(n, alpha)
        assert rng._zipf_tables == {
            (n, alpha, float): (running_sums(n, alpha), sum(1.0 / (i**alpha) for i in range(1, n + 1)))
        }

    def test_total_is_sum_not_the_last_running_sum(self, monkeypatch):
        # Up to 3.11 ``sum()`` adds left to right, so its total equals the
        # last running sum; a compensated ``sum()`` (3.12 on) tells them apart
        # on every interpreter.
        monkeypatch.setattr(rng_module, "sum", math.fsum, raising=False)
        n, alpha = 500, 1.1
        weights = [1.0 / (i**alpha) for i in range(1, n + 1)]
        rng = DeterministicRNG(1)
        rng.zipf(n, alpha)
        cumulative, total = rng._zipf_tables[(n, alpha, float)]
        assert total == math.fsum(weights) != cumulative[-1]
        assert cumulative == running_sums(n, alpha)

    def test_an_int_and_a_float_exponent_keep_their_own_tables(self):
        rng, oracle = DeterministicRNG(5), ZipfOracle(5)
        order = [(300, 2), (300, 2.0)] * 20
        assert _typed(rng.zipf(n, alpha) for n, alpha in order) == _typed(
            oracle.zipf(n, alpha) for n, alpha in order
        )
        assert set(rng._zipf_tables) == {(300, 2, int), (300, 2.0, float)}

    @pytest.mark.parametrize("n", [0, -1, -500])
    def test_a_non_positive_domain_still_raises(self, n):
        rng = DeterministicRNG(3)
        with pytest.raises(ValueError):
            rng.zipf(n)
        with pytest.raises(ValueError):
            ZipfOracle(3).zipf(n)
        assert rng._zipf_tables == {}

    def test_choice(self):
        rng = DeterministicRNG(11)
        items = list(range(20))
        assert rng.choice(items) in items


class TestRandintEqualsTheStandardLibrary:
    @given(
        st.integers(0, 2**32),
        st.lists(
            st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 2**40)), min_size=1, max_size=20
        ),
    )
    def test_the_stream_equals_random_randint(self, seed, bounds):
        ours, reference = DeterministicRNG(seed), random.Random(seed)
        for low, width in bounds:
            drawn = ours.randint(low, low + width)
            assert type(drawn) is int and drawn == reference.randint(low, low + width)
        assert ours.random() == reference.random()

    def test_an_empty_range_still_raises(self):
        with pytest.raises(ValueError):
            DeterministicRNG(1).randint(3, 2)


class TestNodeSpec:
    def test_default_is_valid(self):
        NodeSpec().validate()

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            NodeSpec(map_slots=0).validate()

    def test_rejects_bad_disk(self):
        with pytest.raises(ValueError):
            NodeSpec(disk_read_mb_per_s=0).validate()


class TestClusterSpec:
    def test_paper_cluster_slot_counts(self):
        cluster = ClusterSpec.paper_cluster()
        assert cluster.num_nodes == 51
        assert cluster.total_map_slots == 51 * 3
        assert cluster.total_reduce_slots == 51 * 2

    def test_a_resized_cluster_keeps_its_node_and_scales_its_slots(self):
        paper = ClusterSpec.paper_cluster()
        assert paper.job_model_constants[3:] == (153, 102, 51)  # cached on ``paper``
        resized = dataclasses.replace(paper, num_nodes=10)
        assert resized.node == paper.node
        assert (resized.total_map_slots, resized.total_reduce_slots) == (30, 20)
        assert resized.job_model_constants[3:] == (30, 20, 10)
        assert resized.cache_key != paper.cache_key

    def test_map_waves(self):
        """One map wave per ``total_map_slots`` tasks, charged a task start-up each."""
        cluster = ClusterSpec.paper_cluster()
        for tasks, waves in ((1, 1), (cluster.total_map_slots, 1), (cluster.total_map_slots + 1, 2)):
            estimate = estimate_job_time(_dataflow(), JobConfig(num_reduce_tasks=1), cluster, tasks)
            assert estimate.num_map_tasks == tasks
            assert estimate.map_phase_s == waves * (estimate.map_task_s + cluster.task_startup_s)

    def test_reduce_waves(self):
        cluster = ClusterSpec.paper_cluster()
        estimate = estimate_job_time(
            _dataflow(), JobConfig(num_reduce_tasks=cluster.total_reduce_slots * 3), cluster, 0
        )
        assert estimate.reduce_phase_s == 3 * cluster.task_startup_s + estimate.reduce_task_s

    def test_job_model_constants_are_the_derived_rates(self):
        cluster = small_test_cluster()
        mb = 1024.0 * 1024.0
        assert cluster.job_model_constants == (
            cluster.node.disk_read_mb_per_s * mb,
            cluster.node.disk_write_mb_per_s * mb,
            cluster.network_mb_per_s * mb,
            cluster.total_map_slots,
            cluster.total_reduce_slots,
            min(cluster.total_reduce_slots, cluster.num_nodes),
        )
        assert dataclasses.replace(cluster, num_nodes=1).job_model_constants[3:] == (2, 2, 1)

    def test_cache_key_is_the_field_tuple_built_once_per_spec(self, monkeypatch):
        from repro.cluster import spec as spec_module
        from repro.common.store import cluster_cache_key

        built = []

        def counting(value, original=spec_module.astuple):
            built.append(value)
            return original(value)

        monkeypatch.setattr(spec_module, "astuple", counting)
        cluster = small_test_cluster()
        assert cluster.cache_key == dataclasses.astuple(cluster)
        assert cluster_cache_key(cluster) is cluster.cache_key
        assert cluster_cache_key(cluster) is cluster_cache_key(cluster)
        assert built == [cluster]
        other = dataclasses.replace(cluster, num_nodes=cluster.num_nodes + 1)
        assert cluster_cache_key(other) != cluster_cache_key(cluster)
        assert built == [cluster, other]

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(network_mb_per_s=0)
