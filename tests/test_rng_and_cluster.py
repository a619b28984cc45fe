"""Tests for the deterministic RNG and the cluster specification."""

import pytest

from repro.cluster import ClusterSpec, NodeSpec
from repro.common.rng import DeterministicRNG
from repro.mapreduce.config import JobConfig
from repro.whatif import JobDataflow, estimate_job_time
from tests.conftest import small_test_cluster


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

    def test_sample_and_choice(self):
        rng = DeterministicRNG(11)
        items = list(range(20))
        sampled = rng.sample(items, 5)
        assert len(set(sampled)) == 5
        assert rng.choice(items) in items


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
        assert cluster.scaled(1).job_model_constants[3:] == (2, 2, 1)

    def test_scaled_changes_node_count_only(self):
        cluster = ClusterSpec.paper_cluster().scaled(10)
        assert cluster.num_nodes == 10
        assert cluster.node == ClusterSpec.paper_cluster().node

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(network_mb_per_s=0)
