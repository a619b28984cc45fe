"""Tests for job configuration, configuration spaces, and partition functions."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.common.rng import DeterministicRNG
from repro.mapreduce.config import ConfigDimension, ConfigurationSpace, JobConfig
from repro.mapreduce.partitioner import PartitionFunction


class TestJobConfig:
    def test_defaults_valid(self):
        config = JobConfig()
        assert config.num_reduce_tasks == 1
        assert not config.is_map_only

    def test_map_only(self):
        assert JobConfig(num_reduce_tasks=0).is_map_only

    def test_validation(self):
        with pytest.raises(ValueError):
            JobConfig(num_reduce_tasks=-1)
        with pytest.raises(ValueError):
            JobConfig(split_size_mb=0)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(JobConfig)])
    def test_replace_keys_the_derived_config_from_its_own_fields(self, field):
        config = JobConfig(num_reduce_tasks=7, io_sort_mb=200, compress_output=True)
        config.key  # cached on ``config``: must not travel to what is derived from it
        held = getattr(config, field)
        value = (not held) if isinstance(held, bool) else held + 1
        derived = config.replace(**{field: value})
        values = {f.name: getattr(config, f.name) for f in dataclasses.fields(JobConfig)}
        fresh = JobConfig(**{**values, field: value})
        assert derived == fresh and derived.key == fresh.key != config.key
        assert derived.key[[f.name for f in dataclasses.fields(JobConfig)].index(field)] == value
        assert config.replace() == config and config.replace() is not config

    def test_replace_validates_like_the_constructor(self):
        config = JobConfig()
        for bad in ({"num_reduce_tasks": -1}, {"split_size_mb": 0}, {"io_sort_mb": 0}):
            with pytest.raises(ValueError):
                config.replace(**bad)
        with pytest.raises(TypeError):
            config.replace(no_such_field=1)

    def test_chained_input_flag(self):
        assert JobConfig(max_parallel_maps_per_producer_reduce=1).chained_input
        assert not JobConfig().chained_input

    def test_with_settings_applies_values(self):
        config = JobConfig().with_settings({"num_reduce_tasks": 40, "io_sort_mb": 256, "compress_output": True})
        assert config.num_reduce_tasks == 40
        assert config.io_sort_mb == 256
        assert config.compress_output

    def test_with_settings_respects_forced_single_reduce(self):
        config = JobConfig(num_reduce_tasks=1, forced_single_reduce=True)
        updated = config.with_settings({"num_reduce_tasks": 100})
        assert updated.num_reduce_tasks == 1

    def test_with_settings_respects_map_only(self):
        config = JobConfig(num_reduce_tasks=0)
        assert config.with_settings({"num_reduce_tasks": 50}).num_reduce_tasks == 0

    def test_with_settings_returns_self_when_nothing_changes(self):
        config = JobConfig(num_reduce_tasks=1, forced_single_reduce=True)
        assert config.with_settings(config.as_dict()) is config
        assert config.with_settings({"num_reduce_tasks": 40, "bogus": 1}) is config  # both ignored
        assert config.with_settings({"io_sort_mb": 128.4}) is config  # rounds to the value held
        assert config.with_settings({"io_sort_mb": 129}) == config.replace(io_sort_mb=129)

    def test_with_settings_ignores_unknown_keys(self):
        config = JobConfig().with_settings({"bogus": 12})
        assert config == JobConfig()

    def test_rule_of_thumb(self):
        config = JobConfig.rule_of_thumb(100)
        assert 1 <= config.num_reduce_tasks <= 100
        assert JobConfig.rule_of_thumb(100, map_only=True).is_map_only


class TestConfigurationSpace:
    def test_for_job_dimensions(self):
        space = ConfigurationSpace.for_job(max_reduce_tasks=200, map_only=False, has_combiner=True)
        names = set(space.names)
        assert {"num_reduce_tasks", "split_size_mb", "io_sort_mb", "combiner_enabled"}.issubset(names)

    def test_map_only_space_has_no_reduce_dimension(self):
        space = ConfigurationSpace.for_job(max_reduce_tasks=200, map_only=True)
        assert "num_reduce_tasks" not in space.names
        assert "compress_map_output" not in space.names

    def test_sample_within_bounds(self):
        space = ConfigurationSpace.for_job(max_reduce_tasks=50)
        rng = DeterministicRNG(3)
        for _ in range(20):
            point = space.sample(rng)
            assert 1 <= point["num_reduce_tasks"] <= 50
            assert 32 <= point["split_size_mb"] <= 256

    def test_sample_near_stays_in_bounds(self):
        space = ConfigurationSpace.for_job(max_reduce_tasks=50)
        rng = DeterministicRNG(3)
        center = space.sample(rng)
        for _ in range(20):
            point = space.sample_near(center, 0.1, rng)
            assert 1 <= point["num_reduce_tasks"] <= 50

    def test_clamp(self):
        space = ConfigurationSpace.for_job(max_reduce_tasks=50)
        clamped = space.clamp({"num_reduce_tasks": 10_000, "unknown": 5})
        assert clamped == {"num_reduce_tasks": 50}

    def test_size_estimate_positive(self):
        assert ConfigurationSpace.for_job(max_reduce_tasks=10).size_estimate() > 1

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ConfigDimension("x", "weird")
        with pytest.raises(ValueError):
            ConfigDimension("x", "int", low=5, high=1)


class TestPartitionFunction:
    def test_default_hash(self):
        pf = PartitionFunction.default_hash(["a", "b"])
        assert pf.kind == "hash"
        assert pf.effective_sort_fields == ("a", "b")

    def test_hash_is_deterministic_and_consistent(self):
        pf = PartitionFunction.default_hash(["k"])
        key = {"k": "value-42"}
        assert pf.partition_index(key, 16) == pf.partition_index(dict(key), 16)

    def test_single_partition_short_circuit(self):
        pf = PartitionFunction.default_hash(["k"])
        assert pf.partition_index({"k": 9}, 1) == 0

    def test_range_partitioning(self):
        pf = PartitionFunction.ranged("k", [10.0, 20.0])
        assert pf.partition_index({"k": 5}, 3) == 0
        assert pf.partition_index({"k": 15}, 3) == 1
        assert pf.partition_index({"k": 25}, 3) == 2

    def test_range_requires_split_points(self):
        with pytest.raises(ValueError):
            PartitionFunction(kind="range", fields=("k",))

    def test_satisfies_same_fields_and_sort_prefix(self):
        constraint = PartitionFunction(kind="hash", fields=("a",), sort_fields=("a", "b"))
        ok = PartitionFunction(kind="hash", fields=("a",), sort_fields=("a", "b", "c"))
        assert ok.satisfies(constraint)
        bad_fields = PartitionFunction(kind="hash", fields=("b",), sort_fields=("a", "b"))
        assert not bad_fields.satisfies(constraint)
        bad_sort = PartitionFunction(kind="hash", fields=("a",), sort_fields=("b", "a"))
        assert not bad_sort.satisfies(constraint)

    def test_key_is_plain_content_built_once(self):
        function = PartitionFunction.default_hash(["a", "b"])
        assert function.key == ("hash", ("a", "b"), ("a", "b"), ())
        assert function.key is function.key
        ranged = function.with_split_points([1.0, 2.0])
        assert ranged.key == ("range", ("a", "b"), ("a", "b"), (1.0, 2.0)) != function.key

    def test_satisfies_none_constraint(self):
        assert PartitionFunction.default_hash(["a"]).satisfies(None)

    def test_with_helpers(self):
        pf = PartitionFunction.default_hash(["a"])
        assert pf.with_sort_fields(["a", "b"]).effective_sort_fields == ("a", "b")
        assert pf.with_split_points([5.0]).kind == "range"

    @given(
        st.dictionaries(st.sampled_from(["a", "b"]), st.integers(-50, 50), min_size=1),
        st.integers(2, 32),
    )
    def test_partition_index_in_range(self, key, partitions):
        pf = PartitionFunction.default_hash(["a", "b"])
        index = pf.partition_index(key, partitions)
        assert 0 <= index < partitions

    @given(st.integers(-1000, 1000), st.integers(2, 16))
    def test_equal_keys_same_partition(self, value, partitions):
        pf = PartitionFunction.default_hash(["k"])
        assert pf.partition_index({"k": value}, partitions) == pf.partition_index(
            {"k": value, "other": 1}, partitions
        )
