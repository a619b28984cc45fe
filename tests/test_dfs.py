"""Tests for the simulated DFS: layouts, datasets, and the filesystem."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ExecutionError
from repro.dfs import (
    DataLayout,
    Dataset,
    InMemoryFileSystem,
    PartitionScheme,
    RangePartitioning,
)
from tests import key_oracle


class TestRangePartitioning:
    def test_partition_index(self):
        ranges = RangePartitioning(field="x", split_points=(10.0, 20.0))
        assert ranges.partition_index(5) == 0
        assert ranges.partition_index(10) == 1
        assert ranges.partition_index(19.9) == 1
        assert ranges.partition_index(25) == 2

    def test_none_goes_to_first_partition(self):
        ranges = RangePartitioning(field="x", split_points=(10.0,))
        assert ranges.partition_index(None) == 0

    def test_num_partitions(self):
        assert RangePartitioning("x", (1.0, 2.0, 3.0)).num_partitions == 4

    def test_partitions_overlapping(self):
        ranges = RangePartitioning(field="x", split_points=(100.0, 200.0, 300.0))
        assert ranges.partitions_overlapping(0, 100) == (0,)
        assert ranges.partitions_overlapping(150, 250) == (1, 2)
        assert ranges.partitions_overlapping(50, 50) == ()

    def test_overlap_covers_all_for_full_range(self):
        ranges = RangePartitioning(field="x", split_points=(100.0, 200.0))
        overlapping = ranges.partitions_overlapping(0, 1_000)
        assert set(overlapping) == {0, 1, 2}


class TestPartitionScheme:
    def test_hash_requires_fields(self):
        with pytest.raises(ValueError):
            PartitionScheme(kind="hash")

    def test_range_requires_ranges(self):
        with pytest.raises(ValueError):
            PartitionScheme(kind="range", fields=("x",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PartitionScheme(kind="weird")

    def test_factories(self):
        assert PartitionScheme.hashed("a").kind == "hash"
        assert PartitionScheme.ranged("a", [1.0]).ranges.num_partitions == 2
        assert PartitionScheme.unpartitioned().kind == "none"


class TestDataLayout:
    def test_compression_ratio_bounds(self):
        with pytest.raises(ValueError):
            DataLayout(compression_ratio=0.0)
        with pytest.raises(ValueError):
            DataLayout(compression_ratio=1.5)

    def test_stored_bytes_with_compression(self):
        layout = DataLayout(compressed=True, compression_ratio=0.5)
        assert layout.stored_bytes(1000) == 500


def _records(n=30):
    return [{"k": float(i % 5), "v": float(i)} for i in range(n)]


class TestDataset:
    def test_load_and_counts(self):
        dataset = Dataset("d", records=_records())
        assert dataset.num_records == 30
        assert dataset.raw_bytes > 0
        assert dataset.num_partitions == 1

    def test_range_layout_partitions_records(self):
        layout = DataLayout(partitioning=PartitionScheme.ranged("v", [10.0, 20.0]))
        dataset = Dataset("d", records=_records(), layout=layout)
        assert dataset.num_partitions == 3
        assert all(r["v"] < 10 for r in dataset.partitions[0].records)
        assert all(10 <= r["v"] < 20 for r in dataset.partitions[1].records)

    def test_hash_layout_groups_keys(self):
        layout = DataLayout(partitioning=PartitionScheme.hashed("k"))
        dataset = Dataset("d", records=_records(200), layout=layout)
        for value in range(5):
            partitions = {
                p.index for p in dataset.partitions if any(r["k"] == value for r in p.records)
            }
            assert len(partitions) == 1

    def test_sorted_layout_orders_partitions(self):
        layout = DataLayout(sort_fields=("v",))
        dataset = Dataset("d", records=list(reversed(_records())), layout=layout)
        values = [r["v"] for r in dataset.partitions[0].records]
        assert values == sorted(values)

    def test_partition_pruned_read(self):
        layout = DataLayout(partitioning=PartitionScheme.ranged("v", [10.0, 20.0]))
        dataset = Dataset("d", records=_records(), layout=layout)
        pruned = list(dataset.records(partition_indexes=(0,)))
        assert pruned and all(r["v"] < 10 for r in pruned)

    def test_logical_size_uses_scale_factor(self):
        dataset = Dataset("d", records=_records(), scale_factor=100.0)
        assert dataset.logical_bytes == pytest.approx(dataset.raw_bytes * 100.0)
        assert dataset.logical_records == pytest.approx(dataset.num_records * 100.0)

    def test_field_range(self):
        dataset = Dataset("d", records=_records())
        assert dataset.field_range("v") == (0.0, 29.0)
        assert dataset.field_range("missing") is None


_VALUES = st.one_of(st.none(), st.integers(-50, 50), st.floats(-50, 50), st.text(max_size=6))
_RECORD_LISTS = st.lists(
    st.fixed_dictionaries({"k": _VALUES, "v": _VALUES}, optional={"w": _VALUES}), max_size=150
)
_PARTITIONINGS = st.sampled_from(
    (
        PartitionScheme.unpartitioned(),
        PartitionScheme.hashed("k"),
        PartitionScheme.hashed("k", "v"),
    )
)
_SORT_FIELDS = st.sampled_from(((), ("k",), ("v", "k")))


class TestStatisticsAreFixedAtLoad:
    """``num_records`` / ``raw_bytes`` / the content fingerprint are taken once
    per ``load()`` and must say what a recount of the records says."""

    @given(_RECORD_LISTS, _RECORD_LISTS, _PARTITIONINGS, _SORT_FIELDS)
    def test_statistics_equal_a_recount_after_load_and_reload(
        self, first, second, partitioning, sort_fields
    ):
        layout = DataLayout(partitioning=partitioning, sort_fields=sort_fields)
        dataset = Dataset("d", records=first, layout=layout, scale_factor=3.5)
        key_oracle.assert_statistics_match_a_recount(dataset)
        loaded_first = dataset.content_fingerprint
        dataset.load(second)
        key_oracle.assert_statistics_match_a_recount(dataset)
        assert dataset.num_records == len(second)
        if sorted(map(repr, first)) != sorted(map(repr, second)):
            assert dataset.content_fingerprint != loaded_first
        dataset.scale_factor = 0.25  # assigned after loading, read live
        key_oracle.assert_statistics_match_a_recount(dataset)

    @given(st.lists(st.fixed_dictionaries({"v": st.floats(-5, 25)}), max_size=80), _SORT_FIELDS)
    def test_range_partitioned_statistics_equal_a_recount(self, records, sort_fields):
        layout = DataLayout(
            partitioning=PartitionScheme.ranged("v", [0.0, 10.0, 20.0]), sort_fields=sort_fields
        )
        dataset = Dataset("d", records=records, layout=layout)
        assert dataset.num_partitions == 4
        key_oracle.assert_statistics_match_a_recount(dataset)
        dataset.load(records[::2])
        key_oracle.assert_statistics_match_a_recount(dataset)

    def test_an_unloaded_dataset_is_empty_and_partitions_are_read_only(self):
        empty = Dataset("d")
        assert (empty.num_partitions, empty.num_records, empty.raw_bytes) == (0, 0, 0)
        partition = Dataset("d", records=_records()).partitions[0]
        assert isinstance(partition.records, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            partition.records = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            partition.raw_bytes = 0


class TestInMemoryFileSystem:
    def test_put_get_roundtrip(self):
        fs = InMemoryFileSystem()
        fs.put(Dataset("a", records=_records()))
        assert fs.get("a").num_records == 30

    def test_missing_dataset_raises(self):
        with pytest.raises(ExecutionError):
            InMemoryFileSystem().get("nope")

    def test_exists_delete_names(self):
        fs = InMemoryFileSystem()
        fs.put(Dataset("a", records=[]))
        fs.put(Dataset("b", records=[]))
        assert fs.exists("a")
        fs.delete("a")
        assert not fs.exists("a")
        assert fs.names() == ["b"]

    def test_io_accounting(self):
        fs = InMemoryFileSystem()
        fs.put(Dataset("a", records=_records()))
        written = fs.total_bytes_written
        assert written > 0
        fs.get("a")
        assert fs.total_bytes_read > 0

    def test_peek_does_not_raise(self):
        fs = InMemoryFileSystem()
        assert fs.peek("missing") is None
