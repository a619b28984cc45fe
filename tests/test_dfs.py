"""Tests for the simulated DFS: layouts, datasets, and the filesystem."""

import dataclasses

import pytest
from hypothesis import example, given, strategies as st

from repro.common.errors import ExecutionError
from repro.dfs import (
    DataLayout,
    Dataset,
    InMemoryFileSystem,
    PartitionScheme,
    RangePartitioning,
    logical_scale,
)
from tests import engine_oracle, key_oracle


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


def _records(n=30):
    return [{"k": float(i % 5), "v": float(i)} for i in range(n)]


class TestDataset:
    def test_load_and_counts(self):
        dataset = Dataset("d", records=_records())
        assert dataset.num_records == 30
        assert dataset.raw_bytes > 0
        assert len(dataset.partitions) == 1

    def test_range_layout_partitions_records(self):
        layout = DataLayout(partitioning=PartitionScheme.ranged("v", [10.0, 20.0]))
        dataset = Dataset("d", records=_records(), layout=layout)
        assert len(dataset.partitions) == 3
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
        pruned = [r for p in dataset.partitions if p.index in (0,) for r in p.records]
        assert pruned and all(r["v"] < 10 for r in pruned)
        assert len(pruned) == dataset.partitions[0].num_records

    def test_logical_size_uses_scale_factor(self):
        dataset = Dataset("d", records=_records(), scale_factor=100.0)
        assert dataset.logical_bytes == pytest.approx(dataset.raw_bytes * 100.0)
        assert dataset.logical_records == pytest.approx(dataset.num_records * 100.0)

    def test_field_range(self):
        dataset = Dataset("d", records=_records())
        assert dataset.field_ranges["v"] == (0.0, 29.0)
        assert "missing" not in dataset.field_ranges


class TestLogicalScale:
    def test_inputs_are_weighted_by_their_whole_record_counts(self):
        small = Dataset("small", records=_records(10), scale_factor=16.0)
        large = Dataset("large", records=_records(30), scale_factor=4.0)
        assert logical_scale([small, large]) == (10 * 16.0 + 30 * 4.0) / 40 == 7.0
        assert logical_scale([large, small]) == 7.0

    def test_one_shared_scale_is_kept_exactly(self):
        # Σ Nᵢ·s / Σ Nᵢ need not round back to s; a shared scale is returned as is.
        inputs = [Dataset(n, records=_records(3), scale_factor=0.1) for n in "ab"]
        assert logical_scale(inputs) == 0.1
        assert logical_scale(inputs[:1]) == 0.1

    def test_inputs_without_records_and_no_inputs(self):
        empty = [Dataset("a", scale_factor=2.0), Dataset("b", scale_factor=5.0)]
        assert logical_scale(empty) == 5.0
        assert logical_scale([]) == 1.0


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


def _as_items(records):
    """A load's records as a multiset that ignores each dict's key order."""
    return sorted(repr(sorted(record.items())) for record in records)


class TestStatisticsAreFixedAtLoad:
    """``num_records`` / ``raw_bytes`` / the content fingerprint are taken once
    per ``load()`` and must say what a recount of the records says."""

    @given(_RECORD_LISTS, _RECORD_LISTS, _PARTITIONINGS, _SORT_FIELDS)
    # Equal records whose keys were inserted in another order: one fingerprint.
    @example(
        first=[{"k": 0, "v": None, "w": None}],
        second=[{"k": 0, "w": None, "v": None}],
        partitioning=PartitionScheme.unpartitioned(),
        sort_fields=(),
    )
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
        if _as_items(first) != _as_items(second):
            assert dataset.content_fingerprint != loaded_first
        else:
            assert dataset.content_fingerprint == loaded_first
        dataset.scale_factor = 0.25  # assigned after loading, read live
        key_oracle.assert_statistics_match_a_recount(dataset)

    @given(st.lists(st.fixed_dictionaries({"v": st.floats(-5, 25)}), max_size=80), _SORT_FIELDS)
    def test_range_partitioned_statistics_equal_a_recount(self, records, sort_fields):
        layout = DataLayout(
            partitioning=PartitionScheme.ranged("v", [0.0, 10.0, 20.0]), sort_fields=sort_fields
        )
        dataset = Dataset("d", records=records, layout=layout)
        assert len(dataset.partitions) == 4
        key_oracle.assert_statistics_match_a_recount(dataset)
        dataset.load(records[::2])
        key_oracle.assert_statistics_match_a_recount(dataset)

    def test_an_unloaded_dataset_is_empty_and_partitions_are_read_only(self):
        empty = Dataset("d")
        assert (len(empty.partitions), empty.num_records, empty.raw_bytes) == (0, 0, 0)
        partition = Dataset("d", records=_records()).partitions[0]
        assert isinstance(partition.records, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            partition.records = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            partition.raw_bytes = 0


class _CountingRecord(dict):
    """A record that counts how often its fields are walked."""

    walks = 0

    def items(self):
        type(self).walks += 1
        return super().items()


_RANGE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-5, 5),
    st.sampled_from((-0.0, 0.0, float("nan"), float("inf"))),
    st.text(max_size=3),
)


class TestFieldRangesAreFixedAtLoad:
    """``field_ranges`` is one pass per ``load()``, equal to the deleted
    per-field ``field_range`` (``tests/engine_oracle.py``) for every field."""

    def test_taken_once_per_load_and_reset_by_load(self):
        _CountingRecord.walks = 0
        records = [_CountingRecord(k=float(i % 5), v=float(i)) for i in range(30)]
        dataset = Dataset("d", records=records)
        walked_by_load = _CountingRecord.walks  # raw_bytes sizes each record once
        first = dataset.field_ranges
        assert _CountingRecord.walks == walked_by_load + 30
        assert dataset.field_ranges is first  # a second read walks no record
        assert _CountingRecord.walks == walked_by_load + 30
        with pytest.raises(TypeError):
            first["v"] = (0, 0)
        dataset.load(records[:10])
        assert dataset.field_ranges == {"k": (0.0, 4.0), "v": (0.0, 9.0)}
        assert dict(first) == {"k": (0.0, 4.0), "v": (0.0, 29.0)}

    def test_bool_is_not_numeric_and_the_first_of_equal_extremes_is_kept(self):
        dataset = Dataset(
            "d",
            records=[
                {"flag": True, "v": 0, "w": -0.0},
                {"flag": False, "v": 0.0, "w": 0},
                {"flag": True, "v": -0.0, "w": 0.0},
            ],
        )
        ranges = dataset.field_ranges
        assert "flag" not in ranges
        assert [repr(value) for value in ranges["v"]] == ["0", "0"]
        assert [repr(value) for value in ranges["w"]] == ["-0.0", "-0.0"]

    @given(
        st.lists(
            st.fixed_dictionaries({"k": _RANGE_VALUES}, optional={"v": _RANGE_VALUES, "w": _RANGE_VALUES}),
            max_size=60,
        ),
        _PARTITIONINGS,
    )
    def test_equal_the_per_field_oracle(self, records, partitioning):
        dataset = Dataset("d", records=records, layout=DataLayout(partitioning=partitioning))
        ranges = dataset.field_ranges
        for name in ("k", "v", "w"):
            expected = engine_oracle.field_range(dataset, name)
            if expected is None:
                assert name not in ranges
            else:
                assert repr(ranges[name]) == repr(expected)
                assert [type(v) for v in ranges[name]] == [type(v) for v in expected]


class TestInMemoryFileSystem:
    def test_put_get_roundtrip(self):
        fs = InMemoryFileSystem()
        fs.put(Dataset("a", records=_records()))
        assert fs.get("a").num_records == 30

    def test_missing_dataset_raises(self):
        with pytest.raises(ExecutionError):
            InMemoryFileSystem().get("nope")

    def test_exists(self):
        fs = InMemoryFileSystem()
        fs.put(Dataset("b", records=[]))
        fs.put(Dataset("a", records=[]))
        assert fs.exists("a") and not fs.exists("c")

    def test_peek_does_not_raise(self):
        fs = InMemoryFileSystem()
        assert fs.peek("missing") is None
