"""Tests for record helpers in repro.common.records."""

from enum import IntEnum

import pytest
from hypothesis import example, given, strategies as st

from repro.common.records import (
    merge,
    project,
    record_size_bytes,
    records_equal,
    sort_key_for,
)
from tests import engine_oracle


class TestProject:
    def test_keeps_only_requested_fields(self):
        record = {"a": 1, "b": 2, "c": 3}
        assert project(record, ["a", "c"]) == {"a": 1, "c": 3}

    def test_missing_fields_are_skipped(self):
        assert project({"a": 1}, ["a", "zzz"]) == {"a": 1}

    def test_empty_field_list(self):
        assert project({"a": 1}, []) == {}

    def test_does_not_mutate_input(self):
        record = {"a": 1}
        project(record, ["a"])
        assert record == {"a": 1}


class TestMerge:
    def test_later_records_win(self):
        assert merge({"a": 1, "b": 2}, {"b": 3}) == {"a": 1, "b": 3}

    def test_merge_of_nothing_is_empty(self):
        assert merge() == {}

    def test_three_way_merge(self):
        assert merge({"a": 1}, {"b": 2}, {"c": 3}) == {"a": 1, "b": 2, "c": 3}


class TestSortKey:
    def test_orders_numerically(self):
        low = sort_key_for({"x": 2}, ["x"])
        high = sort_key_for({"x": 10}, ["x"])
        assert low < high

    def test_none_sorts_before_values(self):
        none_key = sort_key_for({"x": None}, ["x"])
        value_key = sort_key_for({"x": -100}, ["x"])
        assert none_key < value_key

    def test_missing_field_treated_as_none(self):
        assert sort_key_for({}, ["x"]) == sort_key_for({"x": None}, ["x"])

    def test_strings_and_numbers_do_not_collide(self):
        assert sort_key_for({"x": "5"}, ["x"]) != sort_key_for({"x": 5}, ["x"])

    def test_multi_field_ordering(self):
        a = sort_key_for({"x": 1, "y": 9}, ["x", "y"])
        b = sort_key_for({"x": 1, "y": 10}, ["x", "y"])
        c = sort_key_for({"x": 2, "y": 0}, ["x", "y"])
        assert a < b < c

    def test_bool_and_int_are_distinguishable(self):
        assert sort_key_for({"x": True}, ["x"]) != sort_key_for({"x": 1}, ["x"])


class TestRecordSize:
    def test_size_positive(self):
        assert record_size_bytes({"a": 1}) > 0

    def test_larger_strings_cost_more(self):
        small = record_size_bytes({"a": "x"})
        big = record_size_bytes({"a": "x" * 100})
        assert big > small

    def test_more_fields_cost_more(self):
        assert record_size_bytes({"a": 1, "b": 2}) > record_size_bytes({"a": 1})

    def test_empty_record_has_minimum_size(self):
        assert record_size_bytes({}) >= 1


class TestRecordsEqual:
    def test_order_insensitive(self):
        left = [{"a": 1}, {"a": 2}]
        right = [{"a": 2}, {"a": 1}]
        assert records_equal(left, right)

    def test_multiset_semantics(self):
        assert not records_equal([{"a": 1}, {"a": 1}], [{"a": 1}])

    def test_float_int_equivalence(self):
        assert records_equal([{"a": 1.0}], [{"a": 1}])

    def test_near_floats_are_rounded(self):
        assert records_equal([{"a": 0.1 + 0.2}], [{"a": 0.3}])

    def test_detects_differences(self):
        assert not records_equal([{"a": 1}], [{"a": 2}])

    def test_extra_field_breaks_equality(self):
        assert not records_equal([{"a": 1}], [{"a": 1, "b": 2}])


record_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.one_of(st.integers(-1000, 1000), st.text(max_size=5)),
    max_size=3,
)


class TestRecordProperties:
    @given(st.lists(record_strategy, max_size=20))
    def test_records_equal_reflexive(self, records):
        assert records_equal(records, list(records))

    @given(st.lists(record_strategy, max_size=20))
    def test_records_equal_permutation_invariant(self, records):
        assert records_equal(records, list(reversed(records)))

    @given(record_strategy, st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))
    def test_projection_is_subset(self, record, fields):
        projected = project(record, fields)
        assert set(projected).issubset(set(record))
        for key, value in projected.items():
            assert record[key] == value

    @given(st.lists(record_strategy, min_size=1, max_size=10))
    def test_sort_key_total_order(self, records):
        keys = [sort_key_for(r, ["a", "b"]) for r in records]
        assert sorted(keys) == sorted(keys, key=lambda k: k)


class Tagged(str):
    """A ``str`` subclass whose ``str()`` is not itself: measured by ``str()``."""

    def __str__(self):
        return f"<{str.__str__(self)}>"


class Level(IntEnum):
    LOW = 1
    HIGH = 7


_MIXED_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((-0.0, 0.0, float("inf"), float("-inf"), float("nan"))),
    st.text(max_size=6),
    st.text(max_size=6).map(Tagged),
    st.sampled_from(tuple(Level)),
    st.lists(st.one_of(st.integers(-9, 9), st.text(max_size=3), st.none()), max_size=3),
)
_FIELDS = st.sampled_from(("a", "bb", "field_c", "a_much_longer_name"))


def _typed(value):
    """``value`` with the type of every part: ``nan`` / ``-0.0`` compare by ``repr``."""
    if isinstance(value, tuple):
        return ("tuple", tuple(_typed(part) for part in value))
    return (type(value).__qualname__, repr(value))


class TestHelpersEqualTheirOracle:
    """The exact-type fast paths return what the ``isinstance`` chain in
    ``tests/engine_oracle.py`` returns, with the same types."""

    @given(st.dictionaries(_FIELDS, _MIXED_VALUES, max_size=4))
    @example({"a": Tagged("xy"), "bb": True, "field_c": Level.HIGH})
    @example({"a": -0.0, "bb": float("nan"), "field_c": 2**60 + 1})
    def test_record_size_bytes(self, record):
        ours, oracle = record_size_bytes(record), engine_oracle.record_size_bytes(record)
        assert _typed(ours) == _typed(oracle)

    @given(
        st.dictionaries(_FIELDS, _MIXED_VALUES, max_size=4),
        st.lists(_FIELDS, max_size=5),
    )
    @example({"a": Tagged("xy"), "bb": False}, ["a", "bb", "missing"])
    @example({"a": Level.LOW, "bb": float("nan"), "field_c": -0.0}, ["field_c", "bb", "a"])
    def test_sort_key_for(self, record, fields):
        ours, oracle = sort_key_for(record, fields), engine_oracle.sort_key_for(record, fields)
        assert _typed(ours) == _typed(oracle)
