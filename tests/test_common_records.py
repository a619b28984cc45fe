"""Tests for record helpers in repro.common.records."""

from enum import IntEnum

import pytest
from hypothesis import example, given, strategies as st

from repro.common.records import (
    canonical_record,
    diff_record_multisets,
    read_only,
    record_size_bytes,
    records_equal,
    records_size_bytes,
    sort_key_for,
)
from tests import engine_oracle


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


class TestReadOnly:
    def test_assignment_raises(self):
        frozen = read_only({"a": 1})
        with pytest.raises(TypeError):
            frozen["a"] = 2

    def test_is_a_snapshot_of_the_source(self):
        source = {"a": 1}
        frozen = read_only(source)
        source["a"] = 2
        source["b"] = 3
        assert dict(frozen) == {"a": 1}

    def test_an_existing_snapshot_is_returned_as_is(self):
        frozen = read_only({"a": 1})
        assert read_only(frozen) is frozen


class TestCanonicalRecord:
    def test_field_order_insensitive(self):
        assert canonical_record({"a": 1, "b": "x"}) == canonical_record({"b": "x", "a": 1})

    def test_hashable_and_float_rounded(self):
        left = canonical_record({"a": 0.1 + 0.2, "b": None})
        right = canonical_record({"b": None, "a": 0.3})
        assert left == right and hash(left) == hash(right)


class TestDiffReport:
    def test_reports_missing_and_extra_as_plain_records(self):
        missing, extra = diff_record_multisets(
            [{"k": "a", "flag": True, "gap": None}, {"k": "b", "flag": False, "gap": 1}],
            [{"k": "b", "flag": False, "gap": 1}, {"k": "c", "flag": False, "gap": None}],
        )
        assert missing == [{"k": "a", "flag": True, "gap": None}]
        assert extra == [{"k": "c", "flag": False, "gap": None}]

    def test_counts_duplicates(self):
        missing, extra = diff_record_multisets([{"a": 1}, {"a": 1}], [{"a": 1}])
        assert missing == [{"a": 1}] and extra == []

    def test_tolerance_pairs_off_only_matching_non_float_fields(self):
        # Within float_atol on the float, but the string differs: no pairing.
        missing, extra = diff_record_multisets(
            [{"k": "a", "v": 1.0000001}], [{"k": "b", "v": 1.0000002}], float_digits=9
        )
        assert missing == [{"k": "a", "v": 1.0000001}]
        assert extra == [{"k": "b", "v": 1.0000002}]


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

    @given(st.lists(record_strategy, max_size=8), st.lists(record_strategy, max_size=8))
    def test_diff_is_empty_exactly_when_records_equal(self, left, right):
        missing, extra = diff_record_multisets(left, right)
        assert (missing == [] and extra == []) == records_equal(left, right)

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
#: Values outside every fast path, measured by their ``str()``.
_OBJECTS = st.one_of(
    st.builds(object),
    st.complex_numbers(allow_nan=False, max_magnitude=1e6),
    st.frozensets(st.integers(0, 3), max_size=2),
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

    @given(st.lists(st.dictionaries(_FIELDS, _MIXED_VALUES | _OBJECTS, max_size=4), max_size=6))
    @example([])
    @example([{}, {}, {"a": None}])
    @example([{"a": Tagged("xy"), "bb": True}, {}, {"field_c": Level.HIGH, "a": object()}])
    def test_records_size_bytes_is_the_sum_of_the_oracle(self, records):
        ours = records_size_bytes(records)
        oracle = sum(engine_oracle.record_size_bytes(record) for record in records)
        assert type(ours) is int and ours == oracle
        assert records_size_bytes(iter(records)) == ours

    @given(
        st.dictionaries(_FIELDS, _MIXED_VALUES, max_size=4),
        st.lists(_FIELDS, max_size=5),
    )
    @example({"a": Tagged("xy"), "bb": False}, ["a", "bb", "missing"])
    @example({"a": Level.LOW, "bb": float("nan"), "field_c": -0.0}, ["field_c", "bb", "a"])
    def test_sort_key_for(self, record, fields):
        ours, oracle = sort_key_for(record, fields), engine_oracle.sort_key_for(record, fields)
        assert _typed(ours) == _typed(oracle)
