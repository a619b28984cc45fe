"""Property-based tests for the differential comparator's foundations.

The differential harness is only as trustworthy as (a) the record
canonicalization it compares with and (b) the seeded RNG substreams the
workflow generator derives its structure and data from.  Both are pinned
down here with seeded Hypothesis properties (no new dependencies).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import (
    canonical_record,
    canonicalize,
    diff_record_multisets,
    record_multiset,
    records_equal,
)
from repro.common.rng import DeterministicRNG

# Values that survive canonicalization without float-precision edge cases.
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_records = st.lists(
    st.dictionaries(st.sampled_from(["k", "g", "x", "y", "n"]), _values, max_size=5),
    max_size=12,
)


class TestCanonicalizationProperties:
    @given(_records, st.randoms(use_true_random=False))
    def test_multiset_is_order_insensitive(self, records, shuffler):
        shuffled = list(records)
        shuffler.shuffle(shuffled)
        assert record_multiset(records) == record_multiset(shuffled)
        assert records_equal(records, shuffled)

    @given(_records)
    def test_diff_of_identical_collections_is_empty(self, records):
        missing, extra = diff_record_multisets(records, list(records))
        assert missing == [] and extra == []

    @given(_records, st.dictionaries(st.sampled_from(["k", "x"]), _values, min_size=1, max_size=2))
    def test_dropped_record_is_reported_missing(self, records, dropped):
        left = records + [dropped]
        missing, extra = diff_record_multisets(left, records)
        assert len(missing) == 1 and extra == []
        assert canonical_record(missing[0], 6) == canonical_record(dropped, 6)

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_integral_floats_collapse_to_ints(self, n):
        assert canonicalize(float(n)) == canonicalize(n)
        assert records_equal([{"a": float(n)}], [{"a": n}])

    @given(st.floats(min_value=-900.0, max_value=900.0, allow_nan=False))
    def test_field_order_is_irrelevant(self, x):
        assert canonical_record({"a": x, "b": "s"}) == canonical_record({"b": "s", "a": x})

    @given(st.floats(min_value=-900.0, max_value=900.0, allow_nan=False))
    def test_tolerance_absorbs_accumulation_noise(self, x):
        # Perturbations far below the tolerance never split a record pair...
        noisy = x + 1e-9
        missing, extra = diff_record_multisets(
            [{"v": x}], [{"v": noisy}], float_digits=6, float_atol=1e-6
        )
        assert missing == [] and extra == []

    @given(st.floats(min_value=-900.0, max_value=900.0, allow_nan=False))
    def test_tolerance_still_separates_real_differences(self, x):
        # ...while differences well above it are always reported.
        missing, extra = diff_record_multisets(
            [{"v": x}], [{"v": x + 0.01}], float_digits=6, float_atol=1e-6
        )
        assert len(missing) == 1 and len(extra) == 1

    def test_type_tags_keep_heterogeneous_values_apart(self):
        assert canonicalize(True) != canonicalize(1)
        assert canonicalize(None) != canonicalize("")
        assert canonicalize("1") != canonicalize(1)

    @given(st.integers(min_value=2**53, max_value=2**60), st.integers(min_value=1, max_value=1000))
    def test_tolerance_never_swallows_integer_divergences(self, big, delta):
        # Ints above 2**53 collapse under float(); the reconciliation pass
        # must compare them exactly, not through the float tolerance.
        missing, extra = diff_record_multisets([{"a": big}], [{"a": big + delta}])
        assert len(missing) == 1 and len(extra) == 1


class TestRngSubstreamProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=12))
    def test_fork_is_deterministic(self, seed, label):
        a = DeterministicRNG(seed).fork(label)
        b = DeterministicRNG(seed).fork(label)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=20),
    )
    def test_substreams_are_insulated_from_sibling_draws(self, seed, sibling_draws):
        """Draws on one fork never shift the stream another fork sees."""
        quiet = DeterministicRNG(seed)
        noisy = DeterministicRNG(seed)
        noisy_sibling = noisy.fork("sibling")
        for _ in range(sibling_draws):
            noisy_sibling.random()
            noisy.random()  # parent draws must not leak either
        assert [quiet.fork("probe").random() for _ in range(3)] == [
            noisy.fork("probe").random() for _ in range(3)
        ]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_distinct_labels_give_distinct_streams(self, seed):
        rng = DeterministicRNG(seed)
        a = [rng.fork("alpha").random() for _ in range(3)]
        b = [rng.fork("beta").random() for _ in range(3)]
        assert a != b

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=8))
    def test_fork_label_order_does_not_matter(self, seed, label):
        """Forking is a pure function of (seed, label), not of fork order."""
        rng1 = DeterministicRNG(seed)
        rng1.fork("other")
        late = rng1.fork(label)
        early = DeterministicRNG(seed).fork(label)
        assert late.random() == early.random()

    def test_fork_streams_are_stable_across_processes(self):
        """Pin the derived seed: built-in hash() salting must not leak in.

        If this fails, DeterministicRNG.fork went back to a per-process hash
        and 'reproduce the divergence from seed S' silently broke.
        """
        assert DeterministicRNG(0).fork("x")._seed == DeterministicRNG(0).fork("x")._seed
        pinned = DeterministicRNG(0).fork("x")._seed
        assert pinned == 35557987, (
            "fork() seed derivation changed; update this pin only if the "
            "change is intentional and process-independent"
        )
