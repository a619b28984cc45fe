"""Record helpers.

A *record* throughout this package is a plain ``dict`` mapping field names to
values.  Key-value pairs exchanged between MapReduce functions are
``(key_record, value_record)`` tuples of such dicts.  Schema annotations
(paper §2.2) describe keys and values as sets of field names, so dict-based
records let the optimizer reason about "data flowing unchanged" by field name.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Record = Dict[str, object]
KeyValue = Tuple[Record, Record]


def read_only(mapping: Mapping) -> Mapping:
    """A read-only snapshot of ``mapping`` (item assignment raises ``TypeError``).

    The dict-valued fields of the frozen plan values are stored this way; an
    existing snapshot is returned as is, so ``dataclasses.replace`` of an
    untouched field copies nothing.
    """
    if type(mapping) is MappingProxyType:
        return mapping
    return MappingProxyType(dict(mapping))


def project(record: Mapping[str, object], fields: Iterable[str]) -> Record:
    """Return a new record containing only ``fields`` (missing fields skipped)."""
    return {field: record[field] for field in fields if field in record}


def merge(*records: Mapping[str, object]) -> Record:
    """Merge records left to right; later records win on field collisions."""
    merged: Record = {}
    for record in records:
        merged.update(record)
    return merged


def sort_key_for(record: Mapping[str, object], fields: Sequence[str]) -> tuple:
    """Build a tuple usable as a sort/group key over ``fields``.

    Values are wrapped with their type name so heterogeneous columns (e.g.
    ``None`` mixed with ints) still compare deterministically.
    """
    key = []
    for field in fields:
        value = record.get(field)
        if value is None:
            key.append((0, ""))
        elif isinstance(value, bool):
            key.append((1, int(value)))
        elif isinstance(value, (int, float)):
            key.append((2, float(value)))
        else:
            key.append((3, str(value)))
    return tuple(key)


def record_size_bytes(record: Mapping[str, object]) -> int:
    """Rough serialized size of a record, used for byte-level dataflow stats.

    The estimate mirrors a simple text serialization: 8 bytes per numeric
    field, string length for strings, plus 2 bytes of per-field overhead.
    """
    size = 0
    for field, value in record.items():
        size += 2
        if value is None:
            size += 1
        elif isinstance(value, (int, float, bool)):
            size += 8
        else:
            size += len(str(value))
        size += len(field) // 4  # amortized field-name overhead
    return max(size, 1)


def canonicalize(value: object, float_digits: int = 9) -> tuple:
    """Map a value to a totally ordered, type-tagged canonical representation.

    Floats are rounded to ``float_digits`` decimal places (integral floats
    collapse to ints) so results that differ only by floating-point
    accumulation order — which MapReduce transformations legitimately change —
    canonicalize identically.
    """
    if value is None:
        return ("none", "")
    if isinstance(value, bool):
        return ("bool", str(value))
    if isinstance(value, float) and value.is_integer():
        return ("num", int(value))
    if isinstance(value, float):
        return ("num", round(value, float_digits))
    if isinstance(value, int):
        return ("num", value)
    return ("str", str(value))


def canonical_record(record: Mapping[str, object], float_digits: int = 9) -> tuple:
    """Canonical, hashable form of one record (field order insensitive)."""
    return tuple(sorted((k, canonicalize(v, float_digits)) for k, v in record.items()))


def record_multiset(
    records: Iterable[Mapping[str, object]],
    float_digits: int = 9,
) -> "Counter[tuple]":
    """Multiset (canonical record -> count) of a record collection.

    This is the canonical form the differential-execution harness compares:
    order-insensitive, field-order-insensitive, and float-tolerant.
    """
    return Counter(canonical_record(record, float_digits) for record in records)


def records_equal(
    left: Iterable[Mapping[str, object]],
    right: Iterable[Mapping[str, object]],
    float_digits: int = 9,
) -> bool:
    """Order-insensitive multiset equality of two record collections.

    Used by correctness tests to check that a transformed plan P+ produces
    the same result as the original plan P−.
    """
    return record_multiset(left, float_digits) == record_multiset(right, float_digits)


def diff_record_multisets(
    reference: Iterable[Mapping[str, object]],
    candidate: Iterable[Mapping[str, object]],
    float_digits: int = 6,
    float_atol: float = 1e-6,
) -> Tuple[List[Record], List[Record]]:
    """Records present in one collection but not the other, tolerance-aware.

    Returns ``(missing, extra)``: records (as plain dicts rebuilt from their
    canonical form) the candidate is missing relative to the reference, and
    records it has in surplus.  After the exact (quantized) multiset diff, a
    reconciliation pass pairs off missing/extra records whose non-float fields
    match exactly and whose float fields agree within ``float_atol`` — this
    absorbs quantization-boundary artifacts where two nearly equal floats
    round to adjacent grid points.
    """
    left = record_multiset(reference, float_digits)
    right = record_multiset(candidate, float_digits)
    missing_canonical = list((left - right).elements())
    extra_canonical = list((right - left).elements())

    surviving_missing: List[tuple] = []
    for canonical in missing_canonical:
        match_index = None
        for index, other in enumerate(extra_canonical):
            if _approximately_equal(canonical, other, float_atol):
                match_index = index
                break
        if match_index is None:
            surviving_missing.append(canonical)
        else:
            extra_canonical.pop(match_index)

    return (
        [_record_from_canonical(c) for c in surviving_missing],
        [_record_from_canonical(c) for c in extra_canonical],
    )


def _approximately_equal(left: tuple, right: tuple, float_atol: float) -> bool:
    """Whether two canonical records match up to ``float_atol`` on numerics."""
    if len(left) != len(right):
        return False
    for (l_field, l_value), (r_field, r_value) in zip(left, right):
        if l_field != r_field or l_value[0] != r_value[0]:
            return False
        if l_value[0] == "num":
            l_num, r_num = l_value[1], r_value[1]
            if isinstance(l_num, int) and isinstance(r_num, int):
                # Exact integers stay exact: float() would collapse distinct
                # ints above 2**53 and hide a real divergence behind the
                # tolerance meant for float accumulation noise.
                if l_num != r_num:
                    return False
            elif abs(float(l_num) - float(r_num)) > float_atol:
                return False
        elif l_value != r_value:
            return False
    return True


def _record_from_canonical(canonical: tuple) -> Record:
    """Rebuild a plain record dict from its canonical form (for reporting)."""
    rebuilt: Record = {}
    for field, (tag, value) in canonical:
        if tag == "none":
            rebuilt[field] = None
        elif tag == "bool":
            rebuilt[field] = value == "True"
        else:
            rebuilt[field] = value
    return rebuilt
