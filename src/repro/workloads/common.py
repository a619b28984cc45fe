"""Shared map/reduce function factories used by the evaluation workflows.

The factories return closures with the ``map(key, value)`` /
``reduce(key, values)`` signatures expected by
:mod:`repro.mapreduce.pipeline`.  They cover the recurring patterns of the
paper's workloads: key-by projection, filtering, group-and-aggregate
(sum/max/min/avg/count), joins on a common key, distinct counting, sampling,
and top-K selection.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.records import KeyValue, Record


# ---------------------------------------------------------------------------
# Map-side factories
# ---------------------------------------------------------------------------


def key_by(
    key_fields: Sequence[str],
    value_fields: Optional[Sequence[str]] = None,
    add_counter: Optional[str] = None,
    filter_fn: Optional[Callable[[Record], bool]] = None,
) -> Callable[[Record, Record], Iterable[KeyValue]]:
    """Map function that keys each record by ``key_fields``.

    ``value_fields`` restricts the emitted value (default: the whole record);
    ``add_counter`` adds a constant ``1`` field useful for counting via a
    summing reducer; ``filter_fn`` drops records for which it returns False.
    """
    key_fields = tuple(key_fields)
    value_fields = tuple(value_fields) if value_fields is not None else None

    def map_fn(key: Record, value: Record) -> Iterable[KeyValue]:
        if filter_fn is not None and not filter_fn(value):
            return
        out_key = {f: value.get(f) for f in key_fields}
        if value_fields is None:
            out_value = dict(value)
        else:
            out_value = {f: value.get(f) for f in value_fields}
        if add_counter is not None:
            out_value[add_counter] = 1.0
        yield out_key, out_value

    return map_fn


def range_filter(field: str, low: float, high: float) -> Callable[[Record], bool]:
    """Predicate keeping records whose ``field`` falls in ``[low, high)``."""

    def predicate(record: Record) -> bool:
        value = record.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        return low <= float(value) < high

    return predicate


def tagged_join_map(
    join_fields: Sequence[str],
    side_specs: Mapping[str, Tuple[str, Sequence[str]]],
) -> Callable[[Record, Record], Iterable[KeyValue]]:
    """Map function for a repartition join over datasets with distinct schemas.

    ``side_specs`` maps a side name to ``(marker_field, value_fields)``: a
    record belongs to the side whose ``marker_field`` it contains.  The map
    output value carries a ``__side`` tag so the join reducer can separate the
    sides.
    """
    join_fields = tuple(join_fields)

    def map_fn(key: Record, value: Record) -> Iterable[KeyValue]:
        for side, (marker_field, value_fields) in side_specs.items():
            if marker_field in value:
                out_key = {f: value.get(f) for f in join_fields}
                out_value = {f: value.get(f) for f in value_fields}
                out_value["__side"] = side
                yield out_key, out_value
                return

    return map_fn


# ---------------------------------------------------------------------------
# Reduce-side factories
# ---------------------------------------------------------------------------


def sum_reduce(
    field: str,
    out_field: str,
    extra_fields: Sequence[str] = (),
) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer summing ``field`` over the group into ``out_field``."""
    extra_fields = tuple(extra_fields)

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        total = sum(float(v.get(field, 0.0) or 0.0) for v in values)
        out: Record = {out_field: total}
        for extra in extra_fields:
            if values:
                out[extra] = values[0].get(extra)
        yield key, out

    return reduce_fn


def sum_combiner(field: str) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Combiner that partially sums ``field`` (compatible with :func:`sum_reduce`)."""

    def combine_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        total = sum(float(v.get(field, 0.0) or 0.0) for v in values)
        yield key, {field: total}

    return combine_fn


def aggregate_reduce(
    aggregates: Mapping[str, Tuple[str, str]],
) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer computing several aggregates at once.

    ``aggregates`` maps output field -> (operation, input field) where the
    operation is one of ``sum``, ``max``, ``min``, ``avg``, ``count``.
    """

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        out: Record = {}
        for out_field, (operation, in_field) in aggregates.items():
            numbers = [
                float(v.get(in_field, 0.0) or 0.0)
                for v in values
                if isinstance(v.get(in_field), (int, float))
            ]
            if operation == "count":
                out[out_field] = float(len(values))
            elif not numbers:
                out[out_field] = 0.0
            elif operation == "sum":
                out[out_field] = sum(numbers)
            elif operation == "max":
                out[out_field] = max(numbers)
            elif operation == "min":
                out[out_field] = min(numbers)
            elif operation == "avg":
                out[out_field] = sum(numbers) / len(numbers)
            else:
                raise ValueError(f"unknown aggregate operation {operation!r}")
        yield key, out

    return reduce_fn


def collect_reduce(
    field: str,
    out_field: str,
    separator: str = "|",
) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer concatenating the (sorted) values of ``field`` into one string."""

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        items = sorted(str(v.get(field)) for v in values if v.get(field) is not None)
        yield key, {out_field: separator.join(items)}

    return reduce_fn


def join_reduce(
    left_side: str,
    right_side: str,
    output_fields: Sequence[str],
) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer producing the inner join of the two sides of a repartition join.

    Expects values produced by :func:`tagged_join_map`.  The output record
    merges the join key with the requested fields from both sides.
    """
    output_fields = tuple(output_fields)

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        left = [v for v in values if v.get("__side") == left_side]
        right = [v for v in values if v.get("__side") == right_side]
        for left_value in left:
            for right_value in right:
                merged = dict(key)
                merged.update({k: v for k, v in left_value.items() if k != "__side"})
                merged.update({k: v for k, v in right_value.items() if k != "__side"})
                out = {f: merged.get(f) for f in output_fields}
                yield dict(key), out

    return reduce_fn


def distinct_count_reduce(
    field: str,
    out_field: str,
) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer counting distinct values of ``field`` within the group."""

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        distinct = {str(v.get(field)) for v in values}
        yield key, {out_field: float(len(distinct))}

    return reduce_fn


def top_k_reduce(
    k: int,
    score_field: str,
    carry_fields: Sequence[str],
    descending: bool = True,
) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer emitting the top ``k`` values by ``score_field`` (global top-K
    when the job runs a single reduce task)."""
    carry_fields = tuple(carry_fields)

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        ranked = sorted(
            values,
            key=lambda v: float(v.get(score_field, 0.0) or 0.0),
            reverse=descending,
        )
        for position, value in enumerate(ranked[:k], start=1):
            out = {f: value.get(f) for f in carry_fields}
            out[score_field] = value.get(score_field)
            out["position"] = float(position)
            yield dict(key), out

    return reduce_fn


def sample_split_points_reduce(
    field: str,
    num_splits: int,
) -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer deriving ``num_splits`` split points from the group's values.

    Used by the "sample and create partition split points" jobs of the Social
    Network Analysis and Log Analysis workflows.
    """

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        numbers = sorted(
            float(v.get(field, 0.0) or 0.0)
            for v in values
            if isinstance(v.get(field), (int, float))
        )
        if not numbers:
            return
        for index in range(1, num_splits + 1):
            position = min(len(numbers) - 1, int(len(numbers) * index / (num_splits + 1)))
            yield dict(key), {"split_index": float(index), "split_point": numbers[position]}

    return reduce_fn


def identity_reduce() -> Callable[[Record, List[Record]], Iterable[KeyValue]]:
    """Reducer that forwards every value of the group unchanged."""

    def reduce_fn(key: Record, values: List[Record]) -> Iterable[KeyValue]:
        for value in values:
            yield dict(key), dict(value)

    return reduce_fn
