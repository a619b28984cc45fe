"""Partition functions for map output key-value pairs.

The paper's partition-function transformation (§3.4) can change a job's
partition function from the default hash partitioning to range partitioning,
change range split points, and change the fields used for per-partition
sorting (which is how intra-job vertical packing satisfies the grouping needs
of both producer and consumer with a single shuffle — Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Tuple

from repro.common.hashing import stable_hash
from repro.common.records import Record, sort_key_for


@dataclass(frozen=True)
class PartitionFunction:
    """Specification of how a job partitions and sorts its map output.

    Attributes
    ----------
    kind:
        ``"hash"`` (default in MapReduce) or ``"range"``.
    fields:
        The key fields partitioning is computed on.  With vertical packing
        this becomes ``Jp.K2 ∩ Jc.K2`` rather than the full key.
    sort_fields:
        The per-partition sort key.  Defaults to ``fields`` when empty; with
        vertical packing it becomes the combined key ``{∩, ∪ − ∩}``.
    split_points:
        Range boundaries when ``kind == "range"``, interpreted as lower
        bounds on the *first* field in ``fields``.
    """

    kind: str = "hash"
    fields: Tuple[str, ...] = ()
    sort_fields: Tuple[str, ...] = ()
    split_points: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "range"):
            raise ValueError(f"unknown partition function kind: {self.kind!r}")
        if self.kind == "range" and not self.split_points:
            raise ValueError("range partitioning requires split points")
        if self.kind == "range" and not self.fields:
            raise ValueError("range partitioning requires a partition field")

    @property
    def effective_sort_fields(self) -> Tuple[str, ...]:
        """Sort fields, defaulting to the partition fields."""
        return self.sort_fields if self.sort_fields else self.fields

    @cached_property
    def key(self) -> Tuple:
        """``(kind, fields, effective sort fields, split points)`` as plain
        tuples, built once per function: what a cache key pins of it."""
        return (
            self.kind,
            tuple(self.fields),
            tuple(self.effective_sort_fields),
            tuple(self.split_points),
        )

    def partition_index(self, key: Record, num_partitions: int) -> int:
        """Compute the reduce partition for a map output key."""
        if num_partitions <= 1:
            return 0
        if self.kind == "range":
            value = key.get(self.fields[0])
            index = 0
            for point in self.split_points:
                if value is not None and _numeric(value) >= point:
                    index += 1
                else:
                    break
            return min(index, num_partitions - 1)
        material = tuple(str(key.get(f)) for f in self.fields) if self.fields else tuple(
            sorted((k, str(v)) for k, v in key.items())
        )
        # A stable, python-hash-independent partitioner so runs are reproducible.
        return _stable_hash(material) % num_partitions

    def sort_key(self, key: Record) -> tuple:
        """Sort key tuple used to order pairs inside a partition."""
        return sort_key_for(key, self.effective_sort_fields)

    def satisfies(self, other: Optional["PartitionFunction"]) -> bool:
        """Whether this function satisfies the constraints imposed by ``other``.

        A constraint (e.g. placed by a previous intra-job packing on the
        producer's partition function) is satisfied when partitioning fields
        match and the constrained sort fields are a prefix of ours.
        """
        if other is None:
            return True
        if other.fields and tuple(other.fields) != tuple(self.fields):
            return False
        required = other.effective_sort_fields
        ours = self.effective_sort_fields
        return tuple(ours[: len(required)]) == tuple(required)

    def with_sort_fields(self, sort_fields: Sequence[str]) -> "PartitionFunction":
        """Copy with a different per-partition sort key."""
        return replace(self, sort_fields=tuple(sort_fields))

    def with_split_points(self, split_points: Sequence[float]) -> "PartitionFunction":
        """Copy converted to range partitioning with the given split points."""
        return replace(self, kind="range", split_points=tuple(split_points))

    @classmethod
    def default_hash(cls, fields: Sequence[str]) -> "PartitionFunction":
        """MapReduce's default: hash partition and sort on the full key K2."""
        return cls(kind="hash", fields=tuple(fields), sort_fields=tuple(fields))

    @classmethod
    def ranged(
        cls,
        field: str,
        split_points: Sequence[float],
        sort_fields: Sequence[str] = (),
    ) -> "PartitionFunction":
        """Range partitioning on ``field``."""
        return cls(
            kind="range",
            fields=(field,),
            sort_fields=tuple(sort_fields) if sort_fields else (field,),
            split_points=tuple(split_points),
        )


def _numeric(value: object) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    try:
        return float(str(value))
    except ValueError:
        return float(_stable_hash((str(value),)) % 10_000_000)


#: Backwards-compatible alias; the implementation lives in common.hashing so
#: the DFS layer can use the same function without importing mapreduce.
_stable_hash = stable_hash
