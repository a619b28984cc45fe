"""Partition functions for map output key-value pairs.

The paper's partition-function transformation (§3.4) can change a job's
partition function from the default hash partitioning to range partitioning,
change range split points, and change the fields used for per-partition
sorting (which is how intra-job vertical packing satisfies the grouping needs
of both producer and consumer with a single shuffle — Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.common.hashing import stable_hash
from repro.common.records import Record


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

    def placer(
        self, num_partitions: int, hashes: Optional[Dict[tuple, int]] = None
    ) -> Callable[[Record], int]:
        """The reduce partition of each map output key over ``num_partitions``,
        for one shuffle.

        A hash placement is a function of the ``str()`` of each key field
        (what :func:`stable_hash` folds), so the placer hashes each distinct
        material once, into ``hashes`` (material -> hash; a fresh table
        unless the caller shares one, as a job's shuffle and output loads
        do).  The table is keyed on those strings, not on the values, so
        ``1``, ``1.0`` and ``True`` (one dict key) keep their own placements.
        """
        if num_partitions <= 1:
            return lambda key: 0
        if self.kind == "range":
            return lambda key: self._range_index(key, num_partitions)
        fields = self.fields
        if hashes is None:
            hashes = {}

        def place(key: Record) -> int:
            material = tuple([str(key.get(f)) for f in fields]) if fields else tuple(
                sorted((k, str(v)) for k, v in key.items())
            )
            hashed = hashes.get(material)
            if hashed is None:
                # A stable, python-hash-independent partitioner so runs are reproducible.
                hashed = hashes[material] = stable_hash(material)
            return hashed % num_partitions

        return place

    def _range_index(self, key: Record, num_partitions: int) -> int:
        value = key.get(self.fields[0])
        index = 0
        for point in self.split_points:
            if value is not None and _numeric(value) >= point:
                index += 1
            else:
                break
        return min(index, num_partitions - 1)

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

    @classmethod
    def default_hash(cls, fields: Sequence[str]) -> "PartitionFunction":
        """MapReduce's default: hash partition and sort on the full key K2."""
        return cls(kind="hash", fields=tuple(fields), sort_fields=tuple(fields))


def _numeric(value: object) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    try:
        return float(str(value))
    except ValueError:
        return float(stable_hash((str(value),)) % 10_000_000)
