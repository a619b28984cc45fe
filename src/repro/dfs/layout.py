"""Physical layout descriptors for datasets stored in the simulated DFS.

The paper models each dataset vertex as ``D = <d, l, a>`` where the layout
``l`` controls how the dataset is partitioned and/or compressed in the
distributed file-system (§2.1).  Stubby's partition-function transformation
changes the layout of a producer's output dataset — in particular switching
hash partitioning to range partitioning so consumer jobs with filter
annotations can prune partitions (§3.4, Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class RangePartitioning:
    """Range partitioning of a dataset on one field.

    ``split_points`` are the lower bounds of partitions 1..n-1: a record with
    field value ``v`` lands in partition ``i`` where ``i`` is the number of
    split points ``<= v``.
    """

    field: str
    split_points: Tuple[float, ...]

    def partition_index(self, value: object) -> int:
        """Partition index for a field value (numeric comparison)."""
        if value is None:
            return 0
        index = 0
        for point in self.split_points:
            if _as_number(value) >= point:
                index += 1
            else:
                break
        return index

    @property
    def num_partitions(self) -> int:
        """Total number of range partitions."""
        return len(self.split_points) + 1

    def partitions_overlapping(self, low: float, high: float) -> Tuple[int, ...]:
        """Partition indexes that can contain values in ``[low, high)``.

        This is the primitive behind partition pruning: a consumer job whose
        filter annotation restricts the field to ``[low, high)`` only needs
        to read the returned partitions.
        """
        if high <= low:
            return ()
        lo_index = self.partition_index(low)
        # the partition containing high-epsilon
        hi_index = self.partition_index(high)
        if hi_index > 0 and self.split_points and high <= self.split_points[min(hi_index, len(self.split_points)) - 1]:
            hi_index -= 1
        hi_index = min(hi_index, self.num_partitions - 1)
        return tuple(range(lo_index, hi_index + 1))


def _as_number(value: object) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value))
    except ValueError:
        # Fall back to a stable hash-based ordering for non-numeric values.
        return float(hash(str(value)) % 10_000_000)


@dataclass(frozen=True)
class PartitionScheme:
    """How a dataset is split into DFS partitions.

    ``kind`` is ``"hash"``, ``"range"``, or ``"none"`` (a single unpartitioned
    blob or block-split file).  ``fields`` is the partitioning key; ``ranges``
    carries the split points when ``kind == "range"``.
    """

    kind: str = "none"
    fields: Tuple[str, ...] = ()
    ranges: Optional[RangePartitioning] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "hash", "range"):
            raise ValueError(f"unknown partition scheme kind: {self.kind!r}")
        if self.kind == "range" and self.ranges is None:
            raise ValueError("range partitioning requires split points")
        if self.kind == "hash" and not self.fields:
            raise ValueError("hash partitioning requires at least one field")

    @classmethod
    def hashed(cls, *fields: str) -> "PartitionScheme":
        """Hash partitioning on the given fields."""
        return cls(kind="hash", fields=tuple(fields))

    @classmethod
    def ranged(cls, field: str, split_points: Sequence[float]) -> "PartitionScheme":
        """Range partitioning on ``field`` with the given split points."""
        ranges = RangePartitioning(field=field, split_points=tuple(split_points))
        return cls(kind="range", fields=(field,), ranges=ranges)

    @classmethod
    def unpartitioned(cls) -> "PartitionScheme":
        """No logical partitioning (plain block-split file)."""
        return cls(kind="none")


@dataclass(frozen=True)
class DataLayout:
    """Full physical design of a dataset.

    Attributes
    ----------
    partitioning:
        Logical partitioning scheme of the stored files.
    sort_fields:
        Fields each partition is sorted on (empty when unsorted).
    compressed:
        Whether the stored bytes are compressed.
    compression_ratio:
        Compressed size / uncompressed size when ``compressed`` is true.
    block_size_mb:
        DFS block size used to derive the default number of map tasks.
    """

    partitioning: PartitionScheme = field(default_factory=PartitionScheme.unpartitioned)
    sort_fields: Tuple[str, ...] = ()
    compressed: bool = False
    compression_ratio: float = 0.35
    block_size_mb: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")
        if self.block_size_mb <= 0:
            raise ValueError("block_size_mb must be positive")

    def stored_bytes(self, raw_bytes: float) -> float:
        """Bytes occupied on the DFS after optional compression."""
        if self.compressed:
            return raw_bytes * self.compression_ratio
        return raw_bytes
