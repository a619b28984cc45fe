"""In-memory datasets standing in for files on a distributed file-system.

A :class:`Dataset` is the payload behind a dataset vertex of the workflow
DAG.  It holds records partitioned into :class:`DatasetPartition` objects
according to its :class:`~repro.dfs.layout.DataLayout`, plus the aggregate
statistics (record count, raw byte size) the cost model needs.  The
statistics are fixed when the records are stored (:meth:`Dataset.load`):
reading one never walks the records.

Datasets are deliberately simple: lists of dict records.  The evaluation
datasets are generated at megabyte scale (see ``repro.workloads.datagen``)
and the cluster cost model scales simulated time with byte counts, so the
behaviourally relevant quantities — selectivities, key cardinalities, and
read-sharing opportunities — are preserved at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.hashing import stable_hash
from repro.common.records import Record, record_size_bytes, sort_key_for
from repro.dfs.layout import DataLayout


@dataclass(frozen=True)
class DatasetPartition:
    """One stored partition (file) of a dataset.

    Read-only: the records are a tuple, in stored order, and must not be
    edited in place — :attr:`raw_bytes` is summed once, when the partition
    is built.  New contents are a new :meth:`Dataset.load`.
    """

    index: int
    records: Tuple[Record, ...] = ()
    #: Uncompressed serialized size of this partition.
    raw_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "raw_bytes", sum(map(record_size_bytes, self.records)))

    @property
    def num_records(self) -> int:
        """Number of records in this partition."""
        return len(self.records)


class Dataset:
    """A named, partitioned collection of records with a physical layout.

    :meth:`load` is the only writer of the contents: it stores the records
    read-only and fixes :attr:`num_records`, :attr:`raw_bytes` and (on first
    read) :attr:`content_fingerprint` for that load, so the search and the
    what-if engine read a dataset's statistics without touching a record.
    ``scale_factor`` stays a plain attribute, assigned freely after loading;
    the ``logical_*`` sizes multiply by its current value on every read.
    """

    def __init__(
        self,
        name: str,
        records: Optional[Iterable[Record]] = None,
        layout: Optional[DataLayout] = None,
        scale_factor: float = 1.0,
    ) -> None:
        self.name = name
        self.layout = layout or DataLayout()
        #: Multiplier applied to byte/record counts when reporting logical
        #: size.  Workloads generate MB-scale data but describe the logical
        #: dataset the paper used (hundreds of GB) through this factor.
        self.scale_factor = scale_factor
        self._store([])
        if records is not None:
            self.load(records)

    # ------------------------------------------------------------------ load
    def load(self, records: Iterable[Record]) -> None:
        """(Re)load the dataset contents, partitioning per the layout."""
        scheme = self.layout.partitioning
        if scheme.kind == "range" and scheme.ranges is not None:
            ranges = scheme.ranges
            buckets: List[List[Record]] = [[] for _ in range(ranges.num_partitions)]
            for record in records:
                buckets[ranges.partition_index(record.get(ranges.field))].append(record)
        elif scheme.kind == "hash":
            materialized = list(records)
            buckets = [[] for _ in range(max(1, min(16, len(materialized) // 64 + 1)))]
            for record in materialized:
                # Process-independent bucketing so a dataset loaded from the
                # same records always lands in the same partitions run to run.
                key = tuple(record.get(f) for f in scheme.fields)
                buckets[stable_hash(key) % len(buckets)].append(record)
        else:
            buckets = [list(records)]
        sort_fields = self.layout.sort_fields
        if sort_fields:
            for bucket in buckets:
                bucket.sort(key=lambda record: sort_key_for(record, sort_fields))
        self._store([DatasetPartition(i, bucket) for i, bucket in enumerate(buckets)])

    def _store(self, partitions: List[DatasetPartition]) -> None:
        """Bind the partitions and the statistics that hold while they are bound."""
        self._partitions = partitions
        self._num_records = sum(p.num_records for p in partitions)
        self._raw_bytes = sum(p.raw_bytes for p in partitions)
        self._content_fingerprint: Optional[int] = None

    # ------------------------------------------------------------ inspection
    @property
    def partitions(self) -> List[DatasetPartition]:
        """The stored partitions, in index order."""
        return self._partitions

    @property
    def num_partitions(self) -> int:
        """Number of stored partitions."""
        return len(self._partitions)

    @property
    def num_records(self) -> int:
        """Total record count (unscaled, i.e. the in-memory count)."""
        return self._num_records

    @property
    def raw_bytes(self) -> int:
        """Total uncompressed serialized size in bytes (unscaled)."""
        return self._raw_bytes

    @property
    def stored_bytes(self) -> float:
        """Bytes on the DFS after compression (unscaled)."""
        return self.layout.stored_bytes(self.raw_bytes)

    @property
    def logical_bytes(self) -> float:
        """Scaled byte size representing the paper-scale dataset."""
        return self.raw_bytes * self.scale_factor

    @property
    def logical_records(self) -> float:
        """Scaled record count representing the paper-scale dataset."""
        return self.num_records * self.scale_factor

    @property
    def content_fingerprint(self) -> int:
        """Order-independent :func:`stable_hash` of the records of this load.

        Hashed on first read and kept until the next :meth:`load`: a stored
        sub-result is a function of the bytes themselves, so its signature
        (:func:`repro.core.subresults.subgraph_signature`) pins them.
        """
        if self._content_fingerprint is None:
            self._content_fingerprint = stable_hash(
                sorted(str(sorted(r.items())) for p in self._partitions for r in p.records)
            )
        return self._content_fingerprint

    def records(self, partition_indexes: Optional[Sequence[int]] = None) -> Iterator[Record]:
        """Iterate records, optionally restricted to some partitions.

        Restricting to a subset of partition indexes is how partition pruning
        manifests at execution time.
        """
        for partition in self._partitions:
            if partition_indexes is not None and partition.index not in partition_indexes:
                continue
            for record in partition.records:
                yield dict(record)

    def all_records(self) -> List[Record]:
        """All records as a list of copies."""
        return list(self.records())

    def distinct_count(self, fields: Sequence[str]) -> int:
        """Number of distinct value combinations over ``fields``."""
        seen = set()
        for record in self.records():
            seen.add(tuple(str(record.get(f)) for f in fields))
        return len(seen)

    def field_range(self, field_name: str) -> Optional[tuple]:
        """(min, max) of a numeric field, or ``None`` if absent/non-numeric."""
        values = [
            record[field_name]
            for record in self.records()
            if isinstance(record.get(field_name), (int, float)) and not isinstance(record.get(field_name), bool)
        ]
        if not values:
            return None
        return (min(values), max(values))

    def relayout(self, layout: DataLayout) -> "Dataset":
        """Return a copy of this dataset stored under a different layout."""
        copy = Dataset(self.name, layout=layout, scale_factor=self.scale_factor)
        copy.load(self.all_records())
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(name={self.name!r}, records={self.num_records}, "
            f"partitions={self.num_partitions}, layout={self.layout.partitioning.kind})"
        )
