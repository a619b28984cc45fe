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
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.hashing import stable_hash
from repro.common.records import Record, read_only, records_size_bytes, sort_key_for
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
        object.__setattr__(self, "raw_bytes", records_size_bytes(self.records))

    @property
    def num_records(self) -> int:
        """Number of records in this partition."""
        return len(self.records)


class Dataset:
    """A named, partitioned collection of records with a physical layout.

    :meth:`load` is the only writer of the contents: it stores the records
    read-only and fixes :attr:`num_records`, :attr:`raw_bytes` and (on first
    read) :attr:`content_fingerprint` and :attr:`field_ranges` for that load,
    so the search, the what-if engine and the local engine read a dataset's
    statistics without touching a record.
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
    def load(
        self, records: Iterable[Record], hashes: Optional[Dict[tuple, int]] = None
    ) -> None:
        """(Re)load the dataset contents, partitioning per the layout.

        A hash layout places a record by the :func:`stable_hash` of its key
        material (the ``str()`` of each key field, what the hash folds) and
        hashes each distinct material once, into ``hashes`` (material ->
        hash): the job that writes the dataset passes the table its shuffle
        filled, any other load gets a fresh one.  A single bucket hashes
        nothing.
        """
        scheme = self.layout.partitioning
        if scheme.kind == "range" and scheme.ranges is not None:
            ranges = scheme.ranges
            buckets: List[List[Record]] = [[] for _ in range(ranges.num_partitions)]
            for record in records:
                buckets[ranges.partition_index(record.get(ranges.field))].append(record)
        elif scheme.kind == "hash":
            materialized = list(records)
            count = max(1, min(16, len(materialized) // 64 + 1))
            if count == 1:
                buckets = [materialized]
            else:
                buckets = [[] for _ in range(count)]
                # Process-independent bucketing so a dataset loaded from the
                # same records always lands in the same partitions run to run.
                fields = scheme.fields
                if hashes is None:
                    hashes = {}
                for record in materialized:
                    material = tuple([str(record.get(f)) for f in fields])
                    hashed = hashes.get(material)
                    if hashed is None:
                        hashed = hashes[material] = stable_hash(material)
                    buckets[hashed % count].append(record)
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
        self._field_ranges: Optional[Mapping[str, Tuple[object, object]]] = None

    # ------------------------------------------------------------ inspection
    @property
    def partitions(self) -> List[DatasetPartition]:
        """The stored partitions, in index order."""
        return self._partitions

    @property
    def num_records(self) -> int:
        """Total record count (unscaled, i.e. the in-memory count)."""
        return self._num_records

    @property
    def raw_bytes(self) -> int:
        """Total uncompressed serialized size in bytes (unscaled)."""
        return self._raw_bytes

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

    def records(self) -> Iterator[Record]:
        """Iterate copies of the records, in stored (partition, offset) order."""
        for partition in self._partitions:
            for record in partition.records:
                yield dict(record)

    def all_records(self) -> List[Record]:
        """All records as a list of copies."""
        return list(self.records())

    @property
    def field_ranges(self) -> Mapping[str, Tuple[object, object]]:
        """``field -> (min, max)`` over the numeric (``int`` / ``float``, not
        ``bool``) values of each field, read-only.

        Taken in one pass on first read and kept until the next :meth:`load`.
        A field with no numeric value has no entry; of equal extremes (``0``
        and ``0.0``) the first in stored order is kept, as ``min`` / ``max``
        keep it.
        """
        if self._field_ranges is None:
            ranges: Dict[str, List[object]] = {}
            for partition in self._partitions:
                for record in partition.records:
                    for name, value in record.items():
                        kind = type(value)
                        if kind is not int and kind is not float and (
                            isinstance(value, bool) or not isinstance(value, (int, float))
                        ):
                            continue
                        extremes = ranges.get(name)
                        if extremes is None:
                            ranges[name] = [value, value]
                        elif value < extremes[0]:
                            extremes[0] = value
                        elif value > extremes[1]:
                            extremes[1] = value
            self._field_ranges = read_only({name: tuple(pair) for name, pair in ranges.items()})
        return self._field_ranges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(name={self.name!r}, records={self.num_records}, "
            f"partitions={self.num_partitions}, layout={self.layout.partitioning.kind})"
        )


def logical_scale(inputs: Sequence[Dataset]) -> float:
    """``Σ Nᵢ·sᵢ / Σ Nᵢ``: logical records per stored record of a job reading ``inputs``.

    Weighted by the *whole* inputs, whatever partitions a job prunes, so a
    logical output has one scale under every plan.  One shared scale is
    returned exactly; inputs with no record give their largest, none 1.0.
    The engine stamps a job's outputs with it; the judge scales its counters.
    """
    scales = {dataset.scale_factor for dataset in inputs}
    records = sum(dataset.num_records for dataset in inputs)
    if len(scales) <= 1 or not records:
        return max(scales, default=1.0)
    return sum(dataset.num_records * dataset.scale_factor for dataset in inputs) / records
