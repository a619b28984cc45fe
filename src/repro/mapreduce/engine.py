"""The local MapReduce execution engine.

:class:`LocalEngine` executes a :class:`~repro.mapreduce.job.MapReduceJob`
against datasets stored in an :class:`~repro.dfs.filesystem.InMemoryFileSystem`,
faithfully following the MapReduce execution model:

1. the input datasets are divided into map splits (one split per stored
   partition, in order, when the job carries the chaining constraint from an
   intra-job vertical packing);
2. each map task streams its records through every pipeline that reads the
   record's dataset — this is where horizontal packing's scan sharing
   happens: the record is *read once* but processed by several pipelines;
3. map-only pipelines write their output directly; shuffled pipelines tag,
   optionally combine, partition, and sort their map output;
4. reduce tasks group the sorted pairs per tag and stream the groups through
   the pipeline's reduce-side operator chain (which, after vertical packing,
   may contain further map and grouped-reduce stages);
5. outputs are written back to the filesystem with a layout derived from the
   job's partition function, so downstream jobs can rely on partitioning,
   ordering, and partition pruning.

Execution produces :class:`~repro.mapreduce.counters.ExecutionCounters` used
by the profiler and by the cluster cost simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.common.records import KeyValue, Record, records_size_bytes, sort_key_for
from repro.dfs.dataset import Dataset, logical_scale
from repro.dfs.filesystem import InMemoryFileSystem
from repro.dfs.layout import DataLayout, PartitionScheme
from repro.mapreduce.counters import ExecutionCounters
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.pipeline import (
    OperatorStats,
    Pipeline,
    run_map_chain,
    run_reduce_chain,
)


@dataclass
class JobExecutionResult:
    """Outcome of executing a single job."""

    job_name: str
    counters: ExecutionCounters
    output_datasets: Tuple[str, ...]
    per_output_records: Dict[str, int] = field(default_factory=dict)
    #: Snapshot of the records written per output dataset, filled only when
    #: the engine was built with ``collect_outputs=True``.  The snapshot is
    #: taken from the written dataset in stored (partition, offset) order, so
    #: it is deterministic for a given input filesystem state.
    output_records: Dict[str, List[Record]] = field(default_factory=dict)

    def output(self, filesystem: InMemoryFileSystem, name: Optional[str] = None) -> Dataset:
        """Convenience accessor for one of the job's output datasets."""
        target = name or self.output_datasets[0]
        return filesystem.get(target)


# A tagged map-output entry: (tag, sort_key, key, value)
_ShuffleEntry = Tuple[str, tuple, Record, Record]
_TAG, _SORT_KEY, _VALUE = itemgetter(0), itemgetter(1), itemgetter(3)
_TAG_AND_SORT_KEY = itemgetter(0, 1)

#: Records per map split of an input that is not read chained.
RECORDS_PER_SPLIT = 2_000


class LocalEngine:
    """Executes MapReduce jobs over in-memory datasets."""

    def __init__(
        self,
        max_exec_reduce_tasks: int = 4,
        collect_outputs: bool = False,
    ) -> None:
        if max_exec_reduce_tasks <= 0:
            raise ValueError("max_exec_reduce_tasks must be positive")
        self.max_exec_reduce_tasks = max_exec_reduce_tasks
        self.collect_outputs = collect_outputs

    # ------------------------------------------------------------------ API
    def execute_job(self, job: MapReduceJob, filesystem: InMemoryFileSystem) -> JobExecutionResult:
        """Execute ``job`` reading inputs from and writing outputs to ``filesystem``."""
        counters = ExecutionCounters()
        stats = OperatorStats()
        # Key material -> stable_hash, shared by the shuffle and the output
        # loads and dropped with this call.
        hashes: Dict[tuple, int] = {}

        splits, input_scale = self._build_splits(job, filesystem, counters)

        map_only_outputs: Dict[str, List[Record]] = {}
        shuffle_buffer: List[_ShuffleEntry] = []
        sort_fields_by_tag = self._sort_fields_by_tag(job)

        for split in splits:
            self._run_map_task(job, split, stats, counters, map_only_outputs, shuffle_buffer, sort_fields_by_tag)
        counters.num_map_tasks = max(1, len(splits))

        reduce_outputs: Dict[str, List[Record]] = {}
        if not job.is_map_only:
            self._run_shuffle_and_reduce(
                job, shuffle_buffer, stats, counters, reduce_outputs, sort_fields_by_tag, hashes
            )

        self._record_key_cardinalities(job, shuffle_buffer, counters, sort_fields_by_tag)
        self._merge_operator_stats(stats, counters)

        written = self._write_outputs(
            job, filesystem, map_only_outputs, reduce_outputs, counters, input_scale, hashes
        )
        per_output = {name: filesystem.get(name).num_records for name in written}
        output_records: Dict[str, List[Record]] = {}
        if self.collect_outputs:
            output_records = {name: filesystem.get(name).all_records() for name in written}
        return JobExecutionResult(
            job_name=job.name,
            counters=counters,
            output_datasets=tuple(written),
            per_output_records=per_output,
            output_records=output_records,
        )

    # ------------------------------------------------------------ map phase
    def _build_splits(
        self,
        job: MapReduceJob,
        filesystem: InMemoryFileSystem,
        counters: ExecutionCounters,
    ) -> Tuple[List[List[Tuple[str, Record]]], float]:
        """Build map splits as lists of (dataset_name, stored record) pairs.

        Records are tagged with their source dataset so that, inside a map
        task, only the pipelines reading that dataset process them.  A split
        holds the stored records themselves (a map function sees the fresh
        record its operator merges, any other chain the copy
        :meth:`_pipeline_input_pairs` makes), and the map input counters add
        the statistics :meth:`Dataset.load` fixed for each partition read.
        Also returns the :func:`logical_scale` of the inputs, which the
        outputs are stamped with.
        """
        allowed_partitions = self._allowed_partitions_per_dataset(job)
        splits: List[List[Tuple[str, Record]]] = []
        inputs = [filesystem.get(name) for name in job.input_datasets]

        for dataset_name, dataset in zip(job.input_datasets, inputs):
            allowed = allowed_partitions.get(dataset_name)
            partitions = [
                partition
                for partition in dataset.partitions
                if allowed is None or partition.index in allowed
            ]
            for partition in partitions:
                counters.map_input_records += partition.num_records
                counters.map_input_bytes += partition.raw_bytes
            if job.config.chained_input:
                # One split per stored partition, records in stored order
                # (postcondition 2 of intra-job vertical packing).
                for partition in partitions:
                    if partition.records:
                        splits.append([(dataset_name, record) for record in partition.records])
            else:
                records = [
                    (dataset_name, record)
                    for partition in partitions
                    for record in partition.records
                ]
                for chunk_start in range(0, len(records), RECORDS_PER_SPLIT):
                    chunk = records[chunk_start : chunk_start + RECORDS_PER_SPLIT]
                    if chunk:
                        splits.append(chunk)
        if not splits:
            splits = [[]]
        return splits, logical_scale(inputs)

    def _allowed_partitions_per_dataset(self, job: MapReduceJob) -> Dict[str, Optional[Tuple[int, ...]]]:
        """Union partition-pruning filters across pipelines per dataset.

        A dataset is pruned only if *every* pipeline reading it restricts its
        partitions; otherwise the full dataset must be scanned.
        """
        allowed: Dict[str, Optional[Tuple[int, ...]]] = {}
        for dataset_name in job.input_datasets:
            filters = []
            unrestricted = False
            for pipeline in job.pipelines:
                if not pipeline.reads(dataset_name):
                    continue
                pipeline_filter = pipeline.allowed_partitions(dataset_name)
                if pipeline_filter is None:
                    unrestricted = True
                else:
                    filters.append(set(pipeline_filter))
            if unrestricted or not filters:
                allowed[dataset_name] = None
            else:
                union = set()
                for f in filters:
                    union |= f
                allowed[dataset_name] = tuple(sorted(union))
        return allowed

    def _run_map_task(
        self,
        job: MapReduceJob,
        split: Sequence[Tuple[str, Record]],
        stats: OperatorStats,
        counters: ExecutionCounters,
        map_only_outputs: Dict[str, List[Record]],
        shuffle_buffer: List[_ShuffleEntry],
        sort_fields_by_tag: Dict[str, Tuple[str, ...]],
    ) -> None:
        task_shuffle: Dict[str, List[Tuple[Record, Record]]] = {}
        for pipeline in job.pipelines:
            pairs = self._pipeline_input_pairs(pipeline, split)
            produced = run_map_chain(pipeline.map_ops, pairs, stats)
            if pipeline.is_map_only:
                # Sized once, by the load that stores it (_write_outputs).
                bucket = map_only_outputs.setdefault(pipeline.output_dataset, [])
                bucket += [{**key, **value} for key, value in produced]
            else:
                outputs = task_shuffle.setdefault(pipeline.tag, [])
                outputs.extend(produced)

        # Combine (per map task, per tag), then count and buffer for shuffle.
        for pipeline in job.pipelines:
            if pipeline.is_map_only or pipeline.tag not in task_shuffle:
                continue
            # Each pair is sized once; the spill and the shuffle move the
            # same pairs unless a combiner rewrote them.  The sums are ints,
            # so adding them whole to the float counters is exact.
            pairs = task_shuffle[pipeline.tag]
            size = records_size_bytes(chain.from_iterable(pairs))
            counters.map_output_records += len(pairs)
            counters.map_output_bytes += size
            combiner = pipeline.map_side_combiner
            if combiner is not None and job.config.combiner_enabled and pairs:
                pairs = self._apply_combiner(pipeline, combiner, pairs, counters)
                size = records_size_bytes(chain.from_iterable(pairs))
            counters.spilled_records += len(pairs)
            counters.spilled_bytes += size
            counters.shuffle_bytes += size
            tag = pipeline.tag
            sort_fields = sort_fields_by_tag[tag]
            shuffle_buffer.extend(
                (tag, sort_key_for(key, sort_fields), key, value) for key, value in pairs
            )

    @staticmethod
    def _pipeline_input_pairs(
        pipeline: Pipeline, split: Sequence[Tuple[str, Record]]
    ) -> List[KeyValue]:
        """``({}, record)`` per split record the pipeline reads.

        A leading map operator merges each pair into a fresh record, so it
        gets the stored record itself; any other chain (a map-side reduce
        first, or no map operator at all) gets a copy, so no user function
        can edit a stored record.
        """
        reads = pipeline.input_datasets
        ops = pipeline.map_ops
        if ops and ops[0].kind == "map":
            return [({}, record) for name, record in split if name in reads]
        return [({}, dict(record)) for name, record in split if name in reads]

    @staticmethod
    def _apply_combiner(
        pipeline: Pipeline,
        combiner,
        pairs: List[Tuple[Record, Record]],
        counters: ExecutionCounters,
    ) -> List[Tuple[Record, Record]]:
        group_fields = pipeline.shuffle_group_fields
        grouped: Dict[tuple, Tuple[Record, List[Record]]] = {}
        for key, value in pairs:
            group_key = sort_key_for(key, group_fields)
            if group_key not in grouped:
                grouped[group_key] = ({f: key.get(f) for f in group_fields}, [])
            grouped[group_key][1].append(value)
        counters.combine_input_records += len(pairs)
        combined: List[Tuple[Record, Record]] = []
        for key, values in grouped.values():
            for out_key, out_value in combiner(dict(key), values):
                combined.append((out_key, out_value))
        counters.combine_output_records += len(combined)
        return combined

    # --------------------------------------------------------- reduce phase
    def _sort_fields_by_tag(self, job: MapReduceJob) -> Dict[str, Tuple[str, ...]]:
        partitioner = job.effective_partitioner
        sort_fields: Dict[str, Tuple[str, ...]] = {}
        explicit = job.partitioner is not None and len(job.pipelines) == 1
        for pipeline in job.pipelines:
            if explicit:
                sort_fields[pipeline.tag] = partitioner.effective_sort_fields
            else:
                sort_fields[pipeline.tag] = pipeline.shuffle_group_fields
        return sort_fields

    def _run_shuffle_and_reduce(
        self,
        job: MapReduceJob,
        shuffle_buffer: List[_ShuffleEntry],
        stats: OperatorStats,
        counters: ExecutionCounters,
        reduce_outputs: Dict[str, List[Record]],
        sort_fields_by_tag: Dict[str, Tuple[str, ...]],
        hashes: Dict[tuple, int],
    ) -> None:
        partitioner = job.effective_partitioner
        num_exec_reduces = self._execution_reduce_tasks(job)
        counters.num_reduce_tasks = job.config.num_reduce_tasks

        partitions: Dict[int, List[_ShuffleEntry]] = {i: [] for i in range(num_exec_reduces)}
        place = partitioner.placer(num_exec_reduces, hashes)
        for entry in shuffle_buffer:
            partitions[place(entry[2])].append(entry)

        pipelines_by_tag = {p.tag: p for p in job.pipelines}
        for index in range(num_exec_reduces):
            entries = partitions[index]
            entries.sort(key=_TAG_AND_SORT_KEY)
            counters.reduce_input_records += len(entries)
            # Process each tag's run of entries through its pipeline.
            for tag, run in groupby(entries, _TAG):
                pipeline = pipelines_by_tag.get(tag)
                if pipeline is None:
                    raise ExecutionError(f"shuffle produced unknown tag {tag!r}")
                group_fields = pipeline.shuffle_group_fields
                group_list = self._group_entries(
                    run, group_fields, sort_fields_by_tag[tag] == group_fields
                )
                counters.reduce_input_groups += len(group_list)
                # Sized once, by the load that stores it (_write_outputs).
                bucket = reduce_outputs.setdefault(pipeline.output_dataset, [])
                bucket += [
                    {**key, **value}
                    for key, value in run_reduce_chain(pipeline.reduce_ops, group_list, stats)
                ]

    def _execution_reduce_tasks(self, job: MapReduceJob) -> int:
        if job.config.forced_single_reduce:
            return 1
        return max(1, min(job.config.num_reduce_tasks, self.max_exec_reduce_tasks))

    @staticmethod
    def _group_entries(
        entries: Iterable[_ShuffleEntry], group_fields: Tuple[str, ...], sorted_by_group: bool
    ) -> List[Tuple[Record, List[Record]]]:
        """Consecutive entries with equal group keys, as ``(key, values)``.

        When the tag was sorted on its group fields (``sorted_by_group``),
        the stored sort key is the group key; an explicit partitioner that
        sorts on other fields has the key built from the group fields.
        """
        if sorted_by_group:
            runs = groupby(entries, _SORT_KEY)
        else:
            runs = groupby(entries, lambda entry: sort_key_for(entry[2], group_fields))
        groups: List[Tuple[Record, List[Record]]] = []
        for _, run in runs:
            group = list(run)
            key = group[0][2]
            groups.append(({f: key.get(f) for f in group_fields}, list(map(_VALUE, group))))
        return groups

    # ------------------------------------------------------------- counters
    def _record_key_cardinalities(
        self,
        job: MapReduceJob,
        shuffle_buffer: List[_ShuffleEntry],
        counters: ExecutionCounters,
        sort_fields_by_tag: Dict[str, Tuple[str, ...]],
    ) -> None:
        partitioner = job.effective_partitioner
        field_sets: List[Tuple[str, ...]] = []
        for pipeline in job.pipelines:
            if pipeline.shuffle_group_fields and pipeline.shuffle_group_fields not in field_sets:
                field_sets.append(pipeline.shuffle_group_fields)
        if partitioner.fields and tuple(partitioner.fields) not in field_sets:
            field_sets.append(tuple(partitioner.fields))
        for fields in field_sets:
            # An entry of a tag sorted on ``fields`` carries its key already.
            sorted_on = {tag: sort_fields == fields for tag, sort_fields in sort_fields_by_tag.items()}
            distinct = {
                sort_key if sorted_on[tag] else sort_key_for(key, fields)
                for tag, sort_key, key, _ in shuffle_buffer
            }
            counters.key_cardinalities[tuple(fields)] = len(distinct)

    @staticmethod
    def _merge_operator_stats(stats: OperatorStats, counters: ExecutionCounters) -> None:
        for name, count in stats.records_in.items():
            counters.operator(name).records_in += count
        for name, count in stats.records_out.items():
            counters.operator(name).records_out += count

    # --------------------------------------------------------------- output
    def _write_outputs(
        self,
        job: MapReduceJob,
        filesystem: InMemoryFileSystem,
        map_only_outputs: Dict[str, List[Record]],
        reduce_outputs: Dict[str, List[Record]],
        counters: ExecutionCounters,
        input_scale: float,
        hashes: Dict[tuple, int],
    ) -> List[str]:
        """Store each output dataset and count what the loads stored.

        An output record is sized once, by the :meth:`Dataset.load` that
        stores it: the output counters add the loaded datasets' statistics,
        and the reduce-side ones re-size reduce records only for a dataset
        that also holds map-only records.
        """
        written: List[str] = []
        for pipeline in job.pipelines:
            name = pipeline.output_dataset
            if name in written:
                continue
            mapped = map_only_outputs.get(name, [])
            reduced = reduce_outputs.get(name, [])
            layout = self._output_layout(job, pipeline, filesystem)
            dataset = Dataset(name, layout=layout, scale_factor=input_scale)
            dataset.load(mapped + reduced, hashes)
            filesystem.put(dataset)
            written.append(name)
            counters.output_records += dataset.num_records
            counters.output_bytes += dataset.raw_bytes
            counters.reduce_output_records += len(reduced)
            if mapped:
                counters.reduce_output_bytes += records_size_bytes(reduced)
            else:
                counters.reduce_output_bytes += dataset.raw_bytes
        return written

    def _output_layout(
        self,
        job: MapReduceJob,
        pipeline: Pipeline,
        filesystem: InMemoryFileSystem,
    ) -> DataLayout:
        partitioner = job.effective_partitioner
        if pipeline.is_map_only:
            # A map-only job's output inherits the physical partitioning of
            # its (single) input: map task i reads partition i and writes
            # output file i.
            source = filesystem.peek(pipeline.input_datasets[0])
            partitioning = (
                source.layout.partitioning if source is not None else PartitionScheme.unpartitioned()
            )
            sort_fields: Tuple[str, ...] = ()
            if source is not None and job.config.chained_input:
                sort_fields = source.layout.sort_fields
            return DataLayout(
                partitioning=partitioning,
                sort_fields=sort_fields,
                compressed=job.config.compress_output,
            )
        if partitioner.kind == "range":
            partitioning = PartitionScheme.ranged(partitioner.fields[0], partitioner.split_points)
        elif partitioner.fields:
            partitioning = PartitionScheme.hashed(*partitioner.fields)
        else:
            partitioning = PartitionScheme.unpartitioned()
        return DataLayout(
            partitioning=partitioning,
            sort_fields=partitioner.effective_sort_fields,
            compressed=job.config.compress_output,
        )
