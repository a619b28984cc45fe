"""Operators and pipelines: the executable shape of (packed) MapReduce jobs.

A vanilla MapReduce job has one pipeline whose map side is ``[map_fn]`` and
whose reduce side is ``[reduce_fn]``.  Stubby's transformations produce more
interesting shapes:

* intra-job vertical packing turns the consumer into a map-only job whose map
  side is ``[Mc, Rc]`` — the reduce function runs inside the map task as a
  *grouped stream operator* relying on the producer's sort order (Figure 4);
* inter-job vertical packing appends a map-only job's pipeline onto the
  producer's reduce side, e.g. ``[R5, M7, R7]``;
* horizontal packing gives a job several tagged parallel pipelines, one per
  original job, sharing the map-side scan (Figure 6).

Operators therefore come in two kinds — ``map`` and ``reduce`` — and a
pipeline is a list of operators on the map side plus a list on the reduce
side, with a tag, input datasets, and an output dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.content_keys import PipelineContentKey
from repro.common.errors import ExecutionError
from repro.common.records import KeyValue, Record, read_only, sort_key_for

MapCallable = Callable[[Record, Record], Iterable[KeyValue]]
ReduceCallable = Callable[[Record, List[Record]], Iterable[KeyValue]]


@dataclass(frozen=True)
class Operator:
    """One stage of a pipeline.

    Attributes
    ----------
    name:
        Unique name within the job; used for per-operator counters and for
        profile annotations ("the CPU cost of M7").
    kind:
        ``"map"`` or ``"reduce"``.
    fn:
        The user function.  Map operators receive ``(key, value)`` and yield
        zero or more ``(key, value)`` pairs.  Reduce operators receive
        ``(key, [values])`` for each group and yield ``(key, value)`` pairs.
    group_fields:
        For reduce operators, the key fields that define a group (the K2 of
        the original job).  Required for reduce operators.
    cpu_cost_per_record:
        Relative CPU cost of one invocation-record, in abstract "cost units"
        that the cluster spec converts to time.  Declared by workloads and
        carried into profile annotations.
    combiner:
        Optional combine function associated with a reduce operator, usable
        on the map side when the job configuration enables the combiner.
    """

    name: str
    kind: str
    fn: Callable
    group_fields: Tuple[str, ...] = ()
    cpu_cost_per_record: float = 1.0
    combiner: Optional[ReduceCallable] = None

    def __post_init__(self) -> None:
        if self.kind not in ("map", "reduce"):
            raise ValueError(f"operator kind must be 'map' or 'reduce', got {self.kind!r}")
        if self.kind == "reduce" and not self.group_fields:
            raise ValueError(f"reduce operator {self.name!r} needs group_fields")
        if self.cpu_cost_per_record < 0:
            raise ValueError("cpu_cost_per_record must be non-negative")


def map_operator(
    name: str,
    fn: MapCallable,
    cpu_cost_per_record: float = 1.0,
) -> Operator:
    """Convenience constructor for a map operator."""
    return Operator(name=name, kind="map", fn=fn, cpu_cost_per_record=cpu_cost_per_record)


def reduce_operator(
    name: str,
    fn: ReduceCallable,
    group_fields: Sequence[str],
    cpu_cost_per_record: float = 1.0,
    combiner: Optional[ReduceCallable] = None,
) -> Operator:
    """Convenience constructor for a reduce operator."""
    return Operator(
        name=name,
        kind="reduce",
        fn=fn,
        group_fields=tuple(group_fields),
        cpu_cost_per_record=cpu_cost_per_record,
        combiner=combiner,
    )


@dataclass(frozen=True, eq=False)
class Pipeline:
    """A tagged chain of operators from input dataset(s) to an output dataset.

    ``map_ops`` run inside map tasks over the pipeline's input datasets.
    ``reduce_ops`` run inside reduce tasks over the shuffled, sorted map
    output carrying this pipeline's tag.  A pipeline with no reduce
    operators is *map-only*: its map-side output is written directly to the
    output dataset without the partition/sort/shuffle machinery.

    Immutable, compared and hashed by identity: list arguments are stored as
    tuples and the partition filter as a read-only mapping, so jobs derived
    from one another share pipeline objects freely.
    """

    tag: str
    input_datasets: Tuple[str, ...]
    map_ops: Tuple[Operator, ...] = ()
    reduce_ops: Tuple[Operator, ...] = ()
    output_dataset: str = ""
    #: Optional partition pruning: dataset name -> partition indexes to read.
    input_partition_filter: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("input_datasets", "map_ops", "reduce_ops"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(
            self, "input_partition_filter", read_only(self.input_partition_filter)
        )
        if not self.input_datasets:
            raise ValueError(f"pipeline {self.tag!r} has no input datasets")
        if not self.output_dataset:
            raise ValueError(f"pipeline {self.tag!r} has no output dataset")
        for op in self.map_ops + self.reduce_ops:
            if not isinstance(op, Operator):
                raise TypeError("pipeline stages must be Operator instances")

    @property
    def is_map_only(self) -> bool:
        """True when this pipeline performs no reduce-side work."""
        return not self.reduce_ops

    @property
    def shuffle_group_fields(self) -> Tuple[str, ...]:
        """Key fields the shuffle must group on for this pipeline.

        This is the ``group_fields`` of the first reduce-side operator; it
        determines the default partition and sort keys.
        """
        if not self.reduce_ops:
            return ()
        return self.reduce_ops[0].group_fields

    @property
    def map_side_combiner(self) -> Optional[ReduceCallable]:
        """Combiner usable on the map side (from the first reduce operator)."""
        if not self.reduce_ops:
            return None
        return self.reduce_ops[0].combiner

    def reads(self, dataset_name: str) -> bool:
        """True if this pipeline consumes the named dataset."""
        return dataset_name in self.input_datasets

    def allowed_partitions(self, dataset_name: str) -> Optional[Tuple[int, ...]]:
        """Partition indexes to read for ``dataset_name`` (None = all)."""
        return self.input_partition_filter.get(dataset_name)

    @cached_property
    def content_key(self) -> PipelineContentKey:
        """Inputs with their allowed partitions, operators and output, built
        once per pipeline: jobs derived by ``with_config`` share it."""
        return PipelineContentKey(
            inputs=tuple((name, self.allowed_partitions(name)) for name in self.input_datasets),
            map_ops=tuple((op.name, op.cpu_cost_per_record) for op in self.map_ops),
            reduce_ops=tuple(
                (op.name, op.cpu_cost_per_record, op.group_fields) for op in self.reduce_ops
            ),
            output_dataset=self.output_dataset,
        )

    def with_partition_filter(self, dataset_name: str, allowed: Sequence[int]) -> "Pipeline":
        """This pipeline reading only partitions ``allowed`` of ``dataset_name``."""
        pruned = {**self.input_partition_filter, dataset_name: tuple(allowed)}
        return replace(self, input_partition_filter=pruned)


# ---------------------------------------------------------------------------
# Stream execution of operator chains
# ---------------------------------------------------------------------------

class OperatorStats:
    """Mutable per-operator record counts collected during execution."""

    def __init__(self) -> None:
        self.records_in: Dict[str, int] = {}
        self.records_out: Dict[str, int] = {}

    def count_in(self, op_name: str, n: int = 1) -> None:
        self.records_in[op_name] = self.records_in.get(op_name, 0) + n

    def count_out(self, op_name: str, n: int = 1) -> None:
        self.records_out[op_name] = self.records_out.get(op_name, 0) + n

    def merge(self, other: "OperatorStats") -> None:
        for name, count in other.records_in.items():
            self.count_in(name, count)
        for name, count in other.records_out.items():
            self.count_out(name, count)


def run_map_chain(
    operators: Sequence[Operator],
    pairs: Iterable[KeyValue],
    stats: Optional[OperatorStats] = None,
) -> Iterator[KeyValue]:
    """Stream ``pairs`` through a chain of operators on the map side.

    Reduce operators in the chain (from vertical packing) group *consecutive*
    pairs whose projected group key is equal — valid because the producing
    side guarantees the required sort order (paper §3.1 postconditions).
    """
    stream: Iterator[KeyValue] = iter(pairs)
    for op in operators:
        if op.kind == "map":
            stream = _apply_map(op, stream, stats)
        else:
            stream = _apply_grouped_reduce(op, stream, stats)
    return stream


def run_reduce_chain(
    operators: Sequence[Operator],
    groups: Iterable[Tuple[Record, List[Record]]],
    stats: Optional[OperatorStats] = None,
) -> Iterator[KeyValue]:
    """Stream shuffled groups through a chain of operators on the reduce side.

    The first operator must be a reduce operator (it consumes the shuffle's
    groups); subsequent operators are applied to its output stream, with any
    further reduce operators grouping consecutive equal keys as above.
    """
    ops = list(operators)
    if not ops:
        raise ExecutionError("reduce chain must contain at least one operator")
    first = ops[0]
    if first.kind != "reduce":
        raise ExecutionError("the first reduce-side operator must be a reduce operator")

    def first_stage() -> Iterator[KeyValue]:
        for key, values in groups:
            if stats is not None:
                stats.count_in(first.name, len(values))
            for out_key, out_value in first.fn(dict(key), values):
                if stats is not None:
                    stats.count_out(first.name)
                yield out_key, out_value

    stream: Iterator[KeyValue] = first_stage()
    for op in ops[1:]:
        if op.kind == "map":
            stream = _apply_map(op, stream, stats)
        else:
            stream = _apply_grouped_reduce(op, stream, stats)
    return stream


def _apply_map(
    op: Operator,
    stream: Iterator[KeyValue],
    stats: Optional[OperatorStats],
) -> Iterator[KeyValue]:
    for key, value in stream:
        if stats is not None:
            stats.count_in(op.name)
        # A pipelined map function sees the record exactly as it would have
        # read it from the DFS had the upstream stage written it out: the key
        # and value fields merged into one record (paper §2.1 footnote — the
        # producer's output pairs are input "as is" to the consumer's map).
        record = dict(key)
        record.update(value)
        for out_key, out_value in op.fn(key, record):
            if stats is not None:
                stats.count_out(op.name)
            yield out_key, out_value


def _apply_grouped_reduce(
    op: Operator,
    stream: Iterator[KeyValue],
    stats: Optional[OperatorStats],
) -> Iterator[KeyValue]:
    """Group consecutive pairs with equal projected keys and reduce each group."""
    current_group_key: Optional[tuple] = None
    current_key: Optional[Record] = None
    buffered: List[Record] = []

    def flush() -> Iterator[KeyValue]:
        if current_key is None:
            return
        if stats is not None:
            stats.count_in(op.name, len(buffered))
        for out_key, out_value in op.fn(dict(current_key), buffered):
            if stats is not None:
                stats.count_out(op.name)
            yield out_key, out_value

    for key, value in stream:
        group_key = sort_key_for(key, op.group_fields)
        if current_group_key is None or group_key != current_group_key:
            for item in flush():
                yield item
            current_group_key = group_key
            current_key = {f: key.get(f) for f in op.group_fields}
            buffered = []
        buffered.append(value)
    for item in flush():
        yield item
