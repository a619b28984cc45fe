"""The executable MapReduce job: pipelines + partition function + configuration.

A :class:`MapReduceJob` corresponds to the paper's job descriptor
``J = <p, c, a>`` minus the annotations ``a``, which live on the workflow
vertex (see :mod:`repro.workflow.annotations`).  The program ``p`` is the set
of tagged pipelines plus the partition function; ``c`` is the
:class:`~repro.mapreduce.config.JobConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

from repro.common.errors import ExecutionError
from repro.mapreduce.config import JobConfig
from repro.mapreduce.partitioner import PartitionFunction
from repro.mapreduce.pipeline import Operator, Pipeline, map_operator, reduce_operator


@dataclass(frozen=True, eq=False)
class MapReduceJob:
    """An executable (possibly packed) MapReduce job.

    Immutable, compared and hashed by identity; derive variants with
    :meth:`with_config` / :meth:`with_partitioner` (or ``dataclasses.replace``).
    What follows from the fields alone is worked out once per job, on first
    read (a derived job is a new object and starts without any of it).
    """

    name: str
    pipelines: Tuple[Pipeline, ...]
    partitioner: Optional[PartitionFunction] = None
    config: JobConfig = field(default_factory=JobConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pipelines", tuple(self.pipelines))
        if not self.pipelines:
            raise ExecutionError(f"job {self.name!r} has no pipelines")
        tags = [p.tag for p in self.pipelines]
        if len(tags) != len(set(tags)):
            raise ExecutionError(f"job {self.name!r} has duplicate pipeline tags")
        if self.is_map_only != self.config.is_map_only:
            reduces = 0 if self.is_map_only else 1
            object.__setattr__(self, "config", self.config.replace(num_reduce_tasks=reduces))

    # ------------------------------------------------------------ properties
    @cached_property
    def is_map_only(self) -> bool:
        """True when no pipeline needs a reduce phase."""
        return all(p.is_map_only for p in self.pipelines)

    @cached_property
    def input_datasets(self) -> Tuple[str, ...]:
        """All input dataset names read by any pipeline, in first-seen order."""
        names: List[str] = []
        for pipeline in self.pipelines:
            for dataset in pipeline.input_datasets:
                if dataset not in names:
                    names.append(dataset)
        return tuple(names)

    @cached_property
    def output_datasets(self) -> Tuple[str, ...]:
        """All output dataset names, in pipeline order."""
        names: List[str] = []
        for pipeline in self.pipelines:
            if pipeline.output_dataset not in names:
                names.append(pipeline.output_dataset)
        return tuple(names)

    @cached_property
    def has_combiner(self) -> bool:
        """True when at least one pipeline exposes a combine function."""
        return any(p.map_side_combiner is not None for p in self.pipelines)

    @cached_property
    def effective_partitioner(self) -> PartitionFunction:
        """The partition function actually used at execution time.

        Defaults to hash partitioning on the (union of) shuffle group fields
        when none was set explicitly — MapReduce's default behaviour.
        """
        if self.partitioner is not None:
            return self.partitioner
        group_fields: List[str] = []
        for pipeline in self.pipelines:
            for field_name in pipeline.shuffle_group_fields:
                if field_name not in group_fields:
                    group_fields.append(field_name)
        return PartitionFunction.default_hash(group_fields)

    @cached_property
    def shape_key(self) -> Tuple:
        """Name, pipelines (operators by name, wiring, pruning filters) and
        partition function: :attr:`structure_key` minus the configuration."""
        pipelines = tuple(
            (
                pipeline.tag,
                pipeline.input_datasets,
                tuple(op.name for op in pipeline.map_ops),
                tuple(op.name for op in pipeline.reduce_ops),
                pipeline.output_dataset,
                tuple(sorted(
                    (name, tuple(indexes))
                    for name, indexes in pipeline.input_partition_filter.items()
                )),
            )
            for pipeline in self.pipelines
        )
        return (self.name, pipelines) + self.effective_partitioner.key

    @property
    def structure_key(self) -> Tuple:
        """This job's part of :meth:`repro.core.plan.Plan.signature`: its shape
        and the chaining flag (the rest of the configuration is RRS's to search)."""
        return self.shape_key + (self.config.chained_input,)

    # ----------------------------------------------------------- derivation
    def with_config(self, config: JobConfig) -> "MapReduceJob":
        """This job under a different configuration (pipelines shared)."""
        derived = MapReduceJob(self.name, self.pipelines, self.partitioner, config)
        # Same pipelines and partitioner: what this job worked out from them
        # holds for the derived one, which shares it instead of rebuilding it.
        for name in ("input_datasets", "output_datasets", "has_combiner", "effective_partitioner", "shape_key"):
            if name in self.__dict__:
                derived.__dict__[name] = self.__dict__[name]
        return derived

    def with_partitioner(self, partitioner: PartitionFunction) -> "MapReduceJob":
        """This job under a different partition function (pipelines shared)."""
        return MapReduceJob(self.name, self.pipelines, partitioner, self.config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "map-only" if self.is_map_only else f"{self.config.num_reduce_tasks} reducers"
        return f"MapReduceJob(name={self.name!r}, pipelines={len(self.pipelines)}, {shape})"


def simple_job(
    name: str,
    input_dataset: Union[str, Sequence[str]],
    output_dataset: str,
    map_fn,
    reduce_fn=None,
    group_fields: Sequence[str] = (),
    combiner=None,
    map_cpu_cost: float = 1.0,
    reduce_cpu_cost: float = 1.0,
    config: Optional[JobConfig] = None,
    map_name: Optional[str] = None,
    reduce_name: Optional[str] = None,
) -> MapReduceJob:
    """Build a classic single-pipeline MapReduce job.

    This is the "program-based interface": the user provides plain map and
    reduce callables, exactly as they would write Hadoop jobs by hand.
    ``input_dataset`` is one name, or several for a job whose single
    pipeline reads more than one dataset (a repartition join).
    """
    map_ops: List[Operator] = [
        map_operator(map_name or f"{name}.map", map_fn, cpu_cost_per_record=map_cpu_cost)
    ]
    reduce_ops: List[Operator] = []
    if reduce_fn is not None:
        if not group_fields:
            raise ExecutionError(f"job {name!r}: reduce function requires group_fields")
        reduce_ops.append(
            reduce_operator(
                reduce_name or f"{name}.reduce",
                reduce_fn,
                group_fields=group_fields,
                cpu_cost_per_record=reduce_cpu_cost,
                combiner=combiner,
            )
        )
    pipeline = Pipeline(
        tag=name,
        input_datasets=(input_dataset,) if isinstance(input_dataset, str) else input_dataset,
        map_ops=map_ops,
        reduce_ops=reduce_ops,
        output_dataset=output_dataset,
    )
    job_config = config or JobConfig(num_reduce_tasks=0 if reduce_fn is None else 1)
    return MapReduceJob(name=name, pipelines=[pipeline], config=job_config)
