"""The dataflow summary of one MapReduce job execution (real or hypothetical).

:class:`JobDataflow` is the common currency between the two costing paths:

* the What-if engine *derives* a dataflow from profile annotations, input
  dataset sizes, and a candidate configuration (estimation path);
* the actual-cost model *measures* a dataflow from execution counters
  (ground-truth path).

Either way, :func:`repro.whatif.jobmodel.estimate_job_time` turns the
dataflow plus configuration plus cluster spec into phase-by-phase times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True, slots=True)
class JobDataflow:
    """Byte/record flow through one MapReduce job.

    ``slots=True``: dataflows are minted once per re-costed job in the
    optimizer's hot loop, so the slots layout trades the per-instance
    ``__dict__`` for a flat, smaller allocation (``tests/test_plan_cow.py``
    asserts the layout).

    All byte and record quantities are *logical* (paper-scale) values: the
    evaluation datasets are generated at MB scale and scaled up through the
    datasets' ``scale_factor``, so simulated times land in the same regime as
    the paper's cluster runs.
    """

    input_bytes: float
    input_records: float
    map_output_records: float
    map_output_bytes: float
    shuffle_records: float
    shuffle_bytes: float
    reduce_input_records: float
    output_records: float
    output_bytes: float
    map_cpu_cost_per_record: float = 1.0
    reduce_cpu_cost_per_record: float = 1.0
    map_only: bool = False
    #: Number of parallel pipelines packed into the job (1 for vanilla jobs);
    #: drives the memory-contention penalty of horizontal packing.
    pipeline_count: int = 1
    #: Distinct reduce groups — an upper bound on useful reduce parallelism.
    distinct_reduce_groups: Optional[float] = None
    #: Distinct values of the partition-function fields — the hard cap on
    #: reduce parallelism after intra-job vertical packing narrows the
    #: partition key (paper §3.1 "performance implications").
    distinct_partition_keys: Optional[float] = None
    #: When the chaining constraint applies, map-side parallelism is fixed to
    #: the producer's reduce-task count.
    chained_map_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "input_bytes",
            "input_records",
            "map_output_records",
            "map_output_bytes",
            "shuffle_records",
            "shuffle_bytes",
            "reduce_input_records",
            "output_records",
            "output_bytes",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"dataflow quantity {name} cannot be negative")
        if self.pipeline_count < 1:
            raise ValueError("pipeline_count must be at least 1")

    @property
    def parallelism_cap(self) -> Optional[float]:
        """The tightest known bound on useful reduce parallelism."""
        caps = [c for c in (self.distinct_reduce_groups, self.distinct_partition_keys) if c]
        if not caps:
            return None
        return max(1.0, min(caps))

    def scaled(self, factor: float) -> "JobDataflow":
        """Scale every byte/record quantity by ``factor`` (cardinalities kept)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            input_bytes=self.input_bytes * factor,
            input_records=self.input_records * factor,
            map_output_records=self.map_output_records * factor,
            map_output_bytes=self.map_output_bytes * factor,
            shuffle_records=self.shuffle_records * factor,
            shuffle_bytes=self.shuffle_bytes * factor,
            reduce_input_records=self.reduce_input_records * factor,
            output_records=self.output_records * factor,
            output_bytes=self.output_bytes * factor,
        )
