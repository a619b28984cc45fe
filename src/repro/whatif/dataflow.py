"""The dataflow summary of one MapReduce job execution (real or hypothetical).

:class:`JobDataflow` is the common currency between the two costing paths:

* the What-if engine *derives* a dataflow from profile annotations, input
  dataset sizes, and a candidate configuration (estimation path);
* the actual-cost model *measures* a dataflow from execution counters
  (ground-truth path).

Either way, :func:`repro.whatif.jobmodel.estimate_job_time` turns the
dataflow plus configuration plus cluster spec into phase-by-phase times.  A
chained job's map-task count (its chain source's reduce-task count) is not
part of the dataflow: it is a job-model input, like the split size it
replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
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
