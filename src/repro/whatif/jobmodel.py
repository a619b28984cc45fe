"""Per-phase analytical model of a MapReduce job's execution time.

The model follows the structure of the Starfish What-if engine [8]: a job is
costed phase by phase — read, map, collect/spill/sort, shuffle, merge,
reduce, write — from its dataflow summary, its configuration, and the cluster
specification.  Task-level times are turned into phase times through the wave
model (tasks per concurrent wave = cluster slots), which is what makes the
number of reduce tasks, the chaining constraint of vertical packing, and
narrow partition keys show up in the final runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from operator import attrgetter
from typing import Dict, Optional, Tuple

from repro.cluster.spec import MB, ClusterSpec
from repro.mapreduce.config import JobConfig
from repro.whatif.dataflow import JobDataflow

#: Seconds of CPU time represented by one "cost unit" applied to one record.
#: Workload operators declare costs in the 1–30 range, so a cost of 4 means
#: roughly one microsecond of CPU per record — keeping the CPU:I/O balance in
#: the regime where MapReduce jobs are I/O- and shuffle-bound, as on the
#: paper's cluster, so that eliminating intermediate data movement (what the
#: packing transformations do) has the dominant effect.
CPU_COST_UNIT_SECONDS = 2.5e-7

#: Compression behaviour used when map/reduce output compression is enabled.
#: The ratio (compressed / raw size) is the repository's only one: every
#: dataflow, estimated or measured (``ExecutionCounters``), carries raw bytes,
#: and the job model shrinks the streams a job compresses here, once.
COMPRESSION_RATIO = 0.35
COMPRESSION_CPU_S_PER_MB = 0.012
DECOMPRESSION_CPU_S_PER_MB = 0.006

#: Extra CPU charged per (record, extra pipeline) for packed jobs, modelling
#: the task-slot resource contention discussed in §3.1/§3.3.
PIPELINE_CONTENTION_FACTOR = 0.04


#: The ``JobConfig`` settings the job model reads, in the order :class:`JobKernel` takes them.
JOB_MODEL_SETTINGS = (
    "num_reduce_tasks", "split_size_mb", "io_sort_mb", "compress_map_output", "compress_output",
)

#: The values of :data:`JOB_MODEL_SETTINGS` on a ``JobConfig``, as a tuple.
job_model_settings = attrgetter(*JOB_MODEL_SETTINGS)

#: What :meth:`JobKernel.terms` reads, in order: the :data:`JOB_MODEL_SETTINGS`,
#: then the job's chained map-task count (0 when it is not chained).  Under
#: vertical packing's chaining constraint a job runs one map task per reduce
#: task of its chain source, whatever its split size; like the settings, that
#: count is read by the job model only, so it is in no dataflow key.
JOB_MODEL_INPUTS = (*JOB_MODEL_SETTINGS, "chained_map_tasks")
JobModelInputs = Tuple[int, int, int, bool, bool, int]

#: What the level model reads of a job: ``(total_s, map_slot_s, reduce_slot_s,
#: shuffle_s, startup_s)``, a slot-seconds term being the job's tasks times
#: (task time + task start-up) (:meth:`JobKernel.terms`,
#: :func:`~repro.whatif.scheduling.level_terms`).
LevelTerms = Tuple[float, float, float, float, float]


@dataclass(frozen=True, slots=True)
class JobTimeEstimate:
    """Phase-by-phase time estimate of one job."""

    map_phase_s: float
    shuffle_s: float
    reduce_phase_s: float
    startup_s: float
    num_map_tasks: int
    num_reduce_tasks: int
    map_task_s: float
    reduce_task_s: float

    @property
    def total_s(self) -> float:
        """Total estimated job runtime in seconds."""
        return self.startup_s + self.map_phase_s + self.shuffle_s + self.reduce_phase_s


def estimate_job_time(
    dataflow: JobDataflow,
    config: JobConfig,
    cluster: ClusterSpec,
    chained_map_tasks: Optional[int],
) -> JobTimeEstimate:
    """Estimate the runtime of one job from its dataflow, config, and cluster.

    ``chained_map_tasks`` is the job's map-task count under the chaining
    constraint — its chain source's reduce-task count — or 0 / ``None`` for
    a job whose map tasks follow from ``split_size_mb``.  A one-off
    :meth:`JobKernel.estimate`; a walk holds each job's kernel instead
    (:meth:`~repro.whatif.model.WhatIfEngine.job_estimate`).
    """
    inputs = (*job_model_settings(config), chained_map_tasks or 0)
    return JobKernel(dataflow, cluster).estimate(inputs)


class JobKernel:
    """The job model of one dataflow on one cluster, over :data:`JOB_MODEL_INPUTS`.

    The model splits into two halves, each memoized on what it reads
    (its *read set*) rather than on the whole configuration:

    * the map half reads the number of map tasks (the chained count, else
      derived from ``split_size_mb``), the spill passes and
      ``compress_map_output`` — or, for a map-only job, the number of map
      tasks and ``compress_output`` (:func:`_map_half`);
    * the reduce half reads the reduce-task count and the two compression
      flags (:func:`_reduce_half`).

    :meth:`_halves` derives the two keys — a division and a ceiling or two —
    and reads both halves from their memos; each memo value carries the
    half's slot-seconds.  Its two readers are :meth:`estimate`, the job's
    :class:`JobTimeEstimate`, and :meth:`terms`, what the level model reads
    of the job, with two float additions and no estimate.  A walk builds one
    kernel per job it costs and asks it for both; an RRS sweep draws far
    fewer distinct keys than distinct configurations, so the kernel a
    candidate's session takes over from its base walk pays each half once
    per key.  Every float keeps the operation order of the phase-by-phase
    derivation the model started as (``tests/jobmodel_oracle.py`` holds it
    and checks ``==``), so a memo hit is the number a fresh call computes.
    """

    __slots__ = (
        "dataflow", "cluster", "map_only", "pipeline_count", "input_bytes",
        "map_output_bytes", "startup_s", "no_reduce", "maps", "reduces",
    )

    def __init__(self, dataflow: JobDataflow, cluster: ClusterSpec) -> None:
        self.dataflow = dataflow
        self.cluster = cluster
        self.map_only = dataflow.map_only
        self.pipeline_count = dataflow.pipeline_count
        self.input_bytes = dataflow.input_bytes
        self.map_output_bytes = dataflow.map_output_bytes
        self.startup_s = cluster.job_startup_s
        #: A map-only job's reduce half: no shuffle, no reduce phase, no reduce task.
        self.no_reduce = (0.0, 0.0, 0.0, 0 * (0.0 + cluster.task_startup_s))
        #: Map-half key -> ``(map_task_s, map_phase_s, map_slot_s)``.
        self.maps: Dict[Tuple, Tuple[float, float, float]] = {}
        #: Reduce-half key -> ``(shuffle_s, reduce_phase_s, reduce_task_s, reduce_slot_s)``.
        self.reduces: Dict[Tuple, Tuple[float, float, float, float]] = {}

    def estimate(self, inputs: JobModelInputs) -> JobTimeEstimate:
        """The job's phase-by-phase estimate under ``inputs``."""
        num_map_tasks, map_half, num_reduce_tasks, reduce_half = self._halves(inputs)
        map_task_s, map_phase_s, _ = map_half
        shuffle_s, reduce_phase_s, reduce_task_s, _ = reduce_half
        return JobTimeEstimate(
            map_phase_s, shuffle_s, reduce_phase_s, self.startup_s,
            num_map_tasks, num_reduce_tasks, map_task_s, reduce_task_s,
        )

    def terms(self, inputs: JobModelInputs) -> LevelTerms:
        """The job's level terms under ``inputs``: ``==`` ``level_terms`` of
        :meth:`estimate` under them."""
        _, (_, map_phase_s, map_slot_s), _, (shuffle_s, reduce_phase_s, _, reduce_slot_s) = (
            self._halves(inputs)
        )
        startup_s = self.startup_s
        # ``total_s`` as JobTimeEstimate adds it.
        return (
            startup_s + map_phase_s + shuffle_s + reduce_phase_s,
            map_slot_s,
            reduce_slot_s,
            shuffle_s,
            startup_s,
        )

    def _halves(self, inputs: JobModelInputs) -> Tuple[int, Tuple, int, Tuple]:
        """``(map tasks, map half, reduce tasks, reduce half)`` under ``inputs``:
        the one derivation of the job model's task counts and spill passes.

        A chained count is taken as given: it is a reduce-task count, at least 1.
        """
        # Each ``max(a, b)`` of the derivation is spelled ``b if b > a else a``,
        # what ``max`` returns (the first of equals), without the builtin's call:
        # four of those were half of a memo hit.
        (num_reduce_tasks, split_size_mb, io_sort_mb, compress_map_output, compress_output,
         num_map_tasks) = inputs
        if not num_map_tasks:
            num_map_tasks = ceil(self.input_bytes / (split_size_mb * MB))
            num_map_tasks = num_map_tasks if num_map_tasks > 1 else 1
        if self.map_only or num_reduce_tasks == 0:
            # Written straight back to the DFS: no collect, spill or sort.
            key = (num_map_tasks, None, compress_output)
            half = self.maps.get(key)
            if half is None:
                half = self.maps[key] = _map_half(
                    self.dataflow, self.cluster, num_map_tasks, None, compress_output
                )
            return num_map_tasks, half, 0, self.no_reduce
        # Memory available to the sort buffer is shared by packed pipelines.
        sort_mb = io_sort_mb / self.pipeline_count
        sort_mb = sort_mb if sort_mb > 8.0 else 8.0
        spill_passes = ceil((self.map_output_bytes / num_map_tasks / MB) / sort_mb)
        spill_passes = spill_passes if spill_passes > 1.0 else 1.0
        key = (num_map_tasks, spill_passes, compress_map_output)
        half = self.maps.get(key)
        if half is None:
            half = self.maps[key] = _map_half(
                self.dataflow, self.cluster, num_map_tasks, spill_passes, compress_map_output
            )
        num_reduce_tasks = num_reduce_tasks if num_reduce_tasks > 1 else 1
        key = (num_reduce_tasks, compress_map_output, compress_output)
        reduce = self.reduces.get(key)
        if reduce is None:
            reduce = self.reduces[key] = _reduce_half(
                self.dataflow, self.cluster, num_reduce_tasks, compress_map_output,
                compress_output,
            )
        return num_map_tasks, half, num_reduce_tasks, reduce


def _map_half(
    dataflow: JobDataflow,
    cluster: ClusterSpec,
    num_map_tasks: int,
    spill_passes: Optional[float],
    compress: bool,
) -> Tuple[float, float, float]:
    """``(map_task_s, map_phase_s, map_slot_s)``: read, map CPU, and spill — or,
    when ``spill_passes`` is ``None`` (a map-only job), the write back to the DFS.

    ``compress`` is ``compress_map_output``, or ``compress_output`` for a map-only job.
    """
    read_bps, write_bps, _, map_slots, _, _ = cluster.job_model_constants
    contention = 1.0 + PIPELINE_CONTENTION_FACTOR * (dataflow.pipeline_count - 1)
    read_s = dataflow.input_bytes / num_map_tasks / read_bps
    cpu_s = (
        dataflow.input_records / num_map_tasks
        * dataflow.map_cpu_cost_per_record
        * CPU_COST_UNIT_SECONDS
        * cluster.cpu_speed_factor
        * contention
    )
    if spill_passes is None:
        write_bytes = dataflow.output_bytes / num_map_tasks
        compress_cpu = 0.0
        if compress:
            compress_cpu = (write_bytes / MB) * COMPRESSION_CPU_S_PER_MB
            write_bytes *= COMPRESSION_RATIO
        spill_s = write_bytes / write_bps + compress_cpu
    else:
        map_output_bytes_per_task = dataflow.map_output_bytes / num_map_tasks
        spill_bytes = map_output_bytes_per_task * (1.0 + 0.25 * log2(max(1.0, spill_passes)))
        compress_cpu = 0.0
        if compress:
            compress_cpu = (spill_bytes / MB) * COMPRESSION_CPU_S_PER_MB
            spill_bytes *= COMPRESSION_RATIO
        spill_s = spill_bytes / write_bps + spill_bytes / read_bps * 0.5 + compress_cpu
    map_task_s = read_s + cpu_s + spill_s
    task_s = map_task_s + cluster.task_startup_s
    return map_task_s, -(-num_map_tasks // map_slots) * task_s, num_map_tasks * task_s


def _reduce_half(
    dataflow: JobDataflow,
    cluster: ClusterSpec,
    num_reduce_tasks: int,
    compress_map_output: bool,
    compress_output: bool,
) -> Tuple[float, float, float, float]:
    """``(shuffle_s, reduce_phase_s, reduce_task_s, reduce_slot_s)``: shuffle, merge,
    reduce CPU and write, and the half's slot-seconds."""
    # ``min(a, b)`` / ``max(a, b)`` are spelled ``b if b < a else a`` / ``b if b > a
    # else a``, what the builtins return, without their calls (a half runs per
    # memo miss, thousands of times a sweep).
    read_bps, write_bps, network_bps, _, reduce_slots, max_streams = cluster.job_model_constants
    # Shuffle: one stream per reduce task, up to one per node.
    shuffle_bytes = dataflow.shuffle_bytes
    if compress_map_output:
        shuffle_bytes *= COMPRESSION_RATIO
    streams = max_streams if max_streams < num_reduce_tasks else num_reduce_tasks
    shuffle_s = shuffle_bytes / (network_bps * (streams if streams > 1 else 1))

    # Reduce: useful parallelism is capped by distinct groups / partition keys.
    groups, keys = dataflow.distinct_reduce_groups, dataflow.distinct_partition_keys
    reducers = float(num_reduce_tasks)
    if groups or keys:
        cap = (keys if keys < groups else groups) if groups and keys else groups or keys
        cap = cap if cap > 1.0 else 1.0
        reducers = cap if cap < reducers else reducers
        reducers = float(reducers if reducers > 1.0 else 1.0)
    bytes_per_reducer = shuffle_bytes / reducers
    decompress_cpu = 0.0
    if compress_map_output:
        decompress_cpu = (bytes_per_reducer / MB) * DECOMPRESSION_CPU_S_PER_MB
    merge_s = bytes_per_reducer / write_bps * 0.5 + bytes_per_reducer / read_bps + decompress_cpu
    contention = 1.0 + PIPELINE_CONTENTION_FACTOR * (dataflow.pipeline_count - 1)
    cpu_s = (
        dataflow.reduce_input_records / reducers
        * dataflow.reduce_cpu_cost_per_record
        * CPU_COST_UNIT_SECONDS
        * cluster.cpu_speed_factor
        * contention
    )
    write_bytes = dataflow.output_bytes / reducers
    compress_cpu = 0.0
    if compress_output:
        compress_cpu = (write_bytes / MB) * COMPRESSION_CPU_S_PER_MB
        write_bytes *= COMPRESSION_RATIO
    write_s = write_bytes / write_bps + compress_cpu
    reduce_task_s = merge_s + cpu_s + write_s
    task_startup_s = cluster.task_startup_s
    reduce_phase_s = -(-num_reduce_tasks // reduce_slots) * task_startup_s + reduce_task_s
    reduce_slot_s = num_reduce_tasks * (reduce_task_s + task_startup_s)
    return shuffle_s, reduce_phase_s, reduce_task_s, reduce_slot_s
