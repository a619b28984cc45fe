"""The job model and level makespan as they stood before the model was one
flat function, relocated out of ``src/``.

``repro.whatif.jobmodel.estimate_job_time`` inlines five phase helpers, drops
the per-call ``details`` dict, and reads the cluster's derived constants from
one ``cached_property``; ``repro.whatif.scheduling.level_makespan`` reads the
same constants.  The functions here are the phase-by-phase originals,
verbatim but for three things: ``JobDataflow.parallelism_cap`` and
``ClusterSpec.map_waves`` / ``reduce_waves`` (deleted from ``src/`` with
their one reader) are the functions :func:`parallelism_cap`,
:func:`map_waves_of` and :func:`reduce_waves_of`; the chained map-task count,
no longer a ``JobDataflow`` field, is :func:`estimate_job_time`'s fourth
argument, read as the field was; and :func:`level_makespan` adds its two sums
in explicit left-to-right loops — what ``sum()`` did up to Python 3.11.  Every estimate ``src/`` returns must
be ``==`` theirs, field by field (``tests/test_whatif.py``).
"""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster import ClusterSpec
from repro.mapreduce.config import JobConfig
from repro.whatif.dataflow import JobDataflow
from repro.whatif.jobmodel import (
    COMPRESSION_CPU_S_PER_MB,
    COMPRESSION_RATIO,
    CPU_COST_UNIT_SECONDS,
    DECOMPRESSION_CPU_S_PER_MB,
    PIPELINE_CONTENTION_FACTOR,
)

MB = 1024.0 * 1024.0

#: The fields ``src/``'s ``JobTimeEstimate`` keeps, in order.
FIELDS = (
    "map_phase_s", "shuffle_s", "reduce_phase_s", "startup_s",
    "num_map_tasks", "num_reduce_tasks", "map_task_s", "reduce_task_s",
)


def map_waves_of(cluster: ClusterSpec, num_map_tasks: int) -> int:
    """Number of sequential map waves needed for ``num_map_tasks``."""
    if num_map_tasks <= 0:
        return 0
    return -(-num_map_tasks // cluster.total_map_slots)


def reduce_waves_of(cluster: ClusterSpec, num_reduce_tasks: int) -> int:
    """Number of sequential reduce waves needed for ``num_reduce_tasks``."""
    if num_reduce_tasks <= 0:
        return 0
    return -(-num_reduce_tasks // cluster.total_reduce_slots)


def parallelism_cap(dataflow: JobDataflow) -> Optional[float]:
    """The tightest known bound on useful reduce parallelism."""
    caps = [c for c in (dataflow.distinct_reduce_groups, dataflow.distinct_partition_keys) if c]
    if not caps:
        return None
    return max(1.0, min(caps))


@dataclass(frozen=True, slots=True)
class JobTimeEstimate:
    """Phase-by-phase time estimate of one job (slots: hot-loop allocation)."""

    map_phase_s: float
    shuffle_s: float
    reduce_phase_s: float
    startup_s: float
    num_map_tasks: int
    num_reduce_tasks: int
    map_task_s: float
    reduce_task_s: float
    details: Dict[str, float]

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
    """Estimate the runtime of one job from its dataflow, config, and cluster."""
    details: Dict[str, float] = {}

    num_map_tasks = _num_map_tasks(dataflow, config, chained_map_tasks)
    details["num_map_tasks"] = num_map_tasks

    map_task_s = _map_task_time(dataflow, config, cluster, num_map_tasks, details)
    map_waves = map_waves_of(cluster, num_map_tasks)
    map_phase_s = map_waves * (map_task_s + cluster.task_startup_s)
    details["map_waves"] = map_waves

    if dataflow.map_only or config.is_map_only:
        return JobTimeEstimate(
            map_phase_s=map_phase_s,
            shuffle_s=0.0,
            reduce_phase_s=0.0,
            startup_s=cluster.job_startup_s,
            num_map_tasks=num_map_tasks,
            num_reduce_tasks=0,
            map_task_s=map_task_s,
            reduce_task_s=0.0,
            details=details,
        )

    num_reduce_tasks = max(1, config.num_reduce_tasks)
    effective_reducers = _effective_reducers(dataflow, num_reduce_tasks)
    details["effective_reducers"] = effective_reducers

    shuffle_bytes = dataflow.shuffle_bytes
    if config.compress_map_output:
        shuffle_bytes *= COMPRESSION_RATIO
    shuffle_s = _shuffle_time(shuffle_bytes, num_reduce_tasks, cluster)
    details["shuffle_bytes"] = shuffle_bytes

    reduce_task_s = _reduce_task_time(
        dataflow, config, cluster, effective_reducers, shuffle_bytes, details
    )
    reduce_waves = reduce_waves_of(cluster, num_reduce_tasks)
    reduce_phase_s = reduce_waves * cluster.task_startup_s + reduce_task_s
    details["reduce_waves"] = reduce_waves

    return JobTimeEstimate(
        map_phase_s=map_phase_s,
        shuffle_s=shuffle_s,
        reduce_phase_s=reduce_phase_s,
        startup_s=cluster.job_startup_s,
        num_map_tasks=num_map_tasks,
        num_reduce_tasks=num_reduce_tasks,
        map_task_s=map_task_s,
        reduce_task_s=reduce_task_s,
        details=details,
    )


# ---------------------------------------------------------------------------
# Phase helpers
# ---------------------------------------------------------------------------


def _num_map_tasks(dataflow: JobDataflow, config: JobConfig, chained_map_tasks: Optional[int]) -> int:
    if chained_map_tasks:
        return max(1, int(chained_map_tasks))
    split_bytes = config.split_size_mb * MB
    return max(1, int(math.ceil(dataflow.input_bytes / split_bytes)))


def _map_task_time(
    dataflow: JobDataflow,
    config: JobConfig,
    cluster: ClusterSpec,
    num_map_tasks: int,
    details: Dict[str, float],
) -> float:
    node = cluster.node
    input_bytes_per_task = dataflow.input_bytes / num_map_tasks
    input_records_per_task = dataflow.input_records / num_map_tasks

    read_s = input_bytes_per_task / (node.disk_read_mb_per_s * MB)

    contention = 1.0 + PIPELINE_CONTENTION_FACTOR * (dataflow.pipeline_count - 1)
    cpu_s = (
        input_records_per_task
        * dataflow.map_cpu_cost_per_record
        * CPU_COST_UNIT_SECONDS
        * cluster.cpu_speed_factor
        * contention
    )

    # Collect / spill / sort of the map output (skipped for map-only jobs,
    # whose output is written straight back to the DFS).
    map_output_bytes_per_task = dataflow.map_output_bytes / num_map_tasks
    if dataflow.map_only or config.is_map_only:
        write_bytes = dataflow.output_bytes / num_map_tasks
        compress_cpu = 0.0
        if config.compress_output:
            compress_cpu = (write_bytes / MB) * COMPRESSION_CPU_S_PER_MB
            write_bytes *= COMPRESSION_RATIO
        spill_s = write_bytes / (node.disk_write_mb_per_s * MB) + compress_cpu
        details["map_sort_spill_s"] = 0.0
    else:
        # Memory available to the sort buffer is shared by packed pipelines.
        effective_sort_mb = max(8.0, config.io_sort_mb / dataflow.pipeline_count)
        spill_passes = max(
            1.0, math.ceil((map_output_bytes_per_task / MB) / effective_sort_mb)
        )
        sort_factor = 1.0 + 0.25 * math.log2(max(1.0, spill_passes))
        spill_bytes = map_output_bytes_per_task * sort_factor
        compress_cpu = 0.0
        if config.compress_map_output:
            compress_cpu = (spill_bytes / MB) * COMPRESSION_CPU_S_PER_MB
            spill_bytes *= COMPRESSION_RATIO
        spill_s = (
            spill_bytes / (node.disk_write_mb_per_s * MB)
            + spill_bytes / (node.disk_read_mb_per_s * MB) * 0.5
            + compress_cpu
        )
        details["map_sort_spill_s"] = spill_s

    details["map_read_s"] = read_s
    details["map_cpu_s"] = cpu_s
    return read_s + cpu_s + spill_s


def _effective_reducers(dataflow: JobDataflow, num_reduce_tasks: int) -> float:
    cap = parallelism_cap(dataflow)
    if cap is None:
        return float(num_reduce_tasks)
    return float(max(1.0, min(float(num_reduce_tasks), cap)))


def _shuffle_time(shuffle_bytes: float, num_reduce_tasks: int, cluster: ClusterSpec) -> float:
    parallel_streams = max(1, min(num_reduce_tasks, cluster.total_reduce_slots, cluster.num_nodes))
    effective_bandwidth = cluster.network_mb_per_s * MB * parallel_streams
    return shuffle_bytes / effective_bandwidth


def _reduce_task_time(
    dataflow: JobDataflow,
    config: JobConfig,
    cluster: ClusterSpec,
    effective_reducers: float,
    shuffle_bytes: float,
    details: Dict[str, float],
) -> float:
    node = cluster.node
    records_per_reducer = dataflow.reduce_input_records / effective_reducers
    bytes_per_reducer = shuffle_bytes / effective_reducers
    output_bytes_per_reducer = dataflow.output_bytes / effective_reducers

    decompress_cpu = 0.0
    if config.compress_map_output:
        decompress_cpu = (bytes_per_reducer / MB) * DECOMPRESSION_CPU_S_PER_MB

    merge_s = (
        bytes_per_reducer / (node.disk_write_mb_per_s * MB) * 0.5
        + bytes_per_reducer / (node.disk_read_mb_per_s * MB)
        + decompress_cpu
    )

    contention = 1.0 + PIPELINE_CONTENTION_FACTOR * (dataflow.pipeline_count - 1)
    cpu_s = (
        records_per_reducer
        * dataflow.reduce_cpu_cost_per_record
        * CPU_COST_UNIT_SECONDS
        * cluster.cpu_speed_factor
        * contention
    )

    compress_cpu = 0.0
    write_bytes = output_bytes_per_reducer
    if config.compress_output:
        compress_cpu = (write_bytes / MB) * COMPRESSION_CPU_S_PER_MB
        write_bytes *= COMPRESSION_RATIO
    write_s = write_bytes / (node.disk_write_mb_per_s * MB) + compress_cpu

    details["reduce_merge_s"] = merge_s
    details["reduce_cpu_s"] = cpu_s
    details["reduce_write_s"] = write_s
    return merge_s + cpu_s + write_s


def level_makespan(estimates: Sequence[JobTimeEstimate], cluster: ClusterSpec) -> float:
    """Makespan of one level of concurrently runnable jobs."""
    if not estimates:
        return 0.0
    if len(estimates) == 1:
        return estimates[0].total_s

    # Bound (a): slot-constrained aggregate work.
    map_slot_seconds = 0
    for e in estimates:
        map_slot_seconds = map_slot_seconds + e.num_map_tasks * (e.map_task_s + cluster.task_startup_s)
    reduce_slot_seconds = 0
    for e in estimates:
        reduce_slot_seconds = reduce_slot_seconds + e.num_reduce_tasks * (
            e.reduce_task_s + cluster.task_startup_s
        )
    aggregate_bound = (
        map_slot_seconds / cluster.total_map_slots
        + reduce_slot_seconds / cluster.total_reduce_slots
        + max(e.shuffle_s for e in estimates)
        + max(e.startup_s for e in estimates)
    )

    # Bound (b): the slowest individual job run with the whole cluster.
    individual_bound = max(e.total_s for e in estimates)

    return max(aggregate_bound, individual_bound)
