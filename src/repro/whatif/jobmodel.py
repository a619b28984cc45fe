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

import math
from dataclasses import dataclass

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
COMPRESSION_RATIO = 0.35
COMPRESSION_CPU_S_PER_MB = 0.012
DECOMPRESSION_CPU_S_PER_MB = 0.006

#: Extra CPU charged per (record, extra pipeline) for packed jobs, modelling
#: the task-slot resource contention discussed in §3.1/§3.3.
PIPELINE_CONTENTION_FACTOR = 0.04


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

    @property
    def total_s(self) -> float:
        """Total estimated job runtime in seconds."""
        return self.startup_s + self.map_phase_s + self.shuffle_s + self.reduce_phase_s


def estimate_job_time(
    dataflow: JobDataflow,
    config: JobConfig,
    cluster: ClusterSpec,
) -> JobTimeEstimate:
    """Estimate the runtime of one job from its dataflow, config, and cluster.

    One flat function: every RRS sample runs it, so it reads each input once
    and builds no object but its answer.  Each float keeps the operation
    order of the phase-by-phase derivation it replaced
    (``tests/jobmodel_oracle.py`` holds that derivation and checks ``==``).
    """
    read_bps, write_bps, network_bps, map_slots, reduce_slots, max_streams = (
        cluster.job_model_constants
    )
    task_startup_s = cluster.task_startup_s
    cpu_speed_factor = cluster.cpu_speed_factor
    pipeline_count = dataflow.pipeline_count
    contention = 1.0 + PIPELINE_CONTENTION_FACTOR * (pipeline_count - 1)
    map_only = dataflow.map_only or config.num_reduce_tasks == 0

    # Map: one task per split, or per producer reduce task under chaining.
    chained = dataflow.chained_map_tasks
    if chained:
        num_map_tasks = max(1, int(chained))
    else:
        num_map_tasks = max(1, math.ceil(dataflow.input_bytes / (config.split_size_mb * MB)))
    read_s = dataflow.input_bytes / num_map_tasks / read_bps
    cpu_s = (
        dataflow.input_records / num_map_tasks
        * dataflow.map_cpu_cost_per_record
        * CPU_COST_UNIT_SECONDS
        * cpu_speed_factor
        * contention
    )
    if map_only:
        # Written straight back to the DFS: no collect, spill or sort.
        write_bytes = dataflow.output_bytes / num_map_tasks
        compress_cpu = 0.0
        if config.compress_output:
            compress_cpu = (write_bytes / MB) * COMPRESSION_CPU_S_PER_MB
            write_bytes *= COMPRESSION_RATIO
        spill_s = write_bytes / write_bps + compress_cpu
    else:
        # Memory available to the sort buffer is shared by packed pipelines.
        map_output_bytes_per_task = dataflow.map_output_bytes / num_map_tasks
        effective_sort_mb = max(8.0, config.io_sort_mb / pipeline_count)
        spill_passes = max(1.0, math.ceil((map_output_bytes_per_task / MB) / effective_sort_mb))
        spill_bytes = map_output_bytes_per_task * (1.0 + 0.25 * math.log2(max(1.0, spill_passes)))
        compress_cpu = 0.0
        if config.compress_map_output:
            compress_cpu = (spill_bytes / MB) * COMPRESSION_CPU_S_PER_MB
            spill_bytes *= COMPRESSION_RATIO
        spill_s = spill_bytes / write_bps + spill_bytes / read_bps * 0.5 + compress_cpu
    map_task_s = read_s + cpu_s + spill_s
    map_phase_s = -(-num_map_tasks // map_slots) * (map_task_s + task_startup_s)

    if map_only:
        return JobTimeEstimate(
            map_phase_s, 0.0, 0.0, cluster.job_startup_s, num_map_tasks, 0, map_task_s, 0.0
        )

    # Shuffle: one stream per reduce task, up to one per node.
    num_reduce_tasks = max(1, config.num_reduce_tasks)
    shuffle_bytes = dataflow.shuffle_bytes
    if config.compress_map_output:
        shuffle_bytes *= COMPRESSION_RATIO
    shuffle_s = shuffle_bytes / (network_bps * max(1, min(num_reduce_tasks, max_streams)))

    # Reduce: useful parallelism is capped by distinct groups / partition keys.
    groups, keys = dataflow.distinct_reduce_groups, dataflow.distinct_partition_keys
    reducers = float(num_reduce_tasks)
    if groups or keys:
        cap = max(1.0, min(groups, keys) if groups and keys else groups or keys)
        reducers = float(max(1.0, min(reducers, cap)))
    bytes_per_reducer = shuffle_bytes / reducers
    decompress_cpu = 0.0
    if config.compress_map_output:
        decompress_cpu = (bytes_per_reducer / MB) * DECOMPRESSION_CPU_S_PER_MB
    merge_s = bytes_per_reducer / write_bps * 0.5 + bytes_per_reducer / read_bps + decompress_cpu
    cpu_s = (
        dataflow.reduce_input_records / reducers
        * dataflow.reduce_cpu_cost_per_record
        * CPU_COST_UNIT_SECONDS
        * cpu_speed_factor
        * contention
    )
    write_bytes = dataflow.output_bytes / reducers
    compress_cpu = 0.0
    if config.compress_output:
        compress_cpu = (write_bytes / MB) * COMPRESSION_CPU_S_PER_MB
        write_bytes *= COMPRESSION_RATIO
    write_s = write_bytes / write_bps + compress_cpu
    reduce_task_s = merge_s + cpu_s + write_s
    reduce_phase_s = -(-num_reduce_tasks // reduce_slots) * task_startup_s + reduce_task_s
    return JobTimeEstimate(
        map_phase_s,
        shuffle_s,
        reduce_phase_s,
        cluster.job_startup_s,
        num_map_tasks,
        num_reduce_tasks,
        map_task_s,
        reduce_task_s,
    )
