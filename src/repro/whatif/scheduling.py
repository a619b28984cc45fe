"""Workflow-level scheduling model.

Jobs on the same topological level of the workflow DAG are concurrently
runnable and share the cluster's task slots.  The makespan of a level is
bounded below by (a) the slot-constrained total work of the level and (b) the
longest critical path of any single job in the level; we take the maximum of
the two bounds, which captures the behaviour the paper's Post-processing Jobs
workload relies on: two small jobs that fit in the cluster simultaneously run
in ``max(t1, t2)``, so packing them into a single job (whose time is roughly
``t1 + t2``) is a loss.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster import ClusterSpec
from repro.whatif.jobmodel import JobTimeEstimate


def level_makespan(estimates: Sequence[JobTimeEstimate], cluster: ClusterSpec) -> float:
    """Makespan of one level of concurrently runnable jobs."""
    if not estimates:
        return 0.0
    if len(estimates) == 1:
        return estimates[0].total_s

    # Bound (a): slot-constrained aggregate work.
    map_slot_seconds = sum(e.num_map_tasks * (e.map_task_s + cluster.task_startup_s) for e in estimates)
    reduce_slot_seconds = sum(
        e.num_reduce_tasks * (e.reduce_task_s + cluster.task_startup_s) for e in estimates
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


def workflow_makespan(
    per_level_estimates: Sequence[Sequence[JobTimeEstimate]],
    cluster: ClusterSpec,
) -> float:
    """Total workflow runtime: levels run one after another."""
    return sum(level_makespan(level, cluster) for level in per_level_estimates)
