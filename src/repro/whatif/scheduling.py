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
from repro.common import left_sum
from repro.whatif.jobmodel import JobTimeEstimate, LevelTerms


def level_terms(estimate: JobTimeEstimate, task_startup_s: float) -> LevelTerms:
    """What :func:`level_makespan` reads of a job, from its estimate.

    ``==`` :meth:`~repro.whatif.jobmodel.JobKernel.terms` under the settings
    the estimate was made for (which a walk asks instead): a slot-seconds
    term is the job's tasks times (task time + ``task_startup_s``).
    """
    return (
        estimate.total_s,
        estimate.num_map_tasks * (estimate.map_task_s + task_startup_s),
        estimate.num_reduce_tasks * (estimate.reduce_task_s + task_startup_s),
        estimate.shuffle_s,
        estimate.startup_s,
    )


def level_makespan(terms: Sequence[LevelTerms], cluster: ClusterSpec) -> float:
    """Makespan of one level of concurrently runnable jobs, from their level terms."""
    if not terms:
        return 0.0
    if len(terms) == 1:
        return terms[0][0]
    totals, map_slot_seconds, reduce_slot_seconds, shuffles, startups = zip(*terms)
    map_slots, reduce_slots = cluster.job_model_constants[3:5]

    # Bound (a): slot-constrained aggregate work, summed left to right.
    aggregate_bound = (
        left_sum(map_slot_seconds) / map_slots
        + left_sum(reduce_slot_seconds) / reduce_slots
        + max(shuffles)
        + max(startups)
    )

    # Bound (b): the slowest individual job run with the whole cluster.
    return max(aggregate_bound, max(totals))


def workflow_makespan(
    per_level_estimates: Sequence[Sequence[JobTimeEstimate]],
    cluster: ClusterSpec,
) -> float:
    """Total workflow runtime: levels run one after another.  Only
    ``bench/tracing.py`` reads it (``WhatIfEngine.run_costing`` sums its own)."""
    task_startup_s = cluster.task_startup_s
    return left_sum(
        level_makespan([level_terms(estimate, task_startup_s) for estimate in level], cluster)
        for level in per_level_estimates
    )
