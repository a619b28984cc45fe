"""Annotation adjustment for packed jobs (paper §5).

Packing transformations change the jobs of the workflow, so the profile
annotations attached to the original jobs no longer describe the new jobs
directly.  Stubby *adjusts* them: for a vertical packing, the new map-task
record selectivity is the product of the packed functions' selectivities and
the new CPU cost is their sum; for a horizontal packing, the packed job's
statistics are the union of the original jobs' statistics.

Because this package stores per-operator profiles (operator identities are
preserved by packing), the primary adjustment is simply merging the operator
profile maps; the job-level aggregate statistics are then recomputed with the
paper's multiply-selectivities / sum-costs rules so that consumers which only
look at job-level numbers (e.g. the fallback cost model and reports) stay
meaningful.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.common import left_sum
from repro.workflow.annotations import ProfileAnnotation


def adjust_profile_for_intra_job_packing(
    producer: ProfileAnnotation,
    consumer: ProfileAnnotation,
) -> ProfileAnnotation:
    """Adjusted profile of the *consumer* after intra-job vertical packing.

    The consumer becomes a map-only job whose map task runs ``Mc`` followed by
    ``Rc``:  its record selectivity is the product of the old map and reduce
    selectivities and its CPU cost their sum (weighted by the records that
    reach the reduce function).
    """
    merged = consumer.merged_with(producer)
    map_selectivity = consumer.map_selectivity * consumer.reduce_selectivity
    map_cpu = (
        consumer.map_cpu_cost_per_record
        + consumer.map_selectivity * consumer.reduce_cpu_cost_per_record
    )
    return replace(
        merged,
        map_selectivity=map_selectivity,
        reduce_selectivity=1.0,
        map_cpu_cost_per_record=map_cpu,
        reduce_cpu_cost_per_record=0.0,
        output_record_bytes=consumer.output_record_bytes,
        map_output_record_bytes=consumer.output_record_bytes,
        input_record_bytes=consumer.input_record_bytes,
    )


def adjust_profile_for_inter_job_packing(
    surviving: ProfileAnnotation,
    absorbed: ProfileAnnotation,
    absorbed_into_map_side: bool,
) -> ProfileAnnotation:
    """Adjusted profile of the surviving job after inter-job vertical packing.

    ``absorbed`` is the profile of the (map-only) job that disappears; its
    selectivity multiplies into the surviving job's map or reduce side and
    its CPU cost adds to the same side.
    """
    merged = surviving.merged_with(absorbed)
    if absorbed_into_map_side:
        return replace(
            merged,
            map_selectivity=surviving.map_selectivity * absorbed.map_selectivity,
            map_cpu_cost_per_record=(
                surviving.map_cpu_cost_per_record
                + surviving.map_selectivity * absorbed.map_cpu_cost_per_record
            ),
            map_output_record_bytes=absorbed.output_record_bytes,
        )
    return replace(
        merged,
        reduce_selectivity=surviving.reduce_selectivity * absorbed.map_selectivity,
        reduce_cpu_cost_per_record=(
            surviving.reduce_cpu_cost_per_record
            + surviving.reduce_selectivity * absorbed.map_cpu_cost_per_record
        ),
        output_record_bytes=absorbed.output_record_bytes,
    )


def adjust_profile_for_horizontal_packing(
    profiles: Sequence[ProfileAnnotation],
) -> ProfileAnnotation:
    """Adjusted profile of a horizontally packed job.

    The packed job reads the shared input once; every pipeline processes each
    input record, so record selectivities add (each input record produces the
    sum of the pipelines' outputs) and CPU costs add as well.
    """
    if not profiles:
        raise ValueError("horizontal packing needs at least one profile")
    merged: Optional[ProfileAnnotation] = None
    for profile in profiles:
        merged = profile if merged is None else merged.merged_with(profile)
    assert merged is not None
    return replace(
        merged,
        map_selectivity=left_sum(p.map_selectivity for p in profiles),
        reduce_selectivity=(
            left_sum(p.map_selectivity * p.reduce_selectivity for p in profiles)
            / max(1e-12, left_sum(p.map_selectivity for p in profiles))
        ),
        map_cpu_cost_per_record=left_sum(p.map_cpu_cost_per_record for p in profiles),
        reduce_cpu_cost_per_record=max(p.reduce_cpu_cost_per_record for p in profiles),
        input_record_bytes=max(p.input_record_bytes for p in profiles),
        map_output_record_bytes=max(p.map_output_record_bytes for p in profiles),
        output_record_bytes=max(p.output_record_bytes for p in profiles),
    )
