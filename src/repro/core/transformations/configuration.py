"""Configuration transformation (paper §3.5).

Changes a job's configuration — reduce-task count, sort buffer, compression,
combiner — without touching the workflow graph.  There are no preconditions;
the new configuration must satisfy the conditions already present on the
job's configuration (the chaining constraint from intra-job vertical packing
and any forced-single-reduce requirement), which
:meth:`repro.mapreduce.config.JobConfig.with_settings` enforces.

Unlike the structural transformations, configuration transformations are not
enumerated exhaustively: Stubby's search drives them through Recursive Random
Search over a :class:`~repro.mapreduce.config.ConfigurationSpace` built for
each job of a candidate subplan (§4.2).  This class provides the application
mechanics (and a rule-of-thumb variant for the rule-based baselines).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.cluster import ClusterSpec
from repro.core.plan import Plan
from repro.core.transformations.base import (
    Transformation,
    TransformationApplication,
    TransformationGroup,
)
from repro.mapreduce.config import ConfigurationSpace, JobConfig


class ConfigurationTransformation(Transformation):
    """Apply a configuration point (from RRS or a rule) to one job."""

    name = "configuration"
    group = TransformationGroup.BOTH
    structural = False

    def find_applications(self, plan: Plan, unit_jobs: Sequence[str]) -> List[TransformationApplication]:
        """Configuration changes are proposed by the search (RRS), not enumerated."""
        return []

    def apply(self, plan: Plan, application: TransformationApplication) -> Plan:
        # ``set_job_config`` rebinds only the reconfigured vertex (annotations
        # and pipelines shared), so a candidate costs O(1), not O(workflow).
        new_plan = plan.copy()
        job_name = application.details["job"]
        settings: Mapping[str, object] = application.details["settings"]
        vertex = new_plan.workflow.job(job_name)
        new_plan.set_job_config(job_name, vertex.job.config.with_settings(settings))
        return self._record(new_plan, application)

    # ------------------------------------------------------------- helpers
    @staticmethod
    def application_for(job_name: str, settings: Mapping[str, object]) -> TransformationApplication:
        """Build the application record for a chosen configuration point."""
        return TransformationApplication(
            transformation=ConfigurationTransformation.name,
            target_jobs=(job_name,),
            details={"job": job_name, "settings": dict(settings)},
        )

    @staticmethod
    def space_for_job(plan: Plan, job_name: str, cluster: ClusterSpec) -> ConfigurationSpace:
        """The configuration search space of one job on one cluster."""
        vertex = plan.workflow.job(job_name)
        job = vertex.job
        max_reduce = max(1, int(cluster.total_reduce_slots * 2))
        return ConfigurationSpace.for_job(
            max_reduce_tasks=max_reduce,
            map_only=job.is_map_only,
            has_combiner=job.has_combiner,
        )

    @staticmethod
    def apply_settings_in_place(plan: Plan, settings_by_job: Dict[str, Mapping[str, object]]) -> None:
        """Apply configuration points to several jobs of ``plan`` in place."""
        for job_name, settings in settings_by_job.items():
            vertex = plan.workflow.job(job_name)
            plan.set_job_config(job_name, vertex.job.config.with_settings(settings))

    @staticmethod
    def rule_of_thumb_config(plan: Plan, cluster: ClusterSpec) -> None:
        """Apply the manually-tuned rule-of-thumb configuration to every job.

        This mirrors how the Baseline and the rule-based comparators (YSmart,
        MRShare) pick configurations in §7: a fixed recipe, not a cost model.
        """
        for vertex in plan.workflow.jobs:
            job = vertex.job
            base = JobConfig.rule_of_thumb(cluster.total_reduce_slots, map_only=job.is_map_only)
            config = job.config.replace(
                num_reduce_tasks=job.config.num_reduce_tasks if job.config.forced_single_reduce or job.is_map_only else base.num_reduce_tasks,
                split_size_mb=base.split_size_mb,
                io_sort_mb=base.io_sort_mb,
            )
            plan.set_job_config(vertex.name, config)
