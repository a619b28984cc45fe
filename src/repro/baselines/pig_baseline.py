"""The Baseline: how an industrial-strength system (Pig) is used in production.

Paper §7: "we enabled all (rule-based) optimizations supported by Pig and
manually-tuned the configuration parameter settings using rules-of-thumb".
Pig's relevant rule-based optimization for workflows is multi-query
execution, i.e. horizontal packing of jobs that read the same input dataset —
applied whenever possible, without a cost model.  Configurations follow the
usual rules of thumb (reduce tasks just below one reduce wave, mid-sized sort
buffer, combiner on when available).
"""

from __future__ import annotations

from repro.baselines.base import BaselineOptimizer
from repro.core.plan import Plan
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.core.transformations.horizontal import HorizontalPacking


class PigBaselineOptimizer(BaselineOptimizer):
    """Rule-based horizontal packing + rule-of-thumb configuration."""

    name = "Baseline"

    def __init__(
        self,
        cluster,
        enable_multiquery: bool = True,
        cost_service=None,
        cache_path=None,
    ) -> None:
        super().__init__(
            cluster,
            cost_service=cost_service,
            cache_path=cache_path,
        )
        self.enable_multiquery = enable_multiquery
        self._horizontal = HorizontalPacking(allow_extended=False)

    def _optimize_plan(self, plan: Plan) -> Plan:
        current = plan
        if self.enable_multiquery:
            current = self._pack_shared_inputs(current)
        ConfigurationTransformation.rule_of_thumb_config(current, self.cluster)
        self._enable_combiners(current)
        return current

    def _pack_shared_inputs(self, plan: Plan) -> Plan:
        """Apply horizontal packing wherever two jobs share an input dataset."""
        current = plan
        changed = True
        while changed:
            changed = False
            all_jobs = tuple(current.workflow.job_names)
            applications = [
                application
                for application in self._horizontal.find_applications(current, all_jobs)
                if not application.details.get("extended", False)
            ]
            if applications:
                current = self._horizontal.apply(current, applications[0])
                changed = True
        return current

    @staticmethod
    def _enable_combiners(plan: Plan) -> None:
        for vertex in plan.workflow.jobs:
            if vertex.job.has_combiner:
                plan.set_job_config(vertex.name, vertex.job.config.replace(combiner_enabled=True))
