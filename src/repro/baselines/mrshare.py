"""MRShare comparator: cost-based horizontal packing only [13].

MRShare shares scans across multiple MapReduce jobs that read the same
dataset, deciding *whether* to share based on a cost model — but it considers
neither vertical packing nor partition-function transformations, and (per the
paper's setup) uses a rule-based approach for configuration settings.
"""

from __future__ import annotations

from repro.baselines.base import BaselineOptimizer
from repro.core.plan import Plan
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.core.transformations.horizontal import HorizontalPacking


class MRShareOptimizer(BaselineOptimizer):
    """Cost-based horizontal packing, rule-based configuration."""

    name = "MRShare"

    def __init__(
        self,
        cluster,
        cost_service=None,
        cache_path=None,
    ) -> None:
        super().__init__(
            cluster,
            cost_service=cost_service,
            cache_path=cache_path,
        )
        self._horizontal = HorizontalPacking(allow_extended=False)

    def _optimize_plan(self, plan: Plan) -> Plan:
        ConfigurationTransformation.rule_of_thumb_config(plan, self.cluster)
        current = plan
        improved = True
        while improved:
            improved = False
            current_cost = self.costs.estimate_workflow(current.workflow).total_s
            all_jobs = tuple(current.workflow.job_names)
            applications = [
                application
                for application in self._horizontal.find_applications(current, all_jobs)
                if not application.details.get("extended", False)
            ]
            best_candidate = None
            best_cost = current_cost
            for application in applications:
                candidate = self._horizontal.apply(current, application)
                ConfigurationTransformation.rule_of_thumb_config(candidate, self.cluster)
                cost = self.costs.estimate_workflow(candidate.workflow).total_s
                if cost < best_cost:
                    best_cost = cost
                    best_candidate = candidate
            if best_candidate is not None:
                current = best_candidate
                improved = True
        return current
