"""Starfish comparator: cost-based configuration transformations only [8].

Starfish finds good configuration parameter settings for each MapReduce job
in the workflow using its What-if engine, but performs no vertical or
horizontal packing and no partition-function changes.  We reuse the same
What-if engine and Recursive Random Search that Stubby uses, restricted to
the configuration space of one job at a time (traversed in topological
order so upstream choices are visible when tuning downstream jobs).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.baselines.base import BaselineOptimizer
from repro.common.rng import DeterministicRNG
from repro.core.plan import Plan
from repro.core.rrs import RecursiveRandomSearch
from repro.core.transformations.configuration import ConfigurationTransformation


class StarfishOptimizer(BaselineOptimizer):
    """Per-job cost-based configuration tuning."""

    name = "Starfish"

    def __init__(
        self,
        cluster,
        rrs: Optional[RecursiveRandomSearch] = None,
        seed: int = 23,
        cost_service=None,
        cache_path=None,
    ) -> None:
        super().__init__(
            cluster,
            cost_service=cost_service,
            cache_path=cache_path,
        )
        self.rrs = rrs or RecursiveRandomSearch(
            exploration_samples=10, exploitation_samples=8, restarts=1, seed=seed
        )
        self._rng = DeterministicRNG(seed)

    def _optimize_plan(self, plan: Plan) -> Plan:
        baseline = self.costs.estimate_workflow(plan.workflow)
        if baseline.cost_basis != "whatif":
            # Without profiles Starfish cannot cost configurations; fall back
            # to the rule-of-thumb settings.
            ConfigurationTransformation.rule_of_thumb_config(plan, self.cluster)
            return plan

        for vertex in plan.workflow.topological_order():
            space = ConfigurationTransformation.space_for_job(plan, vertex.name, self.cluster)
            if not space.dimensions:
                continue
            config = plan.workflow.job(vertex.name).job.config

            def objective(point: Mapping[str, object], name: str = vertex.name, config=config) -> float:
                overlay = {name: config.with_settings(point)}  # on the plan as tuned so far
                return self.costs.estimate_workflow(plan.workflow, overlay, baseline).total_s

            result = self.rrs.search(
                space, objective, initial_point=config.as_dict(), rng=self._rng.fork(vertex.name)
            )
            if result.best_point:
                ConfigurationTransformation.apply_settings_in_place(plan, {vertex.name: result.best_point})
                plan.record(
                    ConfigurationTransformation.application_for(vertex.name, result.best_point).as_applied()
                )
                # The edit retired the base (it answers for the vertices it was taken on).
                baseline = self.costs.estimate_workflow(plan.workflow)
        return plan
