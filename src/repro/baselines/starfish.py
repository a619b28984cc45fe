"""Starfish comparator: cost-based configuration transformations only [8].

Starfish finds good configuration parameter settings for each MapReduce job
in the workflow using its What-if engine, but performs no vertical or
horizontal packing and no partition-function changes.  We reuse the same
What-if engine and Recursive Random Search that Stubby uses, restricted to
the configuration space of one job at a time (traversed in topological
order so upstream choices are visible when tuning downstream jobs).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

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
    ) -> None:
        super().__init__(cluster, cost_service=cost_service)
        self.rrs = rrs or RecursiveRandomSearch(
            exploration_samples=10, exploitation_samples=8, restarts=1, seed=seed
        )
        self._rng = DeterministicRNG(seed)

    def _optimize_plan(self, plan: Plan) -> Plan:
        pending = deque(vertex.name for vertex in plan.workflow.topological_order())
        while True:
            # One session per base, the plan as tuned so far: it stays open across
            # tuned jobs until a search chooses, and the choice edits the plan
            # once the session has closed.
            chosen = None
            with self.costs.overlay(plan.workflow) as session:
                if session.estimate().cost_basis != "whatif":
                    break
                while pending and chosen is None:
                    name = pending.popleft()
                    space = ConfigurationTransformation.space_for_job(plan, name, self.cluster)
                    if not space.dimensions:
                        continue
                    result = self.rrs.search(
                        space,
                        session.objective(space, [(name, tuple(enumerate(space.names)))]),
                        initial_point=plan.workflow.job(name).job.config.as_dict(),
                        rng=self._rng.fork(name),
                    )
                    if result.best_point:
                        chosen = (name, result.best_point)
            if chosen is None:
                return plan
            name, point = chosen
            ConfigurationTransformation.apply_settings_in_place(plan, {name: point})
            plan.record(ConfigurationTransformation.application_for(name, point).as_applied())
            if not pending:
                # No job left to tune: a session now would estimate a plan
                # no one reads (optimize() prices the result itself).
                return plan
        # Without profiles Starfish cannot cost configurations; fall back to
        # the rule-of-thumb settings.
        ConfigurationTransformation.rule_of_thumb_config(plan, self.cluster)
        return plan
