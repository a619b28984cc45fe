"""Common interface shared by baseline optimizers."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Optional

from repro.cluster import ClusterSpec
from repro.common.store import attributed, current_origin
from repro.core.optimizer import OptimizationResult
from repro.core.plan import Plan
from repro.whatif.service import CostService
from repro.workflow.graph import Workflow


class BaselineOptimizer(ABC):
    """Base class giving baselines the same ``optimize`` interface as Stubby.

    Baselines issue their cost queries through the same shared
    :class:`CostService` as Stubby, so cost-based baselines (Starfish,
    MRShare) get the same incremental memoization — and report the same
    what-if statistics — as the main optimizer.  Without a ``cost_service``
    the baseline costs against a fresh in-memory one; nothing is read from
    the environment.
    """

    name = "baseline"

    def __init__(self, cluster: ClusterSpec, cost_service: Optional[CostService] = None) -> None:
        self.cluster = cluster
        self.costs = CostService.ensure(cluster, cost_service)
        self.whatif = self.costs.engine

    def optimize(self, plan_or_workflow, budget=None) -> OptimizationResult:
        """Optimize a plan (or raw workflow) with this baseline's strategy.

        ``budget`` mirrors :meth:`StubbyOptimizer.optimize`'s cooperative
        time budget.  Baselines are rule-based and effectively instant, so
        the budget is checked once up front and otherwise ignored.
        """
        plan = self._as_plan(plan_or_workflow)
        if budget is not None:
            budget.check("baseline.optimize")
        with attributed((self.costs,), current_origin()) as (cost_stats,):
            started = time.perf_counter()
            optimized = self._optimize_plan(plan.copy())
            # Only the strategy counts as optimization time; the final
            # estimate below is result accounting.
            elapsed = time.perf_counter() - started
            estimate = self.costs.estimate_workflow(optimized.workflow)
        return OptimizationResult(
            plan=optimized,
            estimated_cost_s=estimate.total_s,
            optimization_time_s=elapsed,
            optimizer=self.name,
            cost_stats=cost_stats,
        )

    @abstractmethod
    def _optimize_plan(self, plan: Plan) -> Plan:
        """Strategy-specific optimization of a private plan copy."""

    @staticmethod
    def _as_plan(plan_or_workflow) -> Plan:
        if isinstance(plan_or_workflow, Plan):
            return plan_or_workflow
        if isinstance(plan_or_workflow, Workflow):
            return Plan(plan_or_workflow)
        raise TypeError("optimize() expects a Plan or a Workflow")
