"""The Stubby optimizer facade.

:class:`StubbyOptimizer` wires together the transformation groups, the
two-phase greedy search, Recursive Random Search, and the What-if engine.
It exposes the paper's three evaluated variants:

* **Stubby** — both the Vertical and Horizontal transformation groups;
* **Vertical** — only the Vertical group (plus partition-function and
  configuration transformations);
* **Horizontal** — only the Horizontal group (plus partition-function and
  configuration transformations).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec
from repro.common.store import attributed, current_origin
from repro.core.decision_cache import DecisionCache, DecisionCacheStats
from repro.core.plan import Plan
from repro.core.rrs import RecursiveRandomSearch
from repro.core.search import StubbySearch, UnitReport, plan_decision_fingerprint
from repro.core.subresults import SubResultCatalog, SubResultCatalogStats
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
    SubResultReuseTransformation,
)
from repro.whatif.service import CostService, CostServiceStats
from repro.workflow.graph import Workflow


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run."""

    plan: Plan
    estimated_cost_s: float
    optimization_time_s: float
    optimizer: str
    unit_reports: List[UnitReport] = field(default_factory=list)
    #: The exact delta this run produced on each store — the one count of
    #: its what-if queries, memo hits, decision hits and sub-result reuse
    #: (empty for a result no ``optimize()`` scope produced).
    cost_stats: CostServiceStats = field(default_factory=CostServiceStats)
    decision_stats: DecisionCacheStats = field(default_factory=DecisionCacheStats)
    subresult_stats: SubResultCatalogStats = field(default_factory=SubResultCatalogStats)

    @property
    def num_jobs(self) -> int:
        """Number of jobs in the optimized plan."""
        return self.plan.num_jobs

    def plan_signature(self) -> Tuple:
        """Structural signature of the optimized plan."""
        return self.plan.signature()

    def decision_fingerprint(self) -> Tuple:
        """Canonical decision identity (structure + per-job configurations).

        Two results with equal fingerprints represent byte-identical
        optimizer decisions; this is the value the planning service's
        bit-identity contract (and the experiment orchestration tests)
        compare against a cold serial run.
        """
        return plan_decision_fingerprint(self.plan)

    @property
    def whatif_queries(self) -> int:
        """``cost_stats.queries``; kept for the frozen ``bench/cold.py``."""
        return self.cost_stats.queries

    @property
    def transformations_applied(self) -> List[str]:
        """Names of all transformations recorded in the optimized plan."""
        return self.plan.transformations_applied()

    @property
    def subresult_reuse_applications(self) -> int:
        """Reuse rewrites in the optimized plan: producing subgraphs replaced
        by stored catalog sub-results (exact — counted from the plan history,
        so search-time candidates that lost the cost arbitration don't show)."""
        return self.plan.count_applied(SubResultReuseTransformation.name)

    @property
    def jobs_eliminated_by_reuse(self) -> int:
        """Jobs the optimized plan no longer runs because a stored sub-result
        was substituted for their output."""
        return sum(
            len(applied.target_jobs)
            for applied in self.plan.history
            if applied.transformation == SubResultReuseTransformation.name
        )


class StubbyOptimizer:
    """Cost-based, transformation-based optimizer for MapReduce workflows.

    The optimizer sees only what it is handed: the plan's annotations and
    profiles, the cluster, and the stores.  ``cost_service``,
    ``decision_cache`` and ``subresult_catalog`` share stores in; each one
    left out is a fresh in-memory store, and nothing is read from the
    environment.  A standalone optimizer that wants a warm start passes a
    store built on the file — ``cost_service=CostService(cluster,
    cache_path=p)`` — and writes it back with ``self.costs.save_cache()``.
    """

    name = "Stubby"

    def __init__(
        self,
        cluster: ClusterSpec,
        phases: Sequence[str] = ("vertical", "horizontal"),
        rrs: Optional[RecursiveRandomSearch] = None,
        optimize_configurations: bool = True,
        seed: int = 17,
        cost_service: Optional[CostService] = None,
        backend=None,
        decision_cache: Optional[DecisionCache] = None,
        subresult_catalog: Optional[SubResultCatalog] = None,
    ) -> None:
        # Phases are validated lazily, when optimize() actually uses them, so
        # an optimizer can be constructed from not-yet-complete configuration
        # (and so per-call phase overrides go through the same validation).
        #
        # The search is serial.  ``backend`` survives only because the frozen
        # bench/cold.py passes ``backend="serial"``: nothing is stored.
        if backend not in (None, "serial", "serial:1"):
            raise ValueError(
                f"StubbyOptimizer runs its search serially and takes no backend {backend!r}; "
                "fan out whole requests with PlanningServer(pool=) or whole cells "
                "with ExperimentHarness.run(backend=)"
            )
        self.cluster = cluster
        self.phases = tuple(phases)
        self.costs = CostService.ensure(cluster, cost_service)
        self.whatif = self.costs.engine
        self.decisions = DecisionCache.ensure(cluster, decision_cache)
        # The catalog wires the ReStore-style sub-result reuse rewrite.  A
        # fresh empty catalog is behaviourally invisible: the reuse
        # transformation proposes no applications until something registers.
        self.subresults = SubResultCatalog.ensure(cluster, subresult_catalog)
        reuse = SubResultReuseTransformation(self.subresults)
        vertical = [
            reuse,
            IntraJobVerticalPacking(),
            InterJobVerticalPacking(),
            PartitionFunctionTransformation(),
        ]
        horizontal = [
            reuse,
            HorizontalPacking(),
            PartitionFunctionTransformation(),
        ]
        self.search = StubbySearch(
            cluster=cluster,
            vertical_transformations=vertical,
            horizontal_transformations=horizontal,
            rrs=rrs,
            seed=seed,
            optimize_configurations=optimize_configurations,
            cost_service=self.costs,
            decision_cache=self.decisions,
        )

    # ------------------------------------------------------------------ API
    def optimize(
        self,
        plan_or_workflow,
        phases: Optional[Sequence[str]] = None,
        budget=None,
    ) -> OptimizationResult:
        """Optimize a plan (or raw workflow) and return the optimized result.

        ``phases`` overrides the phases configured at construction for this
        one call (e.g. to run only the vertical pass on a Stubby optimizer).
        Phase names are validated here — lazily — so both the constructor
        configuration and per-call overrides fail with the same error.

        ``budget`` is an optional :class:`repro.core.budget.TimeBudget` the
        search checks cooperatively between candidate evaluations; when it
        expires the call raises :class:`~repro.common.errors.DeadlineExceeded`
        instead of returning a partially searched plan.
        """
        plan = self._as_plan(plan_or_workflow)
        selected = self._validated_phases(self.phases if phases is None else tuple(phases))
        stores = (self.costs, self.decisions, self.subresults)
        with attributed(stores, current_origin()) as ledgers:
            cost_stats, decision_stats, subresult_stats = ledgers
            started = time.perf_counter()
            optimized, reports = self.search.run(plan, phases=selected, budget=budget)
            # The search is the reported optimization time (comparable with
            # Figure 13); the final estimate below is accounting, not search.
            elapsed = time.perf_counter() - started
            estimate = self.costs.estimate_workflow(optimized.workflow)
            result = OptimizationResult(
                plan=optimized,
                estimated_cost_s=estimate.total_s,
                optimization_time_s=elapsed,
                # Label the result by the phases that actually ran, so divergence
                # reports from phase-restricted calls name the right variant.
                optimizer=self._variant_for(selected),
                unit_reports=reports,
                cost_stats=cost_stats,
                decision_stats=decision_stats,
                subresult_stats=subresult_stats,
            )
            # The one place eliminated jobs are credited: from the final plan,
            # since apply() also runs for candidates that lose the arbitration.
            self.subresults.record_jobs_eliminated(result.jobs_eliminated_by_reuse)
        return result

    @property
    def variant_name(self) -> str:
        """Stubby / Vertical / Horizontal, depending on the enabled phases."""
        return self._variant_for(self.phases)

    @classmethod
    def _variant_for(cls, phases: Sequence[str]) -> str:
        if tuple(phases) == ("vertical",):
            return "Vertical"
        if tuple(phases) == ("horizontal",):
            return "Horizontal"
        return cls.name

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _validated_phases(phases: Sequence[str]) -> tuple:
        for phase in phases:
            if phase not in ("vertical", "horizontal"):
                raise ValueError(f"unknown phase {phase!r}")
        return tuple(phases)

    @staticmethod
    def _as_plan(plan_or_workflow) -> Plan:
        if isinstance(plan_or_workflow, Plan):
            return plan_or_workflow
        if isinstance(plan_or_workflow, Workflow):
            return Plan(plan_or_workflow)
        raise TypeError("optimize() expects a Plan or a Workflow")

    @classmethod
    def vertical_only(cls, cluster: ClusterSpec, **kwargs) -> "StubbyOptimizer":
        """The paper's *Vertical* variant (§7.2)."""
        return cls(cluster, phases=("vertical",), **kwargs)

    @classmethod
    def horizontal_only(cls, cluster: ClusterSpec, **kwargs) -> "StubbyOptimizer":
        """The paper's *Horizontal* variant (§7.2)."""
        return cls(cluster, phases=("horizontal",), **kwargs)
