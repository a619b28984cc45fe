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
from repro.core.decision_cache import DecisionCache
from repro.core.plan import Plan
from repro.core.rrs import RecursiveRandomSearch
from repro.core.search import StubbySearch, UnitReport, plan_decision_fingerprint
from repro.core.subresults import SubResultCatalog
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
    #: Cost-service counters for this run (what-if queries, cache hits,
    #: re-costed jobs) — the exact delta of the calling thread; ``None``
    #: when the optimizer bypassed the service.
    cost_stats: Optional[CostServiceStats] = None

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
        """Workflow-level what-if queries issued during this run."""
        return self.cost_stats.queries if self.cost_stats is not None else 0

    @property
    def transformations_applied(self) -> List[str]:
        """Names of all transformations recorded in the optimized plan."""
        return self.plan.transformations_applied()

    @property
    def unit_decision_hits(self) -> int:
        """Optimization units whose entire search was skipped via a memoized decision."""
        return sum(report.unit_decision_hits for report in self.unit_reports)

    @property
    def unit_decision_misses(self) -> int:
        """Optimization units that were searched (and whose decision was recorded)."""
        return sum(report.unit_decision_misses for report in self.unit_reports)

    @property
    def cross_origin_decision_hits(self) -> int:
        """Decision hits served by another origin (cell, run, or persisted file)."""
        return sum(report.cross_origin_decision_hits for report in self.unit_reports)

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
    """Cost-based, transformation-based optimizer for MapReduce workflows."""

    name = "Stubby"

    def __init__(
        self,
        cluster: ClusterSpec,
        phases: Sequence[str] = ("vertical", "horizontal"),
        rrs: Optional[RecursiveRandomSearch] = None,
        allow_extended_horizontal: bool = True,
        optimize_configurations: bool = True,
        seed: int = 17,
        cost_service: Optional[CostService] = None,
        backend=None,
        cache_path: Optional[str] = None,
        decision_cache: Optional[DecisionCache] = None,
        decision_cache_path: Optional[str] = None,
        subresult_catalog: Optional[SubResultCatalog] = None,
        subresult_catalog_path: Optional[str] = None,
    ) -> None:
        # Phases are validated lazily, when optimize() actually uses them, so
        # an optimizer can be constructed from not-yet-complete configuration
        # (and so per-call phase overrides go through the same validation).
        #
        # ``cache_path`` (or the STUBBY_COST_CACHE environment variable) makes
        # a standalone optimizer warm-start its cost service from a persisted
        # cache; call ``self.costs.save_cache()`` to write the store back.
        # It is ignored when an explicit ``cost_service`` is shared in.
        # ``decision_cache`` / ``decision_cache_path`` work the same way for
        # the unit-level decision memo (STUBBY_DECISION_CACHE).
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
        self.costs = CostService.ensure(cluster, cost_service, cache_path=cache_path)
        self.whatif = self.costs.engine
        self.decisions = DecisionCache.ensure(
            cluster, decision_cache, cache_path=decision_cache_path
        )
        # ``subresult_catalog`` / ``subresult_catalog_path`` wire the
        # ReStore-style sub-result reuse rewrite (STUBBY_SUBRESULT_CATALOG).
        # A fresh empty catalog is behaviourally invisible: the reuse
        # transformation proposes no applications until something registers.
        self.subresults = SubResultCatalog.ensure(
            cluster, subresult_catalog, cache_path=subresult_catalog_path
        )
        reuse = SubResultReuseTransformation(self.subresults)
        vertical = [
            reuse,
            IntraJobVerticalPacking(),
            InterJobVerticalPacking(),
            PartitionFunctionTransformation(),
        ]
        horizontal = [
            reuse,
            HorizontalPacking(allow_extended=allow_extended_horizontal),
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
        with attributed((self.costs,), current_origin()) as (cost_stats,):
            started = time.perf_counter()
            optimized, reports = self.search.run(plan, phases=selected, budget=budget)
            # The search is the reported optimization time (comparable with
            # Figure 13); the final estimate below is accounting, not search.
            elapsed = time.perf_counter() - started
            estimate = self.costs.estimate_workflow(optimized.workflow)
        return OptimizationResult(
            plan=optimized,
            estimated_cost_s=estimate.total_s,
            optimization_time_s=elapsed,
            # Label the result by the phases that actually ran, so divergence
            # reports from phase-restricted calls name the right variant.
            optimizer=self._variant_for(selected),
            unit_reports=reports,
            cost_stats=cost_stats,
        )

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
