"""Per-tenant service accounting with an exact reconciliation contract.

Every request the :class:`~repro.service.server.PlanningServer` executes
runs :func:`~repro.common.store.attributed` over the shared stores: under
the tenant's **origin label** (``tenant:<id>``) and one **attribution sink**
per store (:data:`LEDGERS`) that receives exactly the counter deltas that
request produced, wherever it ran (inline on the shared counters or a forked
worker's merged chunk payload).  :class:`ServiceStats` folds those
per-request deltas into per-tenant totals.

That design gives an *exact* invariant rather than a monitoring
approximation: because the global store counters and the per-request sinks
are incremented by the same code paths, the per-tenant totals sum to each
store's global delta **to the counter**, under
any interleaving of tenants, batches, and backends —
``tests/test_planning_service.py`` asserts it.  ``cross_origin_hits``
additionally shows how much of one tenant's traffic was answered by cache
entries another tenant (or a persisted store) paid for — the ReStore
argument for a shared warm cache, measured per tenant.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Type

from repro.common.store import CounterStats
from repro.core.decision_cache import DecisionCacheStats
from repro.core.subresults import SubResultCatalogStats
from repro.whatif.service import CostServiceStats

__all__ = ["LEDGERS", "ServiceStats", "TenantStats", "percentile"]

#: The attribution ledgers a request's response and a tenant's row carry, in
#: the server's store order: field name -> the store's counter class.
LEDGERS: Dict[str, Type[CounterStats]] = {
    "cost_stats": CostServiceStats,
    "decision_stats": DecisionCacheStats,
    "subresult_stats": SubResultCatalogStats,
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty sample."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class TenantStats:
    """Everything the service knows about one tenant's traffic."""

    tenant: str
    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    cancelled: int = 0
    completed: int = 0
    failed: int = 0
    #: Completed requests answered below the full rung (shed ones excluded).
    degraded: int = 0
    #: Degraded completions by ladder-rung label (``replay_only``…).
    degraded_by_level: Dict[str, int] = field(default_factory=dict)
    #: Requests answered with an unoptimized plan because their deadline
    #: expired before dispatch (disjoint from ``degraded``).
    shed: int = 0
    #: Circuit-breaker activity for this tenant's full searches.
    breaker_trips: int = 0
    breaker_probes: int = 0
    breaker_short_circuits: int = 0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    #: Wall-clock submit→response latency of every completed request.
    latencies: List[float] = field(default_factory=list)
    #: Exact cost-service activity attributed to this tenant's requests.
    cost_stats: CostServiceStats = field(default_factory=CostServiceStats)
    #: Exact decision-cache activity attributed to this tenant's requests.
    decision_stats: DecisionCacheStats = field(default_factory=DecisionCacheStats)
    #: Exact sub-result catalog activity attributed to this tenant's
    #: requests; ``cross_origin_hits`` here measures plans served from
    #: sub-results another tenant's executions registered.
    subresult_stats: SubResultCatalogStats = field(default_factory=SubResultCatalogStats)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this tenant's job lookups served from the cost cache."""
        return self.cost_stats.cache_hit_rate

    @property
    def decision_hit_rate(self) -> float:
        return self.decision_stats.hit_rate

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "completed": self.completed,
            "failed": self.failed,
            "degraded": self.degraded,
            "degraded_by_level": dict(self.degraded_by_level),
            "shed": self.shed,
            "breaker_trips": self.breaker_trips,
            "breaker_probes": self.breaker_probes,
            "breaker_short_circuits": self.breaker_short_circuits,
            "queue_wait_s": self.queue_wait_s,
            "service_s": self.service_s,
            "latency_p50_s": percentile(self.latencies, 50),
            "latency_p99_s": percentile(self.latencies, 99),
            "cache_hit_rate": self.cache_hit_rate,
            "decision_hit_rate": self.decision_hit_rate,
            **{ledger: getattr(self, ledger).as_dict() for ledger in LEDGERS},
        }


class ServiceStats:
    """Thread-safe per-tenant roll-up of the server's activity."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantStats] = {}
        self.batches = 0

    def tenant(self, name: str) -> TenantStats:
        """The (created-on-first-use) stats row of one tenant."""
        with self._lock:
            stats = self._tenants.get(name)
            if stats is None:
                stats = self._tenants[name] = TenantStats(tenant=name)
            return stats

    @property
    def tenants(self) -> Dict[str, TenantStats]:
        """Snapshot view of the per-tenant rows (keyed by tenant id)."""
        with self._lock:
            return dict(self._tenants)

    # ------------------------------------------------------------ recording
    def count(self, tenant: str, event: str) -> None:
        """Bump one lifecycle counter (submitted/accepted/rejected/…)."""
        stats = self.tenant(tenant)
        with self._lock:
            setattr(stats, event, getattr(stats, event) + 1)

    def record_completion(self, response, count_lifecycle: bool = True) -> None:
        """Fold one finished request's answer into its tenant's row.

        ``response`` is the :class:`~repro.service.server.PlanResponse` about
        to be delivered; its :data:`LEDGERS` fields are the request's
        attribution sinks (``None`` when the request never reached a
        worker).  ``count_lifecycle=False`` suppresses the
        completed/failed/latency counters (the client already claimed the
        request as cancelled) but still folds the attribution deltas — the
        cache counters saw the work, so the invariant requires the sinks to
        as well.  ``completed`` counts every delivered answer, full or
        degraded; ``shed`` and ``degraded`` are disjoint refinements of it
        (a shed response is counted as shed only, a non-shed sub-full
        response as degraded).
        """
        stats = self.tenant(response.tenant)
        with self._lock:
            if count_lifecycle:
                if response.ok:
                    stats.completed += 1
                    stats.latencies.append(response.latency_s)
                    if response.shed:
                        stats.shed += 1
                    elif response.degradation_level > 0:
                        stats.degraded += 1
                        by_level = stats.degraded_by_level
                        by_level[response.degradation] = by_level.get(response.degradation, 0) + 1
                else:
                    stats.failed += 1
            stats.queue_wait_s += response.queue_wait_s
            stats.service_s += response.service_s
            for ledger in LEDGERS:
                delta = getattr(response, ledger)
                if delta is not None:
                    getattr(stats, ledger).accumulate(delta)

    # ------------------------------------------------------------- roll-ups
    def total(self, ledger: str) -> CounterStats:
        """Sum of every tenant's attributed counters of one :data:`LEDGERS` entry.

        By the attribution invariant this equals the corresponding store's
        global ``stats_snapshot()`` delta over the served window.
        """
        total = LEDGERS[ledger]()
        with self._lock:
            for stats in self._tenants.values():
                total.accumulate(getattr(stats, ledger))
        return total

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            rows = {name: stats.as_dict() for name, stats in self._tenants.items()}
            batches = self.batches
        return {
            "batches": batches,
            "tenants": rows,
            **{f"total_{ledger}": self.total(ledger).as_dict() for ledger in LEDGERS},
        }

    def report(self) -> str:
        """Human-readable per-tenant table (completed, latency, hit rates)."""
        header = (
            f"{'tenant':<12} {'done':>5} {'fail':>5} {'rej':>5} {'cxl':>5} "
            f"{'p50 ms':>8} {'p99 ms':>8} {'cost hit%':>10} {'decision hit%':>14} "
            f"{'cross-origin':>13}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(self.tenants):
            stats = self.tenant(name)
            lines.append(
                f"{name:<12} {stats.completed:>5} {stats.failed:>5} "
                f"{stats.rejected:>5} {stats.cancelled:>5} "
                f"{percentile(stats.latencies, 50) * 1e3:>8.1f} "
                f"{percentile(stats.latencies, 99) * 1e3:>8.1f} "
                f"{stats.cache_hit_rate * 100:>9.1f}% "
                f"{stats.decision_hit_rate * 100:>13.1f}% "
                f"{stats.decision_stats.cross_origin_hits + stats.cost_stats.cross_origin_hits:>13}"
            )
        return "\n".join(lines)
