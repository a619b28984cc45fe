"""Glue binding the optimizer stack to the shared cost-estimation service.

The search, the optimizer façade, and the baselines all obtain their
:class:`~repro.whatif.service.CostService` through :func:`ensure_cost_service`
so that one service instance (and therefore one cache and one stats ledger)
can be threaded through an entire optimizer run — or shared across several
optimizers when an experiment wants cross-run reuse.

:class:`StatsWindow` captures the stats delta over a region of work; the
search uses it to attribute what-if queries, cache hits, and re-costed job
counts to individual optimization units, and the optimizer uses it to report
per-``optimize()`` totals in :class:`~repro.core.optimizer.OptimizationResult`.
"""

from __future__ import annotations

from typing import Optional

from repro.common.store import CounterStats, ShardedStore
from repro.whatif.service import CostService, CostServiceStats, resolve_cache_path

__all__ = [
    "CostService",
    "CostServiceStats",
    "StatsWindow",
    "ensure_cost_service",
    "resolve_cache_path",
]


#: ``ensure_cost_service(cluster, service=None, cache_path=None)``: the given
#: service (cluster-checked) or a fresh one warm-started from ``cache_path`` /
#: ``STUBBY_COST_CACHE`` — see :meth:`repro.common.store.ShardedStore.ensure`.
ensure_cost_service = CostService.ensure


class StatsWindow:
    """Context manager capturing a store's stats delta over a region.

    Usage::

        with StatsWindow(service) as window:
            ...cost queries...
        window.delta  # CostServiceStats with just this region's counters

    Works on any :class:`~repro.common.store.ShardedStore`; the delta is of
    the store's own counter class.
    """

    def __init__(self, service: ShardedStore) -> None:
        self.service = service
        self.delta: CounterStats = service.STATS()
        self._before: Optional[CounterStats] = None

    def __enter__(self) -> "StatsWindow":
        self._before = self.service.stats_snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._before is not None
        self.delta = self.service.stats_snapshot().since(self._before)
