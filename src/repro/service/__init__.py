"""Optimizer-as-a-service: a long-lived, multi-tenant planning server.

The paper frames Stubby as a library call; this package wraps that library
in the ROADMAP's north-star shape — a service absorbing optimization
requests from many concurrent clients over one shared, persisted
:class:`~repro.whatif.service.CostService` and
:class:`~repro.core.decision_cache.DecisionCache`:

* :mod:`repro.service.admission` — a bounded admission queue with
  per-tenant round-robin fairness (one hot tenant cannot starve the rest),
  priority ordering within a tenant, and deadline-expired load shedding;
* :mod:`repro.service.server` — the asyncio front end
  (:class:`PlanningServer`), one event-loop thread handing each admitted
  request to a free :mod:`repro.core.parallel` worker at once;
* :mod:`repro.service.degradation` — the graceful-degradation ladder
  (full → replay-only → single-phase → unoptimized) and the per-tenant
  :class:`CircuitBreaker` guarding the full search (``docs/resilience.md``);
* :mod:`repro.service.stats` — per-tenant, origin-tagged attribution
  (:class:`ServiceStats`) whose counters sum exactly to the global cache
  totals, plus shed/degraded/breaker accounting.

The contract is the same one every other layer honours, restated for
serving: **every undegraded server answer is bit-identical to a cold
in-process ``StubbyOptimizer.optimize()``** — concurrency, dispatch order,
worker pools, shared caches, even worker crashes change only latency,
never plans.  Degraded answers are explicitly labeled
(``PlanResponse.degradation_level``), never silently substituted.
``tests/test_planning_service.py`` and ``tests/test_service_resilience.py``
enforce it under concurrent mixed-tenant load with injected faults.
"""

from repro.service.admission import AdmissionQueue, AdmissionRejected, AdmissionStats
from repro.service.degradation import (
    DEGRADATION_LEVELS,
    CircuitBreaker,
    level_name,
)
from repro.service.server import (
    OPTIMIZER_VARIANTS,
    PlanRequest,
    PlanResponse,
    PlanningServer,
    cold_optimize,
    oracle_fingerprint,
)
from repro.service.stats import ServiceStats, TenantStats

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "AdmissionStats",
    "CircuitBreaker",
    "DEGRADATION_LEVELS",
    "OPTIMIZER_VARIANTS",
    "PlanRequest",
    "PlanResponse",
    "PlanningServer",
    "ServiceStats",
    "TenantStats",
    "cold_optimize",
    "level_name",
    "oracle_fingerprint",
]
