"""The planning service's graceful-degradation ladder and circuit breaker.

Every admitted request must terminate with a *usable* plan before its
deadline.  When the full search cannot deliver that — it failed, its time
budget expired, or the tenant's breaker is open — the server steps down a
**ladder** of strictly cheaper rungs (``docs/resilience.md``):

====  ==============  =====================================================
lvl   name            what runs
====  ==============  =====================================================
0     full            the complete two-phase search (bit-identical contract)
1     replay_only     memoized decision replay only — cache hits are
                      applied, misses leave their unit untouched
2     single_phase    a best-effort vertical-only search
3     unoptimized     the validated input plan, costed but not transformed
====  ==============  =====================================================

Responses carry the level they were served at plus a reason trail, so a
degraded answer can never masquerade as the bit-identical full result.

The per-tenant :class:`CircuitBreaker` protects the whole service from a
tenant whose full searches fail repeatedly (a poisoned workload, a bad
profile): after ``failure_threshold`` consecutive full-search failures it
**opens** and the tenant's requests skip straight to the degraded rungs,
until an exponential-backoff timer lets a single **half-open probe**
attempt the full search again.  The breaker is only touched from the
server's event loop, so it needs no lock.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "DEGRADATION_LEVELS",
    "LEVEL_FULL",
    "LEVEL_REPLAY_ONLY",
    "LEVEL_SINGLE_PHASE",
    "LEVEL_UNOPTIMIZED",
    "level_name",
]

#: Ladder rungs, cheapest-last; index = degradation level.
DEGRADATION_LEVELS = ("full", "replay_only", "single_phase", "unoptimized")

LEVEL_FULL = 0
LEVEL_REPLAY_ONLY = 1
LEVEL_SINGLE_PHASE = 2
LEVEL_UNOPTIMIZED = 3

#: The breaker's three states.
BREAKER_STATES = ("closed", "open", "half_open")


def level_name(level: int) -> str:
    """The ladder rung's label for a numeric degradation level."""
    return DEGRADATION_LEVELS[level]


class CircuitBreaker:
    """Per-tenant full-search breaker (event-loop only, lock-free).

    * **closed** — full searches allowed; ``failure_threshold`` consecutive
      failures trip it open.
    * **open** — full searches denied (:meth:`allow_full` returns False and
      counts a short-circuit) until ``retry_at`` passes.
    * **half_open** — exactly one in-flight **probe** request may attempt
      the full search; its success closes the breaker and resets the
      backoff, its failure re-opens with the backoff doubled (capped at
      ``max_backoff_s``).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        backoff_s: float = 0.5,
        max_backoff_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.base_backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.current_backoff_s = backoff_s
        self.retry_at = 0.0
        self._probe_in_flight = False
        # Counters for exact reconciliation in the resilience battery.
        self.trips = 0
        self.probes = 0
        self.short_circuits = 0

    def allow_full(self) -> bool:
        """May the next request for this tenant attempt the full search?

        Mutates breaker state: an open breaker whose backoff elapsed moves
        to half-open and grants the single probe; every denial counts a
        short-circuit.
        """
        if self.state == "closed":
            return True
        if self.state == "open" and self._clock() >= self.retry_at:
            self.state = "half_open"
            self._probe_in_flight = False
        if self.state == "half_open" and not self._probe_in_flight:
            self._probe_in_flight = True
            self.probes += 1
            return True
        self.short_circuits += 1
        return False

    def record_success(self) -> None:
        """A full search completed: close and reset the backoff."""
        self.state = "closed"
        self.consecutive_failures = 0
        self.current_backoff_s = self.base_backoff_s
        self._probe_in_flight = False

    def record_failure(self) -> None:
        """A full search failed: count it; trip when the threshold is met.

        A half-open probe failure re-trips immediately (one strike), with
        the backoff doubled — the classic exponential-backoff half-open
        breaker.
        """
        self.consecutive_failures += 1
        if self.state == "half_open" or self.consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = "open"
        self.trips += 1
        self.retry_at = self._clock() + self.current_backoff_s
        self.current_backoff_s = min(self.current_backoff_s * 2, self.max_backoff_s)
        self._probe_in_flight = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures}, trips={self.trips})"
        )
