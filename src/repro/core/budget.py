"""Cooperative time budgets for the optimizer search.

A :class:`TimeBudget` is an absolute deadline on the monotonic clock that
cooperating code checks at safe points — the search checks between unit
optimizations, between enumeration waves, before each candidate costing,
and per RRS sample (:mod:`repro.core.search`), so a
:class:`~repro.common.errors.DeadlineExceeded` is only ever raised
*between* evaluations, never mid-rewrite: the plan under optimization
stays consistent and the caller (the planning server's degradation
ladder) can fall back to a cheaper rung.

Deadlines are absolute on ``time.monotonic()``, which on Linux is the
system-wide ``CLOCK_MONOTONIC`` — a budget created in the server's parent is
meaningful inside a forked worker too.  An unbounded budget's ``check``
is a single attribute comparison, so threading a budget through the hot
loops costs nothing when no deadline is set.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.common.errors import DeadlineExceeded

__all__ = ["TimeBudget", "UNBOUNDED"]


class TimeBudget:
    """An absolute monotonic deadline with a cooperative ``check()``."""

    __slots__ = ("deadline_at", "_clock")

    def __init__(
        self,
        seconds: Optional[float] = None,
        deadline_at: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and deadline_at is not None:
            raise ValueError("pass seconds= or deadline_at=, not both")
        self._clock = clock
        if deadline_at is not None:
            self.deadline_at = deadline_at
        elif seconds is not None:
            self.deadline_at = clock() + seconds
        else:
            self.deadline_at = None  # unbounded

    def remaining(self) -> float:
        """Seconds until the deadline (``inf`` when unbounded, floored at 0)."""
        if self.deadline_at is None:
            return float("inf")
        return max(0.0, self.deadline_at - self._clock())

    @property
    def expired(self) -> bool:
        return self.deadline_at is not None and self._clock() >= self.deadline_at

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the deadline has passed."""
        if self.deadline_at is None:
            return
        now = self._clock()
        if now >= self.deadline_at:
            raise DeadlineExceeded(site=site, overshoot_s=now - self.deadline_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.deadline_at is None:
            return "TimeBudget(unbounded)"
        return f"TimeBudget(remaining={self.remaining():.3f}s)"


#: The shared no-op budget; ``check`` returns after one attribute read.
UNBOUNDED = TimeBudget()
