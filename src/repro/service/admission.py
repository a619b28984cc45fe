"""Bounded, per-tenant-fair admission control for the planning server.

A long-lived service cannot let demand queue without bound (memory, tail
latency) and cannot let one hot tenant monopolize the workers.  The
:class:`AdmissionQueue` solves both with the smallest classical mechanism:

* **bounded** — a global capacity plus an optional per-tenant capacity;
  an offer over either limit is rejected *immediately*
  (:class:`AdmissionRejected`), so the client can back off instead of
  timing out invisibly deep in a queue;
* **fair** — internally one queue *per tenant* plus a round-robin ring
  over the tenants that currently have queued work.  ``take_batch``
  drains tenants in ring order, one item per turn, so a tenant sending
  1000 requests and a tenant sending 1 both get their head-of-line request
  into the next batch;
* **deadline-aware** — an offer may carry ``priority`` (higher drains
  first *within its tenant*; fairness across tenants is untouched, so a
  high-priority flood still cannot starve the neighbours) and
  ``deadline_at`` (absolute ``time.monotonic()``).  An item whose deadline
  already passed when the server reaches it is **shed** instead of
  dispatched — handed to the ``on_shed`` callback so the server can answer
  it with a degraded plan rather than burning a worker on a result nobody
  can use in time.

The queue never blocks and deliberately knows nothing about asyncio: the
server's event loop is its one caller, offering a ticket on ``submit()``
and taking one whenever a worker is free, so it holds no lock.
Cancellation is cooperative — :meth:`remove` withdraws a queued item
(releasing its capacity); an item already taken is answered and its
answer discarded by the server.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["AdmissionQueue", "AdmissionRejected", "AdmissionStats"]


class AdmissionRejected(RuntimeError):
    """An offered request was not admitted (queue full, closed, …)."""

    def __init__(self, reason: str, tenant: str = "") -> None:
        super().__init__(f"request rejected for tenant {tenant!r}: {reason}")
        self.reason = reason
        self.tenant = tenant


@dataclass
class AdmissionStats:
    """Counters describing what the queue admitted, rejected, and served."""

    offered: int = 0
    accepted: int = 0
    rejected_full: int = 0
    rejected_tenant_full: int = 0
    rejected_closed: int = 0
    taken: int = 0
    cancelled_in_queue: int = 0
    shed_expired: int = 0
    peak_depth: int = 0

    @property
    def rejected(self) -> int:
        """Total rejections, any reason."""
        return self.rejected_full + self.rejected_tenant_full + self.rejected_closed

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected_full": self.rejected_full,
            "rejected_tenant_full": self.rejected_tenant_full,
            "rejected_closed": self.rejected_closed,
            "rejected": self.rejected,
            "taken": self.taken,
            "cancelled_in_queue": self.cancelled_in_queue,
            "shed_expired": self.shed_expired,
            "peak_depth": self.peak_depth,
        }


@dataclass
class _Entry:
    """One queued item with its drain order and optional deadline."""

    #: ``(-priority, seq)``: higher priority first, FIFO within a priority.
    order: tuple
    deadline_at: Optional[float]
    item: Any


@dataclass
class _TenantQueue:
    #: Kept sorted by ``_Entry.order`` (bisect insert); head drains first.
    items: List[_Entry] = field(default_factory=list)


class AdmissionQueue:
    """Bounded multi-tenant queue with round-robin draining.

    ``capacity`` bounds the total queued items; ``per_tenant_capacity``
    (optional) additionally bounds any single tenant's share, which is what
    actually enforces fairness under overload — without it a burst from one
    tenant can fill the whole global budget before anyone else offers.

    ``on_shed`` (an attribute, settable after construction) receives each
    item shed for an expired deadline, from within :meth:`take_batch`.
    """

    def __init__(
        self,
        capacity: int = 64,
        per_tenant_capacity: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("admission capacity must be >= 1")
        if per_tenant_capacity is not None and per_tenant_capacity < 1:
            raise ValueError("per-tenant capacity must be >= 1")
        self.capacity = capacity
        self.per_tenant_capacity = per_tenant_capacity
        self.stats = AdmissionStats()
        self.on_shed: Optional[Callable[[Any], None]] = None
        self._clock = clock
        self._tenants: Dict[str, _TenantQueue] = {}
        #: Tenants with queued work, in round-robin service order.
        self._ring: deque = deque()
        self._size = 0
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------- producers
    def offer(
        self,
        tenant: str,
        item: Any,
        priority: int = 0,
        deadline_at: Optional[float] = None,
    ) -> None:
        """Admit ``item`` for ``tenant`` or raise :class:`AdmissionRejected`.

        ``priority`` orders drains *within* the tenant's queue (higher
        first, FIFO among equals); ``deadline_at`` (absolute monotonic
        time) marks the item sheddable once passed.
        """
        self.stats.offered += 1
        if self._closed:
            self.stats.rejected_closed += 1
            raise AdmissionRejected("queue is closed", tenant)
        if self._size >= self.capacity:
            self.stats.rejected_full += 1
            raise AdmissionRejected(
                f"queue is full ({self._size}/{self.capacity})", tenant
            )
        queue = self._tenants.setdefault(tenant, _TenantQueue())
        if (
            self.per_tenant_capacity is not None
            and len(queue.items) >= self.per_tenant_capacity
        ):
            self.stats.rejected_tenant_full += 1
            raise AdmissionRejected(
                f"tenant quota is full ({len(queue.items)}/{self.per_tenant_capacity})",
                tenant,
            )
        if not queue.items and tenant not in self._ring:
            # (membership scan: the ring holds tenants, not items — tiny)
            self._ring.append(tenant)
        self._seq += 1
        entry = _Entry(order=(-priority, self._seq), deadline_at=deadline_at, item=item)
        insort(queue.items, entry, key=lambda existing: existing.order)
        self._size += 1
        self.stats.accepted += 1
        self.stats.peak_depth = max(self.stats.peak_depth, self._size)

    def remove(self, tenant: str, item: Any) -> bool:
        """Withdraw a queued item (client cancelled); True when found.

        A False return means the server already took the item — the
        caller's cancellation must then be honoured at completion time
        (the server discards the computed response).
        """
        queue = self._tenants.get(tenant)
        if queue is None:
            return False
        for position, entry in enumerate(queue.items):
            if entry.item is item:
                del queue.items[position]
                break
        else:
            return False
        self._size -= 1
        self.stats.cancelled_in_queue += 1
        # The ring entry (if any) is lazily skipped by _pop_round_robin
        # once the tenant's queue is empty.
        return True

    # ------------------------------------------------------------- consumers
    def take_batch(self, limit: int) -> List[Any]:
        """Take up to ``limit`` unexpired items, round-robin across tenants.

        Never blocks: an empty queue gives an empty list.  Items whose
        deadline passed while queued are shed — not returned — and reported
        to :attr:`on_shed` once the batch is taken, so the caller can still
        answer them.
        """
        if limit < 1:
            raise ValueError("batch limit must be >= 1")
        shed: List[Any] = []
        now = self._clock()
        batch: List[Any] = []
        while self._size and len(batch) < limit:
            item = self._pop_round_robin(shed, now)
            if item is None:
                break
            batch.append(item)
        self.stats.taken += len(batch)
        if shed and self.on_shed is not None:
            for item in shed:
                self.on_shed(item)
        return batch

    def _pop_round_robin(self, shed: List[Any], now: float) -> Optional[Any]:
        """Pop one live item from the ring-head tenant.

        Expired items at the head are shed (collected into ``shed``) until
        a live one — or an empty queue — is found.
        """
        while self._ring:
            tenant = self._ring.popleft()
            queue = self._tenants[tenant]
            while queue.items:
                entry = queue.items[0]
                if entry.deadline_at is None or now < entry.deadline_at:
                    break
                del queue.items[0]
                self._size -= 1
                self.stats.shed_expired += 1
                shed.append(entry.item)
            if not queue.items:
                continue  # emptied by remove()/shedding; drop the ring entry
            entry = queue.items.pop(0)
            self._size -= 1
            if queue.items:
                self._ring.append(tenant)
            return entry.item
        return None

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop admitting; queued items remain takeable (drain-then-stop)."""
        self._closed = True

    def reopen(self) -> None:
        """Re-admit after a close (server restart with warm caches)."""
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return self._size

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued items, total or for one tenant."""
        if tenant is None:
            return self._size
        queue = self._tenants.get(tenant)
        return len(queue.items) if queue else 0
