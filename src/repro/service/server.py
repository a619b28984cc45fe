"""The asyncio planning server: optimize-as-a-service over shared caches.

Request path (see ``docs/service.md`` for the full diagram)::

    client coroutine --submit()--> AdmissionQueue --take_batch(1)--> free worker
        --session.send()--> _execute() --reply--> reader callback
        --_resolve()--> _complete() --> client future

The parent runs on one thread, its event loop.  ``submit()`` offers the
ticket to the admission queue and, while a worker is free, takes the next
ticket in per-tenant round-robin order and hands it to that worker at once
(continuous dispatch), so a tenant's expensive workflow occupies one worker
while cheap requests keep flowing around it.  Each worker connection of a
fork :class:`~repro.core.parallel.Pool` has one reader on the loop, which
receives the reply, answers the ticket and hands the worker the next one:
a request's latency is its own queue wait and service time, never a
neighbour's.  A serial pool (the reference) runs each request through the
session's inline path on a thread of its own, one at a time, so the loop
keeps timing clients out while a request runs; the loop joins that thread
when it takes the answer, so no thread outlives a request.  A process pool
never runs a request in the parent.

Every request executes :func:`~repro.common.store.attributed` over the
shared stores — under the tenant's **origin label**, with one per-request
attribution sink per store — and its :class:`PlanResponse` is filled in
where the work ran, so :class:`~repro.service.stats.ServiceStats` can report
per-tenant hit rates and cross-origin reuse that reconcile exactly with the
shared caches.  Every admitted request ends in :meth:`PlanningServer._complete`.

The serving contract is the library contract, unchanged: a response's
``(plan_signature, decision_fingerprint, estimated_cost_s)`` triple is
bit-identical to what a cold, serial, in-process
:class:`~repro.core.optimizer.StubbyOptimizer` would return for the same
(workload, variant, seed) — :func:`cold_optimize` *is* that oracle, and
``tests/test_planning_service.py`` holds the server to it under
concurrent mixed-tenant load, worker crashes included.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines import make_optimizer
from repro.cluster import ClusterSpec
from repro.common.errors import OptimizationError, TerminalError
from repro.common.faults import fault_site
from repro.common.store import (
    ShardedStore,
    attributed,
    persist as persist_stores,
    resolve_env_path,
)
from repro.core.budget import TimeBudget
from repro.core.decision_cache import DecisionCache, DecisionCacheStats
from repro.core.optimizer import OptimizationResult
from repro.core.subresults import SubResultCatalog, SubResultCatalogStats
from repro.core.parallel import DispatchStats, Pool, Reply, Session
from repro.core.plan import Plan
from repro.service.admission import AdmissionQueue, AdmissionRejected
from repro.service.degradation import (
    CircuitBreaker,
    LEVEL_FULL,
    LEVEL_REPLAY_ONLY,
    LEVEL_SINGLE_PHASE,
    LEVEL_UNOPTIMIZED,
    level_name,
)
from repro.service.stats import LEDGERS, ServiceStats
from repro.whatif.service import CostService, CostServiceStats

__all__ = [
    "OPTIMIZER_VARIANTS",
    "PlanRequest",
    "PlanResponse",
    "PlanningServer",
    "cold_optimize",
    "oracle_fingerprint",
]

#: Optimizer variants the server accepts (the Stubby phase family plus the
#: rule-based Pig baseline).
OPTIMIZER_VARIANTS = ("Stubby", "Vertical", "Horizontal", "Baseline")


def cold_optimize(
    cluster: ClusterSpec,
    plan: Plan,
    optimizer: str = "Stubby",
    seed: int = 17,
    subresult_catalog: Optional[SubResultCatalog] = None,
) -> OptimizationResult:
    """The oracle: a cold, serial, in-process run of the requested variant.

    Fresh caches (nothing persisted, nothing shared), no pool —
    the baseline every server answer must be bit-identical to.  A stored
    sub-result legitimately changes which plan is optimal, so a server
    whose catalog has registrations is compared against an oracle handed an
    equal-content ``subresult_catalog``; without one the oracle runs with a
    fresh empty catalog, which is behaviourally invisible.
    """
    variant = make_optimizer(
        optimizer,
        cluster,
        seed=seed,
        cost_service=CostService(cluster),
        decision_cache=DecisionCache(cluster),
        subresult_catalog=subresult_catalog,
    )
    return variant.optimize(plan.copy())


def oracle_fingerprint(result: OptimizationResult) -> Tuple:
    """The identity triple responses are byte-compared on."""
    return (result.plan_signature(), result.decision_fingerprint(), result.estimated_cost_s)


def _owned_store(cls, cluster: ClusterSpec, store: Optional[ShardedStore], path: Optional[str]):
    """``store`` when shared in, else a fresh one on ``path`` or the class's path variable."""
    if store is None:
        return cls(cluster, cache_path=resolve_env_path(path, cls.PATH_ENV_VAR))
    return cls.ensure(cluster, store)


@dataclass(frozen=True)
class PlanRequest:
    """One client's optimization request."""

    tenant: str
    workload: str
    optimizer: str = "Stubby"
    seed: int = 17
    #: Seconds the client is willing to wait for an answer.  The remaining
    #: budget is threaded into the search as a cooperative deadline; a
    #: request still queued when its deadline passes is shed — answered
    #: with an unoptimized (level 3) plan instead of dispatched.  ``None``
    #: means no deadline.
    deadline_s: Optional[float] = None
    #: Drain order within this tenant's queue (higher first); cross-tenant
    #: fairness is unaffected.
    priority: int = 0


@dataclass
class PlanResponse:
    """The server's answer, with its exact attribution attached."""

    tenant: str
    workload: str
    optimizer: str
    seed: int
    ok: bool = False
    plan_signature: Tuple = ()
    decision_fingerprint: Tuple = ()
    estimated_cost_s: float = 0.0
    error: str = ""
    worker_pid: int = 0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    latency_s: float = 0.0
    #: Sub-result reuse rewrites recorded in the served plan.
    subresult_reuse_applications: int = 0
    #: Exact cost-service delta this request produced (its attribution sink).
    cost_stats: Optional[CostServiceStats] = None
    #: Exact decision-cache delta this request produced.
    decision_stats: Optional[DecisionCacheStats] = None
    #: Exact sub-result catalog delta this request produced.
    subresult_stats: Optional[SubResultCatalogStats] = None
    #: Ladder rung this answer was served at (0 = the full, bit-identical
    #: search; see :data:`repro.service.degradation.DEGRADATION_LEVELS`).
    degradation_level: int = 0
    degradation: str = "full"
    #: Why the response degraded (one note per rung that failed/was skipped).
    degradation_reason: str = ""
    #: True when the request was answered without dispatch because its
    #: deadline expired in the queue (always served at level 3).
    shed: bool = False

    def identity(self) -> Tuple:
        """The triple compared against :func:`oracle_fingerprint`."""
        return (self.plan_signature, self.decision_fingerprint, self.estimated_cost_s)


@dataclass
class _Outcome:
    """What one :meth:`PlanningServer._execute` call hands back across the pool.

    The answer, filled in where the work ran (the parent only stamps the
    two timings it alone can measure), plus the two facts the tenant's
    circuit breaker needs.  Plain picklable data.
    """

    response: PlanResponse
    #: The full-search rung was attempted / attempted and failed.
    full_attempted: bool = False
    full_failed: bool = False

    def deltas(self) -> Tuple:
        """The request's per-store deltas, in store order: its response's ledgers.

        A forked worker's reply carries these objects as they are, so the
        pipe carries each delta once.
        """
        response = self.response
        return tuple(getattr(response, ledger) for ledger in LEDGERS)


@dataclass(eq=False)
class _Ticket:
    """One admitted request awaiting execution.

    A ticket's lifecycle ends exactly once — either the client withdraws
    it (timeout/cancel) or the server answers it, whichever comes first.
    :meth:`claim` arbitrates: the first claimant wins, so the lifecycle
    counters record *completed xor cancelled*, never both.
    """

    request: PlanRequest
    future: "asyncio.Future[PlanResponse]"
    enqueued: float
    #: Absolute ``time.monotonic()`` deadline (``None`` = no deadline).
    deadline_at: Optional[float] = None
    #: Dispatch verdict: may this request attempt the full search?
    #: (False when the tenant's circuit breaker is open.)
    allow_full: bool = True
    #: ``time.perf_counter()`` when the ticket left the queue (sent or shed).
    dispatched: float = 0.0
    _outcome: str = ""

    @property
    def cancelled(self) -> bool:
        """True once the client's withdrawal won the claim."""
        return self._outcome == "cancelled"

    def claim(self, outcome: str) -> bool:
        """Claim the ticket's single lifecycle outcome; True for the winner."""
        if self._outcome:
            return False
        self._outcome = outcome
        return True

    def response(self, **fields) -> PlanResponse:
        """A parent-side answer to this ticket's request (``ok=False`` until filled)."""
        request = self.request
        return PlanResponse(
            tenant=request.tenant,
            workload=request.workload,
            optimizer=request.optimizer,
            seed=request.seed,
            **fields,
        )


class PlanningServer:
    """Long-lived multi-tenant front end over one shared optimizer substrate.

    ``pool`` is a :class:`~repro.core.parallel.Pool` spec string
    (``"serial"``, ``"process:2"``) — the pool that runs the
    optimizations (requests are heterogeneous; a fork pool hands idle
    workers the next one and retries a request whose worker died).  The
    server owns one shared :class:`CostService`, :class:`DecisionCache` and
    :class:`SubResultCatalog` (or accepts externally shared ones).  A store
    it builds itself warm-starts from its path — ``cache_path`` /
    ``decision_cache_path`` / ``subresult_catalog_path``, else the store's
    ``STUBBY_*`` path variable — and is merge-persisted back on :meth:`stop`.

    Workloads are registered up front (:meth:`register_workload`) — plans
    hold closure-based operators that cannot cross a pickle boundary, so a
    process pool's workers must inherit them by fork, exactly like the unit
    search inherits candidate plans.  Registration is therefore rejected
    once a fork pool has forked; :meth:`restart` re-forks with both the
    registry and the warm caches.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        pool: str = "serial",
        queue_capacity: int = 64,
        per_tenant_capacity: Optional[int] = None,
        cost_service: Optional[CostService] = None,
        decision_cache: Optional[DecisionCache] = None,
        cache_path: Optional[str] = None,
        decision_cache_path: Optional[str] = None,
        subresult_catalog: Optional[SubResultCatalog] = None,
        subresult_catalog_path: Optional[str] = None,
        breaker_threshold: int = 3,
        breaker_backoff_s: float = 0.5,
    ) -> None:
        self.cluster = cluster
        self.costs = _owned_store(CostService, cluster, cost_service, cache_path)
        self.decisions = _owned_store(DecisionCache, cluster, decision_cache, decision_cache_path)
        #: Shared sub-result catalog: plans of any tenant may reuse the
        #: stored bytes instead of recomputing — the ReStore story served
        #: multi-tenant.
        self.subresults = _owned_store(
            SubResultCatalog, cluster, subresult_catalog, subresult_catalog_path
        )
        #: The shared stores, in :data:`~repro.service.stats.LEDGERS` order:
        #: everything done per store (pool sessions, per-request sinks,
        #: persistence) loops over this.
        self.stores: Tuple[ShardedStore, ...] = (self.costs, self.decisions, self.subresults)
        self.pool = Pool(pool)
        self.admission = AdmissionQueue(queue_capacity, per_tenant_capacity)
        #: Expired-in-queue requests are answered (degraded), not dropped.
        self.admission.on_shed = self._shed_ticket
        self.stats = ServiceStats()
        #: Per-tenant full-search circuit breakers.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_config = (breaker_threshold, breaker_backoff_s)
        self._registry: Dict[str, Plan] = {}
        self._session: Optional[Session] = None
        #: Fork pool: the file descriptor read on the loop, per live worker slot.
        self._readers: Dict[int, int] = {}
        #: Serial pool: the ticket running on its own thread.
        self._inline: Optional[_Ticket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False
        self._serving = False
        #: Resolved by the dispatch that leaves nothing queued or in flight
        #: (what :meth:`stop` waits on).
        self._drained: Optional[asyncio.Future] = None
        #: Dispatch counters of already-closed sessions (pool recycles).
        self._pool_history = DispatchStats(workers=self.pool.workers)

    # -------------------------------------------------------------- registry
    def register_workload(self, name: str, plan_or_workflow) -> None:
        """Register a named, profiled workload clients can request.

        Must happen before a process pool forks: forked workers inherit the
        registry by memory, and a plan registered later would be invisible
        to them (and unpicklable to send).
        """
        if self._session is not None and self._session.forked:
            raise RuntimeError(
                "cannot register a workload after the process pool has forked; "
                "restart() the server to re-fork with the new registry"
            )
        plan = (
            plan_or_workflow
            if isinstance(plan_or_workflow, Plan)
            else Plan(plan_or_workflow)
        )
        self._registry[name] = plan

    # ------------------------------------------------------------- lifecycle
    async def start(self, serve: bool = True) -> "PlanningServer":
        """Open for traffic.  ``serve=False`` admits but does not dispatch
        (requests queue until :meth:`resume` — the drain-control used by the
        admission tests)."""
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self.admission.reopen()
        self._running = True
        if serve:
            self.resume()
        return self

    def resume(self) -> None:
        """Start dispatching admitted requests (idempotent; on the loop thread)."""
        if not self._running:
            raise RuntimeError("server is not started")
        self._serving = True
        self._dispatch()

    async def stop(self, persist: bool = True) -> None:
        """Drain queued requests, merge worker state, persist caches."""
        if not self._running:
            return
        self.admission.close()
        # Drain-then-stop, also after start(serve=False): stop() never
        # strands an accepted request.
        self.resume()
        while self._busy():
            self._drained = self._loop.create_future()
            await self._drained
        self._close_session()
        self._running = self._serving = False
        if persist:
            persist_stores(self.stores)

    async def restart(self, persist: bool = True) -> "PlanningServer":
        """Stop (merging worker caches) and start again, warm.

        For a process pool this is the warm-restart story: the old workers'
        cache shards merged on close, and the new workers fork from the
        merged parent — so the next wave's lookups hit.
        """
        await self.stop(persist=persist)
        return await self.start()

    async def __aenter__(self) -> "PlanningServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # --------------------------------------------------------------- clients
    async def submit(self, request: PlanRequest, timeout: Optional[float] = None) -> PlanResponse:
        """Submit one request; resolves when its optimization completes.

        Raises :class:`AdmissionRejected` when the queue (or the tenant's
        quota) is full, the server is stopped or runs on another event
        loop, or the request names an unknown workload/variant; raises
        :class:`asyncio.TimeoutError` after ``timeout`` seconds (the request
        is withdrawn — if it was already executing, its response is
        discarded on completion).
        """
        self.stats.count(request.tenant, "submitted")
        loop = asyncio.get_running_loop()
        if not self._running:
            self.stats.count(request.tenant, "rejected")
            raise AdmissionRejected("server is not running", request.tenant)
        if loop is not self._loop:
            self.stats.count(request.tenant, "rejected")
            raise AdmissionRejected("server runs on another event loop", request.tenant)
        if request.workload not in self._registry:
            self.stats.count(request.tenant, "rejected")
            raise AdmissionRejected(f"unknown workload {request.workload!r}", request.tenant)
        if request.optimizer not in OPTIMIZER_VARIANTS:
            self.stats.count(request.tenant, "rejected")
            raise AdmissionRejected(f"unknown optimizer {request.optimizer!r}", request.tenant)
        if request.deadline_s is not None and request.deadline_s <= 0:
            self.stats.count(request.tenant, "rejected")
            raise AdmissionRejected(
                f"deadline_s must be positive, got {request.deadline_s!r}", request.tenant
            )
        ticket = _Ticket(
            request=request,
            future=loop.create_future(),
            enqueued=time.perf_counter(),
            deadline_at=(
                time.monotonic() + request.deadline_s
                if request.deadline_s is not None
                else None
            ),
        )
        try:
            self.admission.offer(
                request.tenant,
                ticket,
                priority=request.priority,
                deadline_at=ticket.deadline_at,
            )
        except AdmissionRejected:
            self.stats.count(request.tenant, "rejected")
            raise
        self.stats.count(request.tenant, "accepted")
        self._dispatch()
        try:
            if timeout is not None:
                return await asyncio.wait_for(ticket.future, timeout)
            return await ticket.future
        except (asyncio.CancelledError, asyncio.TimeoutError):
            # First claimant wins: if the server already completed the
            # request, the cancellation is too late — the lifecycle counters
            # must show completed xor cancelled, never both.
            if ticket.claim("cancelled"):
                self.stats.count(request.tenant, "cancelled")
            self.admission.remove(request.tenant, ticket)
            raise

    # -------------------------------------------------------------- dispatch
    def _dispatch(self) -> None:
        """Hand queued tickets to free workers at once, until either runs out.

        Called whenever one may have appeared: a ticket admitted, a reply
        received, :meth:`resume`.  Resolves :attr:`_drained` once nothing is
        queued or in flight.
        """
        while self._serving and self._worker_free():
            taken = self.admission.take_batch(1)
            if not taken:
                break
            ticket = taken[0]
            work = self._admit(ticket)
            if self.pool.forks:
                self._settle(self._session.send(ticket, work))
                self._tend()
            else:
                self._inline = ticket
                threading.Thread(
                    target=self._run_inline, args=(self._session.run_inline, work), daemon=True
                ).start()
        if self._drained is not None and not self._busy():
            self._drained.set_result(None)
            self._drained = None

    def _worker_free(self) -> bool:
        session = self._session
        if session is None:
            session = self._session = self.pool.session(
                self._execute, self.stores, deltas_of=_Outcome.deltas
            )
        if not self.pool.forks:
            return self._inline is None
        # A session that lost a worker takes nothing new: it drains, _tend()
        # recycles it, and the next dispatch re-forks at full strength.
        return session.ready and session.live_workers == self.pool.workers

    def _busy(self) -> bool:
        """Anything queued or in flight."""
        return bool(
            len(self.admission)
            or self._inline is not None
            or (self._session is not None and self._session.in_flight)
        )

    def _admit(self, ticket: _Ticket) -> Tuple[str, str, str, int, Optional[float], bool]:
        """Stamp a ticket leaving the queue with its breaker verdict; its work tuple.

        The breaker is consulted here, at dispatch, so the verdict rides
        into the worker as plain data.
        """
        request = ticket.request
        breaker = self.breaker(request.tenant)
        probing = breaker.state != "closed"
        ticket.allow_full = breaker.allow_full()
        if ticket.allow_full and probing:
            self.stats.count(request.tenant, "breaker_probes")
        elif not ticket.allow_full:
            self.stats.count(request.tenant, "breaker_short_circuits")
        ticket.dispatched = time.perf_counter()
        return (
            request.tenant,
            request.workload,
            request.optimizer,
            request.seed,
            ticket.deadline_at,
            ticket.allow_full,
        )

    def _on_reply(self, slot: int) -> None:
        """Reader callback of worker ``slot``: settle its reply, refill the pool."""
        self._settle(self._session.receive(slot))
        self._tend()
        self._dispatch()

    def _run_inline(self, run_inline, work) -> None:
        """Serial pool, on the request's own thread: run it, hand the result to the loop."""
        try:
            result = (True, run_inline(work))
        except Exception:
            result = (False, "worker pool failed: " + traceback.format_exc())
        self._loop.call_soon_threadsafe(
            self._on_inline_done, threading.current_thread(), result
        )

    def _on_inline_done(self, thread: threading.Thread, result: Tuple[bool, object]) -> None:
        thread.join()  # its last act was to schedule this call: returns at once
        ticket, self._inline = self._inline, None
        ok, value = result
        if ok:
            self._resolve(ticket, value)
        else:
            self._resolve_error(ticket, value)
        self._dispatch()

    def _settle(self, replies: List[Reply]) -> None:
        for ticket, ok, value in replies:
            if ok:
                self._resolve(ticket, value)
            else:
                # The pool failed the request: its workers kept dying under
                # it, none is left, or it raised outside the ladder.
                self._resolve_error(ticket, f"worker pool failed: {value}")

    def _tend(self) -> None:
        """Keep one reader per live worker; recycle a session that lost one.

        A fork pool survives individual deaths; once the damaged session
        owes no reply it closes (merging the survivors' caches) and the
        next dispatch re-forks at full strength.
        """
        session = self._session
        if len(self._readers) != session.live_workers:
            live = session.connections()
            for slot in [slot for slot in self._readers if slot not in live]:
                self._loop.remove_reader(self._readers.pop(slot))
            for slot, (conn, _process) in live.items():
                if slot not in self._readers:
                    self._readers[slot] = conn.fileno()
                    self._loop.add_reader(self._readers[slot], self._on_reply, slot)
        if session.live_workers < self.pool.workers and not session.in_flight:
            self._close_session()

    def _close_session(self) -> None:
        session, self._session = self._session, None
        for fd in self._readers.values():
            self._loop.remove_reader(fd)
        self._readers.clear()
        if session is not None:
            self._pool_history.accumulate(session.dispatch_stats)
            session.close()

    def breaker(self, tenant: str) -> CircuitBreaker:
        """The (created-on-first-use) circuit breaker of one tenant."""
        breaker = self._breakers.get(tenant)
        if breaker is None:
            threshold, backoff = self._breaker_config
            breaker = self._breakers[tenant] = CircuitBreaker(
                failure_threshold=threshold, backoff_s=backoff
            )
        return breaker

    def _execute(self, work: Tuple[str, str, str, int, Optional[float], bool]) -> _Outcome:
        """Worker-side: run one optimization down the degradation ladder.

        Runs on whatever worker the pool chose (a forked process, or the
        serial pool's per-request thread); returns only plain picklable data.
        Rungs are attempted cheapest-last; a rung's transient failure (or an
        expired time budget) steps down to the next, so every request ends
        in *some* usable plan — only a
        :class:`~repro.common.errors.TerminalError` (or the whole ladder
        failing) produces an ``ok=False`` response.
        """
        started = time.perf_counter()
        outcome = self._climb(work)
        # Last, once the ladder's frame is gone: freeing the search state only
        # it held is work done here too, so the service time covers it.
        outcome.response.service_s = time.perf_counter() - started
        return outcome

    def _climb(self, work: Tuple[str, str, str, int, Optional[float], bool]) -> _Outcome:
        """:meth:`_execute`'s ladder, in a frame of its own."""
        tenant, workload, optimizer, seed, deadline_at, allow_full = work
        response = PlanResponse(tenant=tenant, workload=workload, optimizer=optimizer, seed=seed)
        outcome = _Outcome(response)
        budget = TimeBudget(deadline_at=deadline_at) if deadline_at is not None else None
        notes: List[str] = []
        with self._answering(response):
            fault_site("server.execute", tenant=tenant, workload=workload, optimizer=optimizer)
            plan = self._registry[workload]
            rungs: List[int] = []
            if allow_full:
                rungs.append(LEVEL_FULL)
            else:
                notes.append("full: skipped (circuit breaker open)")
            if optimizer != "Baseline":
                # Baseline never runs the unit search: replay/single-phase
                # would just repeat the full rung, so its ladder skips them.
                rungs.extend((LEVEL_REPLAY_ONLY, LEVEL_SINGLE_PHASE))
            rungs.append(LEVEL_UNOPTIMIZED)
            for rung in rungs:
                name = level_name(rung)
                if rung != LEVEL_UNOPTIMIZED and budget is not None and budget.expired:
                    # No budget left to search with: only the final rung
                    # can still answer in time.
                    notes.append(f"{name}: skipped (deadline exhausted)")
                    continue
                if rung == LEVEL_FULL:
                    outcome.full_attempted = True
                try:
                    fault_site(
                        f"server.rung.{name}",
                        tenant=tenant,
                        workload=workload,
                        optimizer=optimizer,
                    )
                    result = self._run_rung(rung, optimizer, seed, plan, budget)
                except Exception as exc:
                    if rung == LEVEL_FULL:
                        outcome.full_failed = True
                    if isinstance(exc, TerminalError):
                        # No rung can fix a terminal failure; the request
                        # fails outright.
                        raise
                    notes.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                self._fill(response, result, rung)
                break
            else:
                raise OptimizationError("degradation ladder exhausted: " + "; ".join(notes))
        response.degradation_reason = "; ".join(notes)
        return outcome

    @contextmanager
    def _answering(self, response: PlanResponse):
        """Run the body as ``response``'s tenant and stamp what it did.

        The body runs :func:`~repro.common.store.attributed` over the shared
        stores under the tenant's origin label; afterwards the response
        carries the process it ran in, each store's exact delta (the
        :data:`~repro.service.stats.LEDGERS` fields) and — when the body
        raised — the traceback instead of a plan.  The caller times it.
        """
        response.worker_pid = os.getpid()
        with attributed(self.stores, f"tenant:{response.tenant}") as sinks:
            try:
                yield
            except Exception:
                response.ok = False
                response.error = traceback.format_exc()
        for ledger, sink in zip(LEDGERS, sinks):
            setattr(response, ledger, sink)

    def _fill(self, response: PlanResponse, result: OptimizationResult, level: int) -> None:
        """Write a served plan (and the ladder rung it was served at) onto ``response``."""
        response.ok = True
        response.plan_signature = result.plan_signature()
        response.decision_fingerprint = result.decision_fingerprint()
        response.estimated_cost_s = result.estimated_cost_s
        response.subresult_reuse_applications = result.subresult_reuse_applications
        response.degradation_level = level
        response.degradation = level_name(level)

    def _run_rung(
        self,
        rung: int,
        optimizer: str,
        seed: int,
        plan: Plan,
        budget: Optional[TimeBudget],
    ) -> OptimizationResult:
        """Execute one ladder rung; the caller handles its failure."""
        if rung == LEVEL_UNOPTIMIZED:
            return self._unoptimized_result(plan)
        variant = make_optimizer(
            optimizer,
            self.cluster,
            seed=seed,
            cost_service=self.costs,
            decision_cache=self.decisions,
            subresult_catalog=self.subresults,
        )
        if rung == LEVEL_REPLAY_ONLY:
            # Memoized replay only: decision-cache hits are applied, misses
            # leave their unit untouched (and store nothing).
            variant.search.replay_only = True
            return variant.optimize(plan.copy(), budget=budget)
        if rung == LEVEL_SINGLE_PHASE:
            return variant.optimize(plan.copy(), phases=("vertical",), budget=budget)
        return variant.optimize(plan.copy(), budget=budget)

    def _unoptimized_result(self, plan: Plan) -> OptimizationResult:
        """The ladder's floor: the input plan, validated and costed as-is."""
        copied = plan.copy()
        copied.workflow.validate()
        estimate = self.costs.estimate_workflow(copied.workflow)
        return OptimizationResult(
            plan=copied,
            estimated_cost_s=estimate.total_s,
            optimization_time_s=0.0,
            optimizer="Unoptimized",
        )

    # ------------------------------------------------------------ resolution
    def _resolve(self, ticket: _Ticket, outcome: _Outcome) -> None:
        """Answer a dispatched request with what its worker handed back."""
        self._record_full_outcome(
            ticket.request.tenant, outcome.full_attempted, outcome.full_failed, outcome.response.ok
        )
        self._complete(ticket, outcome.response, counted=ticket.claim("completed"))

    def _resolve_error(self, ticket: _Ticket, error: str) -> None:
        """Fail a dispatched request the pool could not run."""
        # A pool-level failure killed the full search this ticket was
        # allowed to attempt; the breaker must see it.
        self._record_full_outcome(ticket.request.tenant, ticket.allow_full, True, False)
        response = ticket.response(error=error)
        self._complete(ticket, response, counted=ticket.claim("completed"))

    def _shed_ticket(self, ticket: _Ticket) -> None:
        """Answer a deadline-expired, never-dispatched request (degraded).

        Called by the admission queue for items shed in ``take_batch``.  The
        response is the ladder floor — an unoptimized, validated, costed
        plan — delivered late rather than dropped: the zero-hung-requests
        contract.
        """
        ticket.dispatched = time.perf_counter()
        response = ticket.response(
            shed=True, degradation_reason="shed: deadline expired before dispatch"
        )
        with self._answering(response):
            plan = self._registry[response.workload]
            self._fill(response, self._unoptimized_result(plan), LEVEL_UNOPTIMIZED)
        response.service_s = time.perf_counter() - ticket.dispatched
        self._complete(ticket, response, counted=ticket.claim("completed"))

    def _record_full_outcome(
        self, tenant: str, full_attempted: bool, full_failed: bool, ok: bool
    ) -> None:
        """Feed one request's full-search outcome to the tenant's breaker."""
        if not full_attempted:
            return
        breaker = self.breaker(tenant)
        if full_failed or not ok:
            trips_before = breaker.trips
            breaker.record_failure()
            if breaker.trips > trips_before:
                self.stats.count(tenant, "breaker_trips")
        else:
            breaker.record_success()

    def _complete(self, ticket: _Ticket, response: PlanResponse, counted: bool) -> None:
        """The one end of every admitted request: stamp, account, deliver.

        Stamps the two timings only the parent can measure, folds the
        response into its tenant's row, and resolves the client's future.
        The tenant's ledger always folds the attribution deltas — the work
        happened, so the invariant must include it even for a request the
        client already claimed as cancelled; the lifecycle counters record
        completed xor cancelled (``counted``: did the server win the claim).
        """
        response.queue_wait_s = ticket.dispatched - ticket.enqueued
        response.latency_s = time.perf_counter() - ticket.enqueued
        self.stats.record_completion(response, count_lifecycle=counted)
        if not ticket.future.done():
            ticket.future.set_result(response)

    # -------------------------------------------------------------- insight
    def dispatch_stats(self) -> DispatchStats:
        """Aggregated pool accounting across every session so far."""
        total = DispatchStats(workers=self.pool.workers)
        total.accumulate(self._pool_history)
        if self._session is not None:
            total.accumulate(self._session.dispatch_stats)
        return total

    def worker_pids(self) -> List[int]:
        """PIDs of the live pool workers (process pools only; else [])."""
        session = self._session
        return session.worker_pids() if session is not None else []
