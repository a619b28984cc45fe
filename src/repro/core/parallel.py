"""The request / experiment-cell pool: one :class:`Pool`, one :class:`Session`.

Two callers fan work out, one level above the (serial) unit search: the
planning server runs whole requests on a pool
(:meth:`~repro.service.server.PlanningServer.submit`) and the
experiment harness whole (workload, optimizer) cells
(:meth:`~repro.experiments.harness.ExperimentHarness.run`).  Both
read the shared :class:`~repro.common.store.ShardedStore` s but never each
other's results, and at that grain a fork pool measurably pays (8 cells
1.18 s on ``process:2`` against 1.49 s serial; the server's fresh-seed
requests 1.25 s against 2.31 s — ``docs/search.md``).

A pool is a spec string parsed once: ``"serial"`` runs every request
inline, in order — the reference — and ``"process:N"`` forks ``N`` worker
processes.  Workflow operators are closures and therefore not picklable, so
workers are forked *after* the plans they serve exist and inherit them by
memory sharing; only plain-data requests (indices, request tuples) and
plain-data responses cross the pipe.  Each worker keeps a private shard of
every store the session was opened with; the request's stats deltas ride
back with its response and the worker's new entries merge into the
parent's stores when the session ends ("merge on join").

Determinism contract: a pool only changes *where* a request runs, never
its result.  The cost service guarantees bit-identical estimates with or
without cache reuse, and every search derives its RNG streams from stable keys —
so the fork pool, at any worker count, produces byte-for-byte the same
optimizer decisions as the serial pool (``tests/test_work_stealing.py``,
``test_experiment_orchestration.py``, ``test_planning_service.py``).

A forked session has one dispatch core: the parent hands each free worker
exactly one request and the next the moment its reply arrives, which
balances *heterogeneous* request costs — a worker stuck on an expensive
request no longer strands the cheap ones behind it.  The core is
non-blocking (:meth:`Session.send`, :meth:`Session.receive`), so the
planning server drives it from its event loop, one reader per worker
connection, while :meth:`Session.stream` drives it with a blocking
``connection.wait`` loop and yields each ``(index, response)`` the moment
its reply arrives, in completion order; :meth:`Session.run` collects that
stream back into request order.  Dispatch never changes results — only
which worker computes them — and every session reports what it did in
:attr:`Session.dispatch_stats`.  The pool survives worker deaths: an
in-flight request whose worker vanished is retried once on a surviving
worker, and only a repeat failure (or a pool with no survivors) fails it.
Failure handling is written once, in the core, for both drivers.
``docs/search.md`` records the measurements behind the one pool kind, the
one dispatch path and the one fan-out level.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.faults import fault_site
from repro.common.store import ShardedStore, attributed, current_origin

__all__ = ["DispatchStats", "MAX_TASK_ATTEMPTS", "Pool", "Reply", "Session"]

#: How many times one request may be *executed* before a worker death makes
#: it fail for good: the first attempt plus one retry.
MAX_TASK_ATTEMPTS = 2


def _reap_process(process, timeout: float = 5.0) -> None:
    """Join ``process``, escalating to terminate then kill until it is gone.

    A plain ``join(timeout=)`` can expire and leave a zombie (or a live
    orphan still holding the inherited memory) behind; a worker that
    ignores SIGTERM — stuck in uninterruptible I/O, or masked by the fault
    harness — must still be reaped, so the escalation ends in SIGKILL,
    which cannot be ignored.
    """
    process.join(timeout=timeout)
    if process.is_alive():
        process.terminate()
        process.join(timeout=timeout)
    if process.is_alive():  # pragma: no cover - SIGTERM-proof worker
        process.kill()
        process.join(timeout=timeout)


@dataclass
class DispatchStats:
    """How one session distributed its requests across workers.

    ``tasks_per_worker`` counts the requests each worker executed;
    :attr:`idle_cost_units` condenses the imbalance into a single counter —
    the requests' worth of time workers collectively sit idle while the
    busiest worker drains its share.  ``runs`` counts dispatches, one per
    request handed out (a retry is not a new one), so ``tasks / runs`` — the
    server's ``batch_size_mean`` — reads 1.0: requests are never batched.  A
    ``steal`` is any request that ran on a different worker than round-robin
    dealing (``dispatch number % workers``) would have assigned; the
    counters additionally record worker deaths and the requests retried
    across them.
    """

    workers: int = 1
    runs: int = 0
    tasks: int = 0
    steals: int = 0
    worker_deaths: int = 0
    retried_tasks: int = 0
    tasks_per_worker: List[int] = field(default_factory=list)

    def record(self, worker: int, stolen: bool = False) -> None:
        """Account one executed request to ``worker``."""
        while len(self.tasks_per_worker) <= worker:
            self.tasks_per_worker.append(0)
        self.tasks += 1
        self.tasks_per_worker[worker] += 1
        if stolen:
            self.steals += 1

    @property
    def load_per_worker(self) -> List[float]:
        """``tasks_per_worker`` as floats (read by the frozen ``bench/serve.py``)."""
        return [float(count) for count in self.tasks_per_worker]

    @property
    def idle_cost_units(self) -> float:
        """Requests' worth of worker idleness implied by the split.

        With per-worker task counts ``T`` over ``w`` workers this is
        ``w * max(T) - sum(T)``: while the busiest worker finishes, every
        other worker is idle for the difference.  Perfect balance gives 0.
        """
        if not self.tasks_per_worker:
            return 0.0
        width = max(len(self.tasks_per_worker), self.workers)
        return float(max(self.tasks_per_worker) * width - sum(self.tasks_per_worker))

    def accumulate(self, other: "DispatchStats") -> None:
        """Fold another session's counters into this one (for pool recycling)."""
        self.runs += other.runs
        self.tasks += other.tasks
        self.steals += other.steals
        self.worker_deaths += other.worker_deaths
        self.retried_tasks += other.retried_tasks
        self.workers = max(self.workers, other.workers)
        while len(self.tasks_per_worker) < len(other.tasks_per_worker):
            self.tasks_per_worker.append(0)
        for worker, count in enumerate(other.tasks_per_worker):
            self.tasks_per_worker[worker] += count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "runs": self.runs,
            "tasks": self.tasks,
            "steals": self.steals,
            "worker_deaths": self.worker_deaths,
            "retried_tasks": self.retried_tasks,
            "tasks_per_worker": list(self.tasks_per_worker),
            "idle_cost_units": self.idle_cost_units,
        }


class Pool:
    """A pool spec, parsed once: ``"serial"`` or ``"process:N"``.

    ``spec`` reproduces the pool (``"serial:1"``, ``"process:4"``).  Where
    the ``fork`` start method is unavailable a process pool runs every
    request inline — results are identical by the determinism contract,
    only the wall-clock benefit is lost — and its ``spec`` says so, so
    results never claim parallelism that did not happen (e.g. in
    ``ExperimentRunResult.backend``).
    """

    def __init__(self, spec: str = "serial") -> None:
        if not isinstance(spec, str):
            raise TypeError(f"a pool is a spec string like 'serial' or 'process:4', not {spec!r}")
        name, _, count = spec.strip().partition(":")
        name = name.strip().lower()
        if name not in ("serial", "process"):
            raise ValueError(
                f"unknown execution backend {name!r} in spec {spec!r}; "
                "expected 'serial' or 'process:N'"
            )
        try:
            workers = int(count) if count else None
        except ValueError:
            raise ValueError(f"bad worker count in backend spec {spec!r}") from None
        if name == "serial":
            workers = 1
        elif workers is None:
            raise ValueError(
                f"backend spec {spec!r} names no worker count; write 'process:N' "
                "(N = worker processes to fork)"
            )
        elif workers < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = workers
        #: Whether requests run in forked workers (``fork`` is POSIX-only).
        self.forks = name == "process" and "fork" in multiprocessing.get_all_start_methods()
        self.spec = f"{name}:{workers}"
        if name == "process" and not self.forks:  # pragma: no cover - non-POSIX only
            self.spec += " (serial fallback: no fork)"

    def session(
        self,
        worker_fn: Callable[[Any], Any],
        stores: Sequence[ShardedStore] = (),
        deltas_of: Optional[Callable[[Any], Tuple]] = None,
    ) -> "Session":
        """Open a fan-out session executing ``worker_fn`` per request over ``stores``.

        ``deltas_of`` reads a response's per-store deltas, in ``stores``
        order, when ``worker_fn`` runs its own
        :func:`~repro.common.store.attributed` scope; without it a worker
        scopes each request itself.
        """
        return Session(self, worker_fn, tuple(stores), deltas_of)


def _worker_main(
    conn,
    worker_fn,
    stores: Tuple[ShardedStore, ...],
    label,
    worker_slot: int,
    deltas_of: Optional[Callable[[Any], Tuple]],
) -> None:
    """Loop of one forked worker: execute one request at a time until told to stop.

    Runs in the child process.  Everything the worker needs beyond the
    requests (registered plans, the stores, the server or harness) was
    inherited through ``fork`` — requests and responses are the only data
    crossing the pipe, so they must be plain picklable values.  Each reply
    carries the request's exact per-store deltas: read off the response by
    ``deltas_of`` when ``worker_fn`` runs its own
    :func:`~repro.common.store.attributed` scope (the reply then pickles
    them once, as part of the response), else captured by a scope opened
    here under the *session opener's* origin label.  On stop the worker
    ships the entries it stored.  ``worker_slot`` identifies this worker at
    the ``parallel.task`` fault site, letting a chaos plan target one
    specific pool member.
    """
    try:
        for store in stores:
            store.start_export_log()
        while True:
            message = conn.recv()
            if message[0] == "stop":
                conn.send(("final", tuple(store.export_log_entries() for store in stores)))
                break
            try:
                fault_site("parallel.task", worker_slot=worker_slot)
                if deltas_of is None:
                    with attributed(stores, label) as deltas:
                        response = worker_fn(message[1])
                else:
                    response = worker_fn(message[1])
                    deltas = deltas_of(response)
            except BaseException:
                conn.send(("error", traceback.format_exc()))
                break
            conn.send(("done", response, deltas))
    except EOFError:  # pragma: no cover - parent died; nothing left to do
        pass
    finally:
        conn.close()
        # Exit without running the parent's atexit/pytest machinery the
        # child inherited through fork.
        os._exit(0)


#: What the dispatch core settles: ``(key, True, response)`` for a request
#: answered, ``(key, False, reason)`` for one that failed for good.
Reply = Tuple[Any, bool, Any]


class Session:
    """One fan-out scope over a pool: ``request -> response``, with one dispatch core.

    Sessions exist because a fork pool must fork *after* the data its
    workers need (prepared workloads, the server's registry) has been
    created: the caller opens a session, runs requests on it, and closes
    it, at which point worker state is merged back.

    The dispatch core is non-blocking: :meth:`send` hands a request to a
    free live worker (forking the pool at the first call) and
    :meth:`receive` reads the one reply a worker owes, with the death,
    retry and :data:`MAX_TASK_ATTEMPTS` accounting; both return the
    :data:`Reply` s they settled.  The planning server drives it from its
    event loop; :meth:`stream` and :meth:`run` drive it with a blocking
    ``connection.wait`` loop.  :meth:`run_inline` runs one request on the
    calling thread.  Every session accumulates a :class:`DispatchStats`.
    """

    def __init__(
        self,
        pool: Pool,
        worker_fn: Callable[[Any], Any],
        stores: Tuple[ShardedStore, ...],
        deltas_of: Optional[Callable[[Any], Tuple]] = None,
    ) -> None:
        self._pool = pool
        self._worker_fn = worker_fn
        self._stores = stores
        self._deltas_of = deltas_of
        # Captured when the session opens (e.g. inside an experiment cell),
        # then re-established by the scope a worker opens around a request
        # (without ``deltas_of``).
        self._label: Optional[str] = current_origin()
        self.dispatch_stats = DispatchStats(workers=pool.workers)
        self._workers: List[Tuple[Any, Any]] = []  # (connection, process)
        self._dead: Set[int] = set()  # slots whose worker died or errored
        self._idle: List[int] = []  # live slots owing no reply, ascending
        #: slot -> (key, request, dispatch number) of the request it runs.
        self._in_flight: Dict[int, Tuple[Any, Any, int]] = {}
        #: Requests waiting for a free live worker (retries go first).
        self._outbox: deque = deque()
        self._attempts: Dict[Any, int] = {}
        self._closed = False

    @property
    def forked(self) -> bool:
        """True once the lazy fork has happened (workers exist)."""
        return bool(self._workers)

    @property
    def live_workers(self) -> int:
        """Workers currently able to take requests (before a fork: the pool's size)."""
        if not self._workers:
            return self._pool.workers
        return len(self._workers) - len(self._dead)

    @property
    def ready(self) -> bool:
        """True when :meth:`send` would hand a request to a worker at once."""
        if self._closed or self._outbox:
            return False
        return not self._workers or bool(self._idle)

    @property
    def in_flight(self) -> int:
        """Requests sent and not yet settled (retries waiting included)."""
        return len(self._in_flight) + len(self._outbox)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty before the lazy fork)."""
        return [process.pid for _conn, process in self.connections().values()]

    def connections(self) -> Dict[int, Tuple[Any, Any]]:
        """The live workers' ``(connection, process)`` by slot."""
        return {
            slot: worker for slot, worker in enumerate(self._workers) if slot not in self._dead
        }

    # Workers are forked lazily, at the first send, so the session captures
    # the freshest possible parent state (e.g. cache entries from work done
    # between session creation and first fan-out) and a session that never
    # fans out never forks.
    def _ensure_workers(self) -> None:
        if self._workers:
            return
        ctx = multiprocessing.get_context("fork")
        for slot in range(self._pool.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn, self._worker_fn, self._stores, self._label, slot, self._deltas_of
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((parent_conn, process))
        self._idle = list(range(self._pool.workers))

    # ------------------------------------------------------- dispatch core
    def send(self, key: Any, request: Any) -> List[Reply]:
        """Hand ``request`` to a free live worker; ``key`` names it in its :data:`Reply`.

        Returns the requests that failed for good on the way: with no live
        worker left, everything waiting is undeliverable.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        self._ensure_workers()
        self._outbox.append((key, request, self.dispatch_stats.runs))
        self.dispatch_stats.runs += 1
        return self._deliver()

    def receive(self, slot: int) -> List[Reply]:
        """Read the reply worker ``slot`` owes, then refill idle workers.

        A death retries the request it ran on a surviving worker — up to
        :data:`MAX_TASK_ATTEMPTS` executions — and only then fails it; a
        request that raised inside ``worker_fn`` fails at once
        (deterministic, so never retried).  One request = one reply carrying
        its response and its stats deltas, so a death loses precisely the
        in-flight request's delta together with its response: the absorbed
        stats can never double-count or miss a merge.
        """
        conn, _process = self._workers[slot]
        running = self._in_flight.pop(slot, None)
        try:
            message = conn.recv()
        except (EOFError, ConnectionError, OSError):
            process = self._mark_dead(slot)
            if running is None:  # died while idle: it owed nothing
                return self._deliver()
            key = running[0]
            if self._attempts[key] < MAX_TASK_ATTEMPTS:
                self.dispatch_stats.retried_tasks += 1
                self._outbox.appendleft(running)
                replies = []
            else:
                attempts = self._attempts.pop(key)
                reason = (
                    f"failed {attempts} times across worker deaths "
                    f"(last pid {process.pid}, exit code {process.exitcode})"
                )
                replies = [(key, False, reason)]
        else:
            key, _request, number = running
            del self._attempts[key]
            if message[0] == "error":
                # The worker loop exits after reporting.
                self._dead.add(slot)
                replies = [(key, False, message[1])]
            else:
                _tag, response, deltas = message
                # "Stolen" = ran somewhere other than round-robin dealing's slot.
                self.dispatch_stats.record(slot, stolen=number % len(self._workers) != slot)
                # The parent's counters never saw the child's work: fold the
                # whole delta in (global stats + attribution sinks).
                self._apply_deltas(deltas)
                insort(self._idle, slot)
                replies = [(key, True, response)]
        return replies + self._deliver()

    def _deliver(self) -> List[Reply]:
        """Send waiting requests to idle workers; fail them all if none is left alive."""
        while self._outbox and self._idle:
            slot = self._idle.pop(0)
            key, request, number = self._outbox[0]
            try:
                self._workers[slot][0].send(("run", request))
            except (BrokenPipeError, ConnectionError, OSError):
                # Died while idle: the request never executed, so it keeps
                # its place without consuming one of its attempts.
                self._mark_dead(slot)
                continue
            self._outbox.popleft()
            # Executions, not deliveries, count against the cap.
            self._attempts[key] = self._attempts.get(key, 0) + 1
            self._in_flight[slot] = (key, request, number)
        failed: List[Reply] = []
        while self._outbox and not self.live_workers:
            key, _request, _number = self._outbox.popleft()
            self._attempts.pop(key, None)
            failed.append((key, False, "undeliverable: no live workers left"))
        return failed

    def _mark_dead(self, slot: int) -> Any:
        """Reap a dead worker's process; returns it for error reporting."""
        _conn, process = self._workers[slot]
        _reap_process(process)
        self._dead.add(slot)
        if slot in self._idle:
            self._idle.remove(slot)
        self.dispatch_stats.worker_deaths += 1
        return process

    def run_inline(self, request: Any) -> Any:
        """Run one request on the calling thread: the serial reference.

        ``worker_slot=-1`` marks the caller at the ``parallel.task`` fault
        site, never a target for pool-worker kill specs.
        """
        self.dispatch_stats.runs += 1
        fault_site("parallel.task", worker_slot=-1)
        response = self._worker_fn(request)
        self.dispatch_stats.record(0)
        return response

    # ------------------------------------------------------- blocking use
    def stream(self, requests: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        """Execute every request, yielding ``(index, response)`` as each finishes.

        A serial pool, or a batch of one request (not worth a pipe
        round-trip), runs inline, yielding in request order.  Otherwise the
        dispatch core keeps every worker busy with exactly one request and
        hands out the next the moment a reply arrives, yielding in
        completion order; the run fails only after every reply still in
        flight has been received and yielded.  A consumer that stops
        iterating while requests are still in flight closes the session, so
        no later call can read one of their replies as its own.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if not self._pool.forks or len(requests) <= 1:
            for index, request in enumerate(requests):
                yield index, self.run_inline(request)
            return
        self._ensure_workers()
        if not self.live_workers:
            raise RuntimeError("parallel worker pool has no live workers left")
        pending: deque = deque(enumerate(requests))
        errors: List[str] = []
        while True:
            while pending and not errors and self.ready:
                index, request = pending.popleft()
                errors.extend(f"request {i}: {why}" for i, _ok, why in self.send(index, request))
            if not self._in_flight:
                break
            slots = {self._workers[slot][0]: slot for slot in self._in_flight}
            for conn in _mp_connection.wait(list(slots)):
                for index, ok, value in self.receive(slots[conn]):
                    if not ok:
                        errors.append(f"request {index}: {value}")
                        continue
                    try:
                        yield index, value
                    except GeneratorExit:
                        # Abandoned with replies still owed: close, so no
                        # later call reads one of them as its own.
                        if self._in_flight:
                            self.close()
                        raise
        if pending and not errors:
            undelivered = [index for index, _request in pending]
            errors.append(f"requests {undelivered} undeliverable: no live workers left")
        if errors:
            self.close()
            raise RuntimeError("parallel worker pool failed:\n" + "\n".join(errors))

    def run(self, requests: Sequence[Any]) -> List[Any]:
        """Execute every request and return responses in request order."""
        responses: List[Any] = [None] * len(requests)
        for index, response in self.stream(requests):
            responses[index] = response
        return responses

    def _apply_deltas(self, deltas) -> None:
        for store, delta in zip(self._stores, deltas):
            store.apply_external_delta(delta)

    def close(self) -> None:
        """Tear the session down: merge the workers' new entries, reap them."""
        if self._closed:
            return
        self._closed = True
        for slot, (conn, process) in enumerate(self._workers):
            if slot in self._dead:
                conn.close()
                continue
            try:
                conn.send(("stop",))
                message = conn.recv()
                while message[0] == "done":
                    # An abandoned stream's reply: its work happened, so its
                    # deltas count like the entries merged below.
                    self._apply_deltas(message[2])
                    message = conn.recv()
                if message[0] == "final":
                    for store, entries in zip(self._stores, message[1]):
                        store.absorb_entries(entries)
            except (EOFError, BrokenPipeError, ConnectionError, OSError):
                pass
            finally:
                conn.close()
        for _conn, process in self._workers:
            _reap_process(process, timeout=10)
        self._workers = []

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
