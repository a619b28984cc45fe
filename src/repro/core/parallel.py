"""The request / experiment-cell pool: one :class:`Pool`, one :class:`Session`.

Two callers fan work out, one level above the (serial) unit search: the
planning server runs whole requests on a pool
(:meth:`~repro.service.server.PlanningServer._ensure_session`) and the
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
:meth:`Session.stream` yields each ``(index, response)`` the moment its
reply arrives, in completion order; :meth:`Session.run` collects that
stream back into request order.  Either way the responses are the same.

A forked session has one dispatch path: the parent keeps every worker busy
with exactly one request and hands out the next the moment a response
arrives, which balances *heterogeneous* request costs — a worker stuck on
an expensive request no longer strands the cheap ones behind it.  Dispatch
never changes results — only which worker computes them — and every session
reports what it did in :attr:`Session.dispatch_stats`.  The pool survives
worker deaths: an in-flight request whose worker vanished is retried once
on a surviving worker, and only a repeat failure (or a pool with no
survivors) raises.  ``docs/search.md`` records the measurements behind the
one pool kind, the one dispatch path and the one fan-out level.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.faults import fault_site
from repro.common.store import ShardedStore, attributed, current_origin

__all__ = ["DispatchStats", "MAX_TASK_ATTEMPTS", "Pool", "Session"]

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
    busiest worker drains its share.  A ``steal`` is any request that ran on
    a different worker than round-robin dealing (``index % workers``) would
    have assigned; the counters additionally record worker deaths and the
    requests retried across them.
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
        self, worker_fn: Callable[[Any], Any], stores: Sequence[ShardedStore] = ()
    ) -> "Session":
        """Open a fan-out session executing ``worker_fn`` per request over ``stores``."""
        return Session(self, worker_fn, tuple(stores))


def _worker_main(conn, worker_fn, stores: Tuple[ShardedStore, ...], label, worker_slot: int) -> None:
    """Loop of one forked worker: execute one request at a time until told to stop.

    Runs in the child process.  Everything the worker needs beyond the
    requests (registered plans, the stores, the server or harness) was
    inherited through ``fork`` — requests and responses are the only data
    crossing the pipe, so they must be plain picklable values.  Each request
    runs :func:`~repro.common.store.attributed` over the stores under the
    *session opener's* origin label (whatever label was active at the fork),
    and its reply carries the exact per-store deltas; on stop the worker
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
            failure = None
            with attributed(stores, label) as deltas:
                try:
                    fault_site("parallel.task", worker_slot=worker_slot)
                    response = worker_fn(message[1])
                except BaseException:
                    failure = traceback.format_exc()
            if failure is not None:
                conn.send(("error", failure))
                break
            conn.send(("done", response, deltas))
    except EOFError:  # pragma: no cover - parent died; nothing left to do
        pass
    finally:
        conn.close()
        # Exit without running the parent's atexit/pytest machinery the
        # child inherited through fork.
        os._exit(0)


class Session:
    """One fan-out scope: a batch-oriented ``request -> response`` executor.

    Sessions exist because a fork pool must fork *after* the data its
    workers need (prepared workloads, the server's registry) has been
    created: the caller opens a session, issues :meth:`stream` or :meth:`run`
    calls (a request batch, a cell list), and closes it, at which point
    worker state is merged back.  ``stream`` yields each response as it
    finishes; ``run`` collects them in request order regardless of how
    requests were distributed.  Every session accumulates a
    :class:`DispatchStats` across its calls.
    """

    def __init__(
        self,
        pool: Pool,
        worker_fn: Callable[[Any], Any],
        stores: Tuple[ShardedStore, ...],
    ) -> None:
        self._pool = pool
        self._worker_fn = worker_fn
        self._stores = stores
        # Captured when the session opens (e.g. inside an experiment cell),
        # then re-established in whichever worker runs each request.
        self._label: Optional[str] = current_origin()
        self.dispatch_stats = DispatchStats(workers=pool.workers)
        self._workers: List[Tuple[Any, Any]] = []  # (connection, process)
        self._dead: Set[int] = set()  # slots whose worker died or errored
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

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty before the lazy fork)."""
        return [
            process.pid
            for slot, (_conn, process) in enumerate(self._workers)
            if slot not in self._dead
        ]

    # Workers are forked lazily, on the first run() call with more than one
    # request, so the session captures the freshest possible parent state
    # (e.g. cache entries from work done between session creation and first
    # fan-out) and a session that never fans out never forks.
    def _ensure_workers(self) -> None:
        if self._workers:
            return
        ctx = multiprocessing.get_context("fork")
        for slot in range(self._pool.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, self._worker_fn, self._stores, self._label, slot),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((parent_conn, process))

    def stream(self, requests: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        """Execute every request, yielding ``(index, response)`` as each finishes.

        A forked session yields a reply right after folding in its stats
        deltas, in completion order; the inline path yields after each
        request, in request order.  A consumer that stops iterating while
        requests are still in flight closes the session, so no later call
        can read one of their replies as its own.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        self.dispatch_stats.runs += 1
        if not self._pool.forks or len(requests) <= 1:
            # Inline: a serial pool, or a batch not worth a pipe round-trip —
            # identical by the determinism contract.  worker_slot=-1: the
            # caller, never a target for pool-worker kill specs.
            for index, request in enumerate(requests):
                fault_site("parallel.task", worker_slot=-1)
                response = self._worker_fn(request)
                self.dispatch_stats.record(0)
                yield index, response
            return
        self._ensure_workers()
        if not self._alive_slots():
            raise RuntimeError("parallel worker pool has no live workers left")
        yield from self._stream_on_workers(requests)

    def run(self, requests: Sequence[Any]) -> List[Any]:
        """Execute every request and return responses in request order."""
        responses: List[Any] = [None] * len(requests)
        for index, response in self.stream(requests):
            responses[index] = response
        return responses

    def _alive_slots(self) -> List[int]:
        return [slot for slot in range(len(self._workers)) if slot not in self._dead]

    def _mark_dead(self, slot: int) -> Any:
        """Reap a dead worker's process; returns it for error reporting."""
        _conn, process = self._workers[slot]
        _reap_process(process)
        self._dead.add(slot)
        self.dispatch_stats.worker_deaths += 1
        return process

    def _stream_on_workers(self, requests: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        """Parent-driven dispatch: idle workers get requests one at a time.

        The parent keeps every worker busy with exactly one request and
        hands out the next the moment a response arrives
        (``multiprocessing.connection.wait``).  One request = one reply
        carrying its response and its stats deltas, so a death loses
        precisely the in-flight request's delta together with its response —
        the absorbed stats can never double-count or miss a merge.  The
        orphaned request is retried on a surviving worker (up to
        :data:`MAX_TASK_ATTEMPTS` executions); the run only fails if a
        request exhausts its attempts, every worker dies, or a request
        raises inside ``worker_fn``, and only after every reply still in
        flight has been received and yielded.
        """
        stats = self.dispatch_stats
        total_workers = len(self._workers)
        pending: deque = deque(enumerate(requests))
        attempts: Dict[int, int] = {}
        in_flight: Dict[Any, Tuple[int, int]] = {}  # conn -> (request index, slot)
        errors: List[str] = []
        aborting = False

        def conn_of(slot: int):
            return self._workers[slot][0]

        while pending or in_flight:
            if not aborting:
                busy = {slot for _index, slot in in_flight.values()}
                for slot in self._alive_slots():
                    if not pending:
                        break
                    if slot in busy:
                        continue
                    index, request = pending.popleft()
                    try:
                        conn_of(slot).send(("run", request))
                    except (BrokenPipeError, ConnectionError, OSError):
                        # Died while idle: the request never executed, so it
                        # goes back without consuming one of its attempts.
                        self._mark_dead(slot)
                        pending.appendleft((index, request))
                        continue
                    # Executions, not deliveries, count against the cap — a
                    # send that failed above cost the request nothing.
                    attempts[index] = attempts.get(index, 0) + 1
                    in_flight[conn_of(slot)] = (index, slot)
            if not in_flight:
                if pending and not aborting:
                    undelivered = sorted(index for index, _request in pending)
                    errors.append(
                        f"requests {undelivered} undeliverable: no live workers left"
                    )
                pending.clear()
                break
            for conn in _mp_connection.wait(list(in_flight)):
                index, slot = in_flight.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, ConnectionError, OSError):
                    process = self._mark_dead(slot)
                    if attempts[index] >= MAX_TASK_ATTEMPTS:
                        errors.append(
                            f"request {index} failed {attempts[index]} times across "
                            f"worker deaths (last pid {process.pid}, "
                            f"exit code {process.exitcode})"
                        )
                        aborting = True
                    else:
                        stats.retried_tasks += 1
                        pending.appendleft((index, requests[index]))
                    continue
                if message[0] == "error":
                    # worker_fn raised — deterministic, so never retried; the
                    # worker loop exits after reporting.
                    self._dead.add(slot)
                    errors.append(message[1])
                    aborting = True
                    continue
                _tag, response, deltas = message
                # "Stolen" = ran somewhere other than its round-robin slot.
                stats.record(slot, stolen=index % total_workers != slot)
                # The parent's counters never saw the child's work: fold the
                # whole delta in (global stats + attribution sinks).
                self._apply_deltas(deltas)
                try:
                    yield index, response
                except GeneratorExit:
                    # Abandoned with replies still owed: close, so no later
                    # call reads one of them as its own.
                    if in_flight:
                        self.close()
                    raise
        if errors:
            self.close()
            raise RuntimeError(
                "parallel worker pool failed:\n" + "\n".join(errors)
            )

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
