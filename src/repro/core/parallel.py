"""The request / experiment-cell pool: execution backends for whole units of work.

Two callers fan work out, one level above the (serial) unit search: the
planning server runs whole requests on a pool
(:meth:`~repro.service.server.PlanningServer._ensure_session`) and the
experiment scheduler whole (workload, optimizer) cells
(:meth:`~repro.experiments.scheduler.ExperimentScheduler.map_cells`).  Both
read the shared :class:`~repro.common.store.ShardedStore` s but never each
other's results, and at that grain a fork pool measurably pays (8 cells
1.18 s on ``process:2`` against 1.49 s serial; the server's fresh-seed
requests 1.25 s against 2.31 s — ``docs/search.md``):

* :class:`SerialBackend` — the reference implementation: a plain loop.
* :class:`ProcessBackend` — ``fork``-based worker processes.  Workflow
  operators are closures and therefore not picklable, so workers are forked
  *after* the plans they serve exist and inherit them by memory sharing;
  only plain-data requests (indices, request tuples) and plain-data
  responses cross the pipe.  Each worker keeps a private shard of every
  store that is merged back into the parent's when the session ends
  ("merge on join").

Determinism contract: a backend only changes *where* a request runs, never
its result.  The cost service guarantees bit-identical estimates with or
without cache reuse, every search derives its RNG streams from stable keys,
and responses come back in request order — so the fork pool, at any worker
count, produces byte-for-byte the same optimizer decisions as
:class:`SerialBackend` (``tests/test_work_stealing.py``,
``test_experiment_orchestration.py``, ``test_planning_service.py``).

Backends are selected by spec strings — ``"serial"``, ``"process:4"`` —
through :func:`create_backend`; :func:`resolve_backend` also takes an
instance or ``None`` (serial).

A forked session has one dispatch path: the parent keeps every worker busy
with exactly one request and hands out the next the moment a response
arrives, which balances *heterogeneous* request costs — a worker stuck on
an expensive request no longer strands the cheap ones behind it.  Dispatch
never changes results — only which worker computes them — and every session
reports what it did in :attr:`BackendSession.dispatch_stats`.  The pool
survives worker deaths: an in-flight request whose worker vanished is
retried once on a surviving worker, and only a repeat failure (or a pool
with no survivors) raises.  ``docs/search.md`` records the measurements
behind the one pool kind, the one dispatch path and the one fan-out level.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.faults import fault_site
from repro.common.store import attributed, current_origin

__all__ = [
    "BackendSession",
    "DispatchStats",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SideChannel",
    "create_backend",
    "resolve_backend",
    "store_side_channel",
]

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


def _request_loads(requests: Sequence[Any], costs: Optional[Sequence[float]]) -> List[float]:
    """Per-request cost weights (default 1.0 each) for load accounting."""
    if costs is None:
        return [1.0] * len(requests)
    if len(costs) != len(requests):
        raise ValueError(
            f"costs length {len(costs)} does not match {len(requests)} requests"
        )
    return [float(cost) for cost in costs]


@dataclass
class DispatchStats:
    """How one session distributed its requests across workers.

    ``load_per_worker`` sums the caller-declared request costs (``costs=``
    of :meth:`BackendSession.run`, 1.0 per request by default) each worker
    executed; :attr:`idle_cost_units` condenses the imbalance into a single
    counter — the cost units workers collectively sit idle while the most
    loaded worker drains its share.  A ``steal`` is any request that ran on
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
    load_per_worker: List[float] = field(default_factory=list)

    def record(self, worker: int, load: float = 1.0, stolen: bool = False) -> None:
        """Account one executed request to ``worker``."""
        while len(self.tasks_per_worker) <= worker:
            self.tasks_per_worker.append(0)
            self.load_per_worker.append(0.0)
        self.tasks += 1
        self.tasks_per_worker[worker] += 1
        self.load_per_worker[worker] += load
        if stolen:
            self.steals += 1

    @property
    def idle_cost_units(self) -> float:
        """Total cost units of worker idleness implied by the load split.

        With per-worker loads ``L`` over ``w`` workers this is
        ``w * max(L) - sum(L)``: while the busiest worker finishes, every
        other worker is idle for the difference.  Perfect balance gives 0.
        """
        if not self.load_per_worker:
            return 0.0
        width = max(len(self.load_per_worker), self.workers)
        loads = list(self.load_per_worker) + [0.0] * (width - len(self.load_per_worker))
        return max(loads) * width - sum(loads)

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
            self.load_per_worker.append(0.0)
        for worker, count in enumerate(other.tasks_per_worker):
            self.tasks_per_worker[worker] += count
        for worker, load in enumerate(other.load_per_worker):
            self.load_per_worker[worker] += load

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "runs": self.runs,
            "tasks": self.tasks,
            "steals": self.steals,
            "worker_deaths": self.worker_deaths,
            "retried_tasks": self.retried_tasks,
            "tasks_per_worker": list(self.tasks_per_worker),
            "load_per_worker": list(self.load_per_worker),
            "idle_cost_units": self.idle_cost_units,
        }


@dataclass
class SideChannel:
    """Hooks moving store state between a fork session's workers and its parent.

    Built by :func:`store_side_channel` (which says what each hook does for
    the stores), consumed by the fork session: a worker calls
    ``worker_init`` once, runs each request inside ``with chunk() as
    payload`` — the *picklable* payload is complete once the scope closes —
    and answers ``final_export()`` when told to stop; the parent feeds each
    payload to ``chunk_absorb_foreign`` and each export to ``final_absorb``.
    """

    worker_init: Callable[[], None]
    chunk: Callable[[], ContextManager[Any]]
    chunk_absorb_foreign: Callable[[Any], None]
    final_export: Callable[[], Any]
    final_absorb: Callable[[Any], None]


def store_side_channel(*stores) -> SideChannel:
    """Wire :class:`~repro.common.store.ShardedStore` s into one session's side channel.

    One factory serves the cost service, the decision cache and the
    sub-result catalog alike, alone or together (a backend session holds
    exactly one :class:`SideChannel`; chunk payloads and final exports are
    tuples with one slot per store).  No stores yield a channel whose hooks
    loop over nothing.

    * ``worker_init`` starts each worker-side export log, so new entries
      can be merged back to the parent on join.
    * ``chunk`` is :func:`~repro.common.store.attributed` over the stores:
      a fresh sink per store in the worker, capturing the request's exact
      stats deltas, under the *session opener's* origin label — so a worker
      tags entries with the cell or tenant that opened the session whatever
      label was active at the fork.
    * ``chunk_absorb_foreign`` folds the deltas in fully: the worker's
      activity never touched this process's counters.
    * ``final_export``/``final_absorb`` merge the worker's new entries into
      the parent stores when the session joins.
    """
    # Captured when the session opens (e.g. inside an experiment cell), then
    # re-established in whichever worker runs each request.
    label = current_origin()

    def worker_init() -> None:
        for store in stores:
            store.start_export_log()

    def chunk_absorb_foreign(sinks: Tuple) -> None:
        for store, sink in zip(stores, sinks):
            store.apply_external_delta(sink)

    def final_export() -> Tuple:
        return tuple(store.export_log_entries() for store in stores)

    def final_absorb(exports: Tuple) -> None:
        for store, entries in zip(stores, exports):
            store.absorb_entries(entries)

    return SideChannel(
        worker_init=worker_init,
        chunk=lambda: attributed(stores, label),
        chunk_absorb_foreign=chunk_absorb_foreign,
        final_export=final_export,
        final_absorb=final_absorb,
    )


class BackendSession(ABC):
    """One fan-out scope: a batch-oriented ``request -> response`` executor.

    Sessions exist because the process backend must fork *after* the data
    its workers need (prepared workloads, the server's registry) has been
    created: the caller opens a session, issues :meth:`run` calls (a cell
    list, a request batch), and closes it, at which point worker state is
    merged back.  ``run`` preserves request order in its response list
    regardless of how requests were distributed.

    Every session exposes :attr:`dispatch_stats`, a :class:`DispatchStats`
    accumulated across all of its ``run`` calls.  ``run`` optionally takes
    ``costs=`` — caller-declared per-request cost weights used for load
    accounting and nothing else: dispatch order stays FIFO, so costs
    influence the *report*, not the results.
    """

    #: Accumulated dispatch accounting; every concrete session assigns its own.
    dispatch_stats: DispatchStats
    #: True once requests run in other processes (a fork pool after its lazy fork).
    forked = False

    @abstractmethod
    def run(self, requests: Sequence[Any], costs: Optional[Sequence[float]] = None) -> List[Any]:
        """Execute every request and return responses in request order."""

    @property
    def live_workers(self) -> int:
        """Workers currently able to take requests (an inline session: itself)."""
        return 1

    def worker_pids(self) -> List[int]:
        """PIDs of the live pool workers (none for a session that runs inline)."""
        return []

    def close(self) -> None:
        """Tear the session down (merge worker state, reap workers)."""

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ExecutionBackend(ABC):
    """Factory of :class:`BackendSession` objects for one execution style."""

    #: Spec name ("serial" / "process").
    name: str = "backend"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = workers

    @abstractmethod
    def session(
        self,
        worker_fn: Callable[[Any], Any],
        side_channel: Optional[SideChannel] = None,
    ) -> BackendSession:
        """Open a fan-out session executing ``worker_fn`` per request."""

    @property
    def spec(self) -> str:
        """The spec string reproducing this backend (``name:workers``)."""
        return f"{self.name}:{self.workers}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


# ---------------------------------------------------------------------------
# Serial
# ---------------------------------------------------------------------------


class _SerialSession(BackendSession):
    def __init__(self, worker_fn: Callable[[Any], Any]) -> None:
        self._worker_fn = worker_fn
        self.dispatch_stats = DispatchStats(workers=1)

    def run(self, requests: Sequence[Any], costs: Optional[Sequence[float]] = None) -> List[Any]:
        loads = _request_loads(requests, costs)
        self.dispatch_stats.runs += 1
        responses: List[Any] = []
        for position, request in enumerate(requests):
            # worker_slot=-1: serial execution runs on the caller, never in a
            # pool member — kill specs targeting pool slots must not fire here.
            fault_site("parallel.task", worker_slot=-1, backend="serial")
            responses.append(self._worker_fn(request))
            self.dispatch_stats.record(0, loads[position])
        return responses


class SerialBackend(ExecutionBackend):
    """The reference backend: every request runs inline, in order."""

    name = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers=1)

    def session(self, worker_fn, side_channel=None) -> BackendSession:
        # Inline execution hits the parent's service directly; no side
        # channel traffic is needed (or possible — there is no "elsewhere").
        return _SerialSession(worker_fn)


# ---------------------------------------------------------------------------
# Processes (fork)
# ---------------------------------------------------------------------------


def _process_worker_main(conn, worker_fn, side: SideChannel, worker_slot: int) -> None:
    """Loop of one forked worker: execute one request at a time until told to stop.

    Runs in the child process.  Everything the worker needs beyond the
    requests (registered plans, the stores, the server or harness) was
    inherited through ``fork`` — requests and responses are the only data
    crossing the pipe, so they must be plain picklable values.
    ``worker_slot`` identifies this worker at the ``parallel.task`` fault
    site, letting a chaos plan target one specific pool member.
    """
    try:
        side.worker_init()
        while True:
            message = conn.recv()
            if message[0] == "stop":
                conn.send(("final", side.final_export()))
                break
            failure = None
            with side.chunk() as payload:
                try:
                    fault_site("parallel.task", worker_slot=worker_slot, backend="process")
                    response = worker_fn(message[1])
                except BaseException:
                    failure = traceback.format_exc()
            if failure is not None:
                conn.send(("error", failure))
                break
            conn.send(("done", response, payload))
    except EOFError:  # pragma: no cover - parent died; nothing left to do
        pass
    finally:
        conn.close()
        # Exit without running the parent's atexit/pytest machinery the
        # child inherited through fork.
        os._exit(0)


class _ForkSession(BackendSession):
    """Fork-pool session: workers inherit memory, pipes carry plain data."""

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        workers: int,
        side_channel: SideChannel,
    ) -> None:
        self._worker_fn = worker_fn
        self._requested_workers = workers
        self._side = side_channel
        self.dispatch_stats = DispatchStats(workers=workers)
        self._ctx = multiprocessing.get_context("fork")
        self._workers: List[Tuple[Any, Any]] = []  # (connection, process)
        self._dead: Set[int] = set()  # slots whose worker died or errored
        self._closed = False

    @property
    def forked(self) -> bool:
        """True once the lazy fork has happened (workers exist)."""
        return bool(self._workers)

    @property
    def live_workers(self) -> int:
        """Workers currently able to take requests."""
        if not self._workers:
            return self._requested_workers
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
        for slot in range(self._requested_workers):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_process_worker_main,
                args=(child_conn, self._worker_fn, self._side, slot),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((parent_conn, process))

    def run(self, requests: Sequence[Any], costs: Optional[Sequence[float]] = None) -> List[Any]:
        if self._closed:
            raise RuntimeError("session is closed")
        loads = _request_loads(requests, costs)
        self.dispatch_stats.runs += 1
        if len(requests) <= 1:
            # Not worth a pipe round-trip; inline execution is identical by
            # the determinism contract.  worker_slot=-1: inline, never a
            # target for pool-worker kill specs.
            responses = []
            for request in requests:
                fault_site("parallel.task", worker_slot=-1, backend="inline")
                responses.append(self._worker_fn(request))
            for position in range(len(requests)):
                self.dispatch_stats.record(0, loads[position])
            return responses
        self._ensure_workers()
        if not self._alive_slots():
            raise RuntimeError("parallel worker pool has no live workers left")
        return self._run_on_workers(requests, loads)

    def _alive_slots(self) -> List[int]:
        return [slot for slot in range(len(self._workers)) if slot not in self._dead]

    def _mark_dead(self, slot: int) -> Any:
        """Reap a dead worker's process; returns it for error reporting."""
        _conn, process = self._workers[slot]
        _reap_process(process)
        self._dead.add(slot)
        self.dispatch_stats.worker_deaths += 1
        return process

    def _run_on_workers(self, requests: Sequence[Any], loads: List[float]) -> List[Any]:
        """Parent-driven dispatch: idle workers get requests one at a time.

        The parent keeps every worker busy with exactly one request and
        hands out the next the moment a response arrives
        (``multiprocessing.connection.wait``).  One request = one
        side-channel payload, so a death loses precisely the in-flight
        request's delta together with its response — the absorbed stats can
        never double-count or miss a merge.  The orphaned request is retried
        on a surviving worker (up to :data:`MAX_TASK_ATTEMPTS` executions);
        the run only fails if a request exhausts its attempts, every worker
        dies, or a request raises inside ``worker_fn``.
        """
        stats = self.dispatch_stats
        total_workers = len(self._workers)
        pending: deque = deque(enumerate(requests))
        attempts: Dict[int, int] = {}
        responses: List[Any] = [None] * len(requests)
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
                _tag, response, payload = message
                responses[index] = response
                # "Stolen" = ran somewhere other than its round-robin slot.
                stats.record(slot, loads[index], stolen=index % total_workers != slot)
                # The parent's counters never saw the child's queries: fold
                # the whole delta in (global stats + attribution sinks).
                self._side.chunk_absorb_foreign(payload)
        if errors:
            self.close()
            raise RuntimeError(
                "parallel worker pool failed:\n" + "\n".join(errors)
            )
        return responses

    def close(self) -> None:
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
                if message[0] == "final":
                    self._side.final_absorb(message[1])
            except (EOFError, BrokenPipeError, ConnectionError, OSError):
                pass
            finally:
                conn.close()
        for _conn, process in self._workers:
            _reap_process(process, timeout=10)
        self._workers = []


class ProcessBackend(ExecutionBackend):
    """Fork-based process backend with per-worker cache shards.

    Requires the ``fork`` start method (POSIX).  Where it is unavailable the
    backend degrades to serial in-process execution — results are identical
    by the determinism contract, only the wall-clock benefit is lost.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        super().__init__(workers=workers)
        self._fork_available = "fork" in multiprocessing.get_all_start_methods()

    @property
    def spec(self) -> str:
        """Reports the serial degradation so results never claim parallelism
        that did not happen (e.g. in ``ExperimentRunResult.backend``)."""
        if not self._fork_available:  # pragma: no cover - non-POSIX only
            return f"process:{self.workers} (serial fallback: no fork)"
        return f"process:{self.workers}"

    def session(self, worker_fn, side_channel=None) -> BackendSession:
        if not self._fork_available:  # pragma: no cover - non-POSIX only
            return _SerialSession(worker_fn)
        if side_channel is None:
            side_channel = store_side_channel()
        return _ForkSession(worker_fn, self.workers, side_channel)


# ---------------------------------------------------------------------------
# Construction / resolution
# ---------------------------------------------------------------------------


def create_backend(spec: str) -> ExecutionBackend:
    """Build a backend from a spec string: ``"serial"`` or ``"process:N"``."""
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
        return SerialBackend()
    if workers is None:
        raise ValueError(
            f"backend spec {spec!r} names no worker count; write 'process:N' "
            "(N = worker processes to fork)"
        )
    return ProcessBackend(workers=workers)


def resolve_backend(backend) -> ExecutionBackend:
    """Normalize a backend argument into an :class:`ExecutionBackend`.

    Accepts an existing backend instance, a spec string, or ``None``
    (:class:`SerialBackend`).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return SerialBackend()
    if isinstance(backend, str):
        return create_backend(backend)
    raise TypeError(
        "backend must be an ExecutionBackend, a spec string like 'process:4', or None"
    )
