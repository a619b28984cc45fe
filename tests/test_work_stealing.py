"""Fork-pool dispatch: plumbing, identity, balance, fault tolerance.

The contract under test is the one ``docs/search.md`` documents for a
forked session: handing idle workers the next request changes *which
worker* runs a request and *when*, never the results — every pool returns
the same responses in request order as :class:`SerialBackend`, the
reference.  On top of identity the suite asserts the two properties the
one-request-at-a-time dispatch exists for:

* **balance** — under heterogeneous request costs the counter-based
  imbalance metric :attr:`DispatchStats.idle_cost_units` is measurably
  lower than round-robin dealing would give (a figure derived from
  ``WEIGHTS`` below), with ``steals > 0`` proving requests left their
  round-robin slot (counters, not wall clocks, so it holds on 1-CPU CI
  hosts too);
* **fault tolerance** — a worker SIGKILLed mid-request
  loses exactly that request's chunk, which is retried on a survivor up to
  ``MAX_TASK_ATTEMPTS`` times; deterministic worker exceptions are *never*
  retried; when every worker is dead the session fails loudly.
"""

import os
import signal
import time

import pytest

from repro.cluster import ClusterSpec
from repro.core.parallel import (
    MAX_TASK_ATTEMPTS,
    DispatchStats,
    ProcessBackend,
    SerialBackend,
    create_backend,
    resolve_backend,
    store_side_channel,
)
from repro.experiments import ExperimentHarness, ExperimentScheduler, build_cells

#: One expensive request among cheap ones: round-robin dealing on two
#: workers gives slots [6+1+1+1, 1+1+1+1] (idle cost 5.0); a balanced
#: split is [7, 6] (idle cost 1.0).
WEIGHTS = [6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
REQUESTS = list(range(len(WEIGHTS)))


def _round_robin_idle_cost(workers: int) -> float:
    """Idle cost units of dealing ``WEIGHTS`` up front, ``index % workers``."""
    slots = [sum(WEIGHTS[slot::workers]) for slot in range(workers)]
    return workers * max(slots) - sum(slots)


def _square(request: int) -> int:
    return request * request


def _weighted_sleep(request: int) -> int:
    time.sleep(0.02 * WEIGHTS[request])
    return request * request


def _run(spec: str, worker_fn=_square, costs=WEIGHTS):
    backend = create_backend(spec)
    with backend.session(worker_fn) as session:
        responses = session.run(REQUESTS, costs=costs)
        return responses, session.dispatch_stats


class TestDispatchStats:
    def test_record_and_idle_cost_units(self):
        stats = DispatchStats(workers=2)
        stats.record(0, 6.0)
        stats.record(1, 1.0, stolen=True)
        stats.record(1, 1.0, stolen=True)
        assert stats.tasks == 3
        assert stats.steals == 2
        assert stats.load_per_worker == [6.0, 2.0]
        # width * max(load) - sum(load): worker 1 idles 4 cost units while
        # worker 0 finishes its share.
        assert stats.idle_cost_units == pytest.approx(2 * 6.0 - 8.0)

    def test_accumulate_sums_counters_elementwise(self):
        a = DispatchStats(workers=2)
        a.record(0, 2.0)
        a.runs = 1
        b = DispatchStats(workers=3)
        b.record(2, 5.0, stolen=True)
        b.worker_deaths = 1
        b.retried_tasks = 1
        b.runs = 2
        a.accumulate(b)
        assert a.runs == 3
        assert a.tasks == 2
        assert a.steals == 1
        assert a.worker_deaths == 1
        assert a.retried_tasks == 1
        assert a.tasks_per_worker == [1, 0, 1]
        assert a.load_per_worker == [2.0, 0.0, 5.0]
        assert set(a.as_dict()) >= {"steals", "idle_cost_units"}


class TestBackendPlumbing:
    def test_create(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        backend = create_backend("process:2")
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 2
        assert backend.spec == "process:2"

    def test_create_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown execution backend 'quantum'"):
            create_backend("quantum:9")
        with pytest.raises(ValueError, match="bad worker count"):
            create_backend("process:lots")
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)

    def test_unknown_kinds_are_rejected_in_pool_terms(self, monkeypatch):
        # Regression: the message said "unknown search backend" wherever the
        # spec came from — a server pool, the cell variable.
        expected = r"unknown execution backend 'thread'.*'serial' or 'process:N'"
        with pytest.raises(ValueError, match=expected):
            create_backend("thread:2")
        monkeypatch.setenv("STUBBY_EXPERIMENT_BACKEND", "thread:2")
        with pytest.raises(ValueError, match=expected):
            ExperimentScheduler()

    def test_a_process_spec_must_name_its_worker_count(self):
        # Regression: a bare "process" silently meant four workers, whatever
        # the host had.
        with pytest.raises(ValueError, match=r"no worker count.*process:N"):
            create_backend("process")

    def test_resolve_backend_passthrough_and_env_var(self, monkeypatch):
        backend = ProcessBackend(workers=2)
        assert resolve_backend(backend) is backend
        assert resolve_backend("process:5").workers == 5
        with pytest.raises(TypeError):
            resolve_backend(42)
        # A variable is consulted only when the caller names one.
        monkeypatch.setenv("STUBBY_SOME_OTHER_BACKEND", "process:3")
        assert isinstance(resolve_backend(None), SerialBackend)
        assert resolve_backend(None, env_var="STUBBY_SOME_OTHER_BACKEND").workers == 3
        monkeypatch.delenv("STUBBY_SOME_OTHER_BACKEND")
        assert isinstance(resolve_backend(None, env_var="STUBBY_SOME_OTHER_BACKEND"), SerialBackend)

    def test_a_session_without_stores_holds_an_empty_channel(self):
        channel = store_side_channel()
        channel.worker_init()
        with channel.chunk() as payload:
            pass
        assert payload == () and channel.final_export() == ()
        channel.chunk_absorb_foreign(payload)
        channel.final_absorb(())
        # ...which is what a fork session opened without one runs on.
        with create_backend("process:2").session(lambda request: -request) as session:
            assert session.run([1, 2, 3]) == [-1, -2, -3]
            assert session.forked

    def test_an_inline_session_reports_no_pool(self):
        with create_backend("serial").session(_square) as session:
            assert session.run([3]) == [9]
            assert not session.forked
            assert session.live_workers == 1 and session.worker_pids() == []

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_session_preserves_request_order(self, spec):
        backend = create_backend(spec)
        with backend.session(_square) as session:
            assert session.run(list(range(23))) == [i * i for i in range(23)]

    def test_process_worker_errors_propagate(self):
        backend = ProcessBackend(workers=2)

        def explode(request):
            if request == 3:
                raise RuntimeError("request 3 is cursed")
            return request

        with pytest.raises(RuntimeError, match="parallel worker pool failed"):
            with backend.session(explode) as session:
                session.run(list(range(6)))


class TestStealingIdentity:
    """A fork pool returns exactly what the serial reference returns, in order."""

    @pytest.mark.parametrize("spec", ["process:1", "process:2", "process:4"])
    def test_matches_serial(self, spec):
        serial, serial_stats = _run("serial")
        pooled, stats = _run(spec)
        assert pooled == serial == [r * r for r in REQUESTS]
        assert stats.tasks == serial_stats.tasks == len(REQUESTS)
        assert sum(stats.tasks_per_worker) == len(REQUESTS)
        assert sum(stats.load_per_worker) == pytest.approx(sum(WEIGHTS))

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_cost_length_mismatch_rejected(self, spec):
        backend = create_backend(spec)
        with backend.session(_square) as session:
            with pytest.raises(ValueError, match="costs"):
                session.run(REQUESTS, costs=[1.0])


class TestStealingBalance:
    """Idle-cost imbalance shrinks when idle workers pull work."""

    def test_fork_pool_balances_heterogeneous_load(self):
        serial, _ = _run("serial")
        pooled, stats = _run("process:2", worker_fn=_weighted_sleep)
        assert pooled == serial
        # Dealing up front is fully determined: slots [9, 4] of 13 units.
        assert _round_robin_idle_cost(2) == pytest.approx(5.0)
        assert stats.steals > 0
        assert stats.idle_cost_units < _round_robin_idle_cost(2)


class TestForkFaultTolerance:
    """Worker deaths are survived or reported loudly."""

    def test_killed_worker_request_is_retried_on_survivor(self, tmp_path):
        marker = str(tmp_path / "died-once")

        def die_once(request: int) -> int:
            if request == 5:
                try:
                    # O_EXCL claim: exactly one execution of request 5 dies,
                    # the retry (and every other request) succeeds.
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.close(fd)
                    os.kill(os.getpid(), signal.SIGKILL)
                except FileExistsError:
                    pass
            return request * request

        backend = create_backend("process:2")
        with backend.session(die_once) as session:
            responses = session.run(REQUESTS, costs=WEIGHTS)
            stats = session.dispatch_stats
        assert responses == [r * r for r in REQUESTS]
        assert stats.worker_deaths == 1
        assert stats.retried_tasks == 1
        assert sum(stats.tasks_per_worker) == len(REQUESTS)

    def test_all_workers_dead_raises(self):
        def always_die(request: int) -> int:
            os.kill(os.getpid(), signal.SIGKILL)
            return request  # pragma: no cover

        backend = create_backend("process:2")
        session = backend.session(always_die)
        with pytest.raises(RuntimeError, match="parallel worker pool"):
            session.run(REQUESTS)
        session.close()

    def test_deterministic_exception_is_not_retried(self):
        def bad_request(request: int) -> int:
            if request == 3:
                raise ValueError("request 3 is always poisoned")
            return request * request

        backend = create_backend("process:2")
        session = backend.session(bad_request)
        with pytest.raises(RuntimeError, match="poisoned"):
            session.run(REQUESTS)
        assert session.dispatch_stats.retried_tasks == 0
        assert session.dispatch_stats.worker_deaths == 0
        session.close()

    def test_retry_cap_bounds_repeated_deaths(self):
        # Request 5 dies on every execution: MAX_TASK_ATTEMPTS executions
        # are allowed, then the batch aborts instead of spinning forever.
        def die_always_on_5(request: int) -> int:
            if request == 5:
                os.kill(os.getpid(), signal.SIGKILL)
            return request * request

        backend = create_backend("process:3")
        session = backend.session(die_always_on_5)
        with pytest.raises(RuntimeError, match="parallel worker pool"):
            session.run(REQUESTS)
        assert session.dispatch_stats.worker_deaths == MAX_TASK_ATTEMPTS
        session.close()


class TestExperimentSchedulerStealing:
    """map_cells on a fork pool: cell-order identity, balanced cell costs."""

    CELLS = build_cells(["w1", "w2"], ["o1", "o2", "o3", "o4"], base_seed=7)

    @staticmethod
    def _run_cell(cell):
        time.sleep(0.02 * WEIGHTS[cell.index])
        return (cell.index, cell.label, cell.seed)

    def _map(self, backend: str):
        scheduler = ExperimentScheduler(backend=backend)
        results = scheduler.map_cells(self.CELLS, self._run_cell, cell_costs=WEIGHTS)
        return results, scheduler.last_dispatch_stats

    def test_stealing_identical_and_balanced(self):
        serial, _ = self._map("serial")
        stolen, stats = self._map("process:2")
        assert stolen == serial
        assert [index for index, _, _ in stolen] == list(range(len(self.CELLS)))
        assert stats is not None
        assert stats.steals > 0
        assert stats.idle_cost_units < _round_robin_idle_cost(2)

    def test_harness_run_identical_under_stealing(self):
        def result_of(backend):
            harness = ExperimentHarness(cluster=ClusterSpec.paper_cluster(), scale=0.12)
            result = harness.run(
                workloads=("PJ",), optimizers=("Baseline", "Stubby"), backend=backend
            )
            return result, harness.last_dispatch_stats

        serial, serial_stats = result_of("serial")
        stolen, stealing_stats = result_of("process:2")
        assert stolen.decision_fingerprint() == serial.decision_fingerprint()
        assert stealing_stats is not None
        assert serial_stats is not None
        assert stealing_stats.tasks == serial_stats.tasks == 2
