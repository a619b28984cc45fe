"""Fork-pool dispatch: plumbing, identity, balance, fault tolerance.

The contract under test is the one ``docs/search.md`` documents for a
forked session: handing idle workers the next request changes *which
worker* runs a request and *when*, never the results — every pool returns
the same responses in request order as ``Pool("serial")``, the
reference.  On top of identity the suite asserts the two properties the
one-request-at-a-time dispatch exists for:

* **balance** — under heterogeneous request costs the worker stuck on the
  slow request runs fewer than its round-robin share of requests, with
  ``steals > 0`` proving requests left their round-robin slot (counters,
  not wall clocks, so it holds on 1-CPU CI hosts too);
* **fault tolerance** — a worker SIGKILLed mid-request
  loses exactly that request's chunk, which is retried on a survivor up to
  ``MAX_TASK_ATTEMPTS`` times; deterministic worker exceptions are *never*
  retried; when every worker is dead the session fails loudly.
"""

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.cluster import ClusterSpec
from repro.common.store import CounterStats, ShardedStore, current_origin
from repro.core.parallel import MAX_TASK_ATTEMPTS, DispatchStats, Pool
from repro.experiments import ExperimentHarness, ExperimentScheduler, build_cells
from repro.verification import FaultPlan, FaultSpec, install_fault_plan

#: One expensive request among cheap ones.  Slot 0 always takes a batch's
#: first request, so on two workers it sleeps through request 0 while slot
#: 1 drains the cheap ones: round-robin dealing would give each worker 4.
WEIGHTS = [6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
REQUESTS = list(range(len(WEIGHTS)))
ROUND_ROBIN_SHARE = len(REQUESTS) // 2


def _square(request: int) -> int:
    return request * request


def _weighted_sleep(request: int) -> int:
    time.sleep(0.02 * WEIGHTS[request])
    return request * request


def _slow_first(request: int) -> int:
    # Request 0 goes to slot 0 and outlasts every other request of a batch.
    if request == 0:
        time.sleep(0.5)
    return request * request


@dataclass
class _TallyStats(CounterStats):
    stores: int = 0


class _Tally(ShardedStore):
    """A minimal store: one entry and one counted store per request."""

    STATS = _TallyStats
    MAX_EXPORTED = 64

    def put(self, request: int) -> None:
        self._store((request,), request, current_origin())
        self._apply_delta(_TallyStats(stores=1))


def _run(spec: str, worker_fn=_square):
    with Pool(spec).session(worker_fn) as session:
        responses = session.run(REQUESTS)
        return responses, session.dispatch_stats


class TestDispatchStats:
    def test_record_and_idle_cost_units(self):
        stats = DispatchStats(workers=3)
        stats.record(0)
        stats.record(1, stolen=True)
        stats.record(1, stolen=True)
        assert stats.tasks == 3
        assert stats.steals == 2
        assert stats.tasks_per_worker == [1, 2]
        assert stats.load_per_worker == [1.0, 2.0]
        # width * max(tasks) - sum(tasks): worker 0 idles one request and
        # the never-used worker 2 two while worker 1 finishes its share.
        assert stats.idle_cost_units == 3 * 2 - 3

    def test_accumulate_sums_counters_elementwise(self):
        a = DispatchStats(workers=2)
        a.record(0)
        a.runs = 1
        b = DispatchStats(workers=3)
        b.record(2, stolen=True)
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
        assert a.load_per_worker == [1.0, 0.0, 1.0]
        assert set(a.as_dict()) >= {"steals", "idle_cost_units"}


class TestBackendPlumbing:
    def test_create(self):
        serial = Pool("serial")
        assert (serial.spec, serial.workers, serial.forks) == ("serial:1", 1, False)
        pool = Pool("process:2")
        assert pool.workers == 2 and pool.forks
        assert pool.spec == "process:2"

    def test_create_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown execution backend 'quantum'"):
            Pool("quantum:9")
        with pytest.raises(ValueError, match="bad worker count"):
            Pool("process:lots")
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            Pool("process:0")
        # A spec string is the only input form: no instance, no None.
        for not_a_spec in (None, 4, Pool("serial")):
            with pytest.raises(TypeError, match="spec string"):
                Pool(not_a_spec)

    def test_unknown_kinds_are_rejected_in_pool_terms(self):
        # Regression: the message said "unknown search backend" wherever the
        # spec came from — a server pool, an experiment run.
        expected = r"unknown execution backend 'thread'.*'serial' or 'process:N'"
        with pytest.raises(ValueError, match=expected):
            Pool("thread:2")
        with pytest.raises(ValueError, match=expected):
            ExperimentScheduler("thread:2")

    def test_a_process_spec_must_name_its_worker_count(self):
        # Regression: a bare "process" silently meant four workers, whatever
        # the host had.
        with pytest.raises(ValueError, match=r"no worker count.*process:N"):
            Pool("process")

    @pytest.mark.parametrize(
        "spec, expected",
        [("serial", "serial:1"), ("serial:3", "serial:1"), (" Process:2 ", "process:2")],
    )
    def test_spec_is_parsed_once_into_its_canonical_form(self, spec, expected):
        pool = Pool(spec)
        assert pool.spec == expected
        assert Pool(pool.spec).spec == expected

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_the_inline_path_visits_the_fault_site_as_the_caller(self, spec):
        # worker_slot=-1 marks a request run on the caller: every request of
        # a serial pool, and a one-request batch on a fork pool.
        inline = FaultSpec(
            site="parallel.task", kind="latency", match={"worker_slot": -1}, delay_s=0.0
        )
        with install_fault_plan(FaultPlan([inline])) as plan:
            with Pool(spec).session(_square) as session:
                assert session.run([3]) == [9]
                assert plan.fires("parallel.task") == 1
                assert session.run([1, 2]) == [1, 4]
                # The fork pool ran that batch on its workers, not inline.
                assert plan.fires("parallel.task") == (3 if spec == "serial" else 1)
                assert session.forked == (spec != "serial")

    def test_a_session_without_stores_forks_and_runs(self):
        with Pool("process:2").session(lambda request: -request) as session:
            assert session.run([1, 2, 3]) == [-1, -2, -3]
            assert session.forked

    def test_an_inline_session_reports_no_pool(self):
        with Pool("serial").session(_square) as session:
            assert session.run([3, 4]) == [9, 16]
            assert not session.forked
            assert session.live_workers == 1 and session.worker_pids() == []
        # A one-request batch takes the same inline path on a fork pool.
        with Pool("process:2").session(_square) as session:
            assert session.run([3]) == [9]
            assert not session.forked and session.worker_pids() == []
            assert session.dispatch_stats.tasks_per_worker == [1]

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_session_preserves_request_order(self, spec):
        with Pool(spec).session(_square) as session:
            assert session.run(list(range(23))) == [i * i for i in range(23)]

    def test_process_worker_errors_propagate(self):
        pool = Pool("process:2")

        def explode(request):
            if request == 3:
                raise RuntimeError("request 3 is cursed")
            return request

        with pytest.raises(RuntimeError, match="parallel worker pool failed"):
            with pool.session(explode) as session:
                session.run(list(range(6)))


class TestStream:
    """``stream`` yields each reply as it arrives; ``run`` collects request order."""

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_each_index_is_yielded_exactly_once(self, spec):
        with Pool(spec).session(_square) as session:
            streamed = list(session.stream(list(range(23))))
        assert sorted(index for index, _response in streamed) == list(range(23))
        assert all(response == index * index for index, response in streamed)

    def test_a_fork_pool_streams_in_completion_order(self):
        with Pool("process:2").session(_slow_first) as session:
            order = [index for index, _response in session.stream([0, 1, 2])]
        # Slot 1 answers 1 and 2 while slot 0 still sleeps through 0.
        assert order == [1, 2, 0]

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_run_still_returns_request_order(self, spec):
        with Pool(spec).session(_slow_first) as session:
            assert session.run([0, 1, 2]) == [0, 1, 4]

    def test_a_serial_pool_streams_inline_in_request_order(self):
        with Pool("serial").session(_square) as session:
            stream = session.stream([3, 1, 2])
            assert next(stream) == (0, 9)
            # Inline: the next request has not run until it is asked for.
            assert session.dispatch_stats.tasks == 1
            assert list(stream) == [(1, 1), (2, 4)]
            assert not session.forked

    def test_an_abandoned_stream_closes_its_session(self):
        tally = _Tally(cluster=None, max_entries=64)

        def tallied(request: int) -> int:
            tally.put(request)
            return _slow_first(request)

        session = Pool("process:2").session(tallied, (tally,))
        stream = session.stream([0, 1, 2])
        assert next(stream) == (1, 1)
        # Request 0 is still in flight: its reply must never reach a later
        # call, so the session closes instead of serving again.
        stream.close()
        assert not session.forked
        # Closing drained request 0's reply, so its delta counts and its
        # worker's entries merged; request 2 was never sent.
        assert (tally.stats.stores, tally.cache_size) == (2, 2)
        with pytest.raises(RuntimeError, match="session is closed"):
            session.run([5, 6])
        session.close()


class TestStealingIdentity:
    """A fork pool returns exactly what the serial reference returns, in order."""

    @pytest.mark.parametrize("spec", ["process:1", "process:2", "process:4"])
    def test_matches_serial(self, spec):
        serial, serial_stats = _run("serial")
        pooled, stats = _run(spec)
        assert pooled == serial == [r * r for r in REQUESTS]
        assert stats.tasks == serial_stats.tasks == len(REQUESTS)
        assert sum(stats.tasks_per_worker) == len(REQUESTS)


class TestStealingBalance:
    """Idle workers pull work, so the slow request's worker runs fewer."""

    def test_fork_pool_balances_heterogeneous_load(self):
        serial, _ = _run("serial")
        pooled, stats = _run("process:2", worker_fn=_weighted_sleep)
        assert pooled == serial
        assert stats.steals > 0
        assert stats.tasks_per_worker[0] < ROUND_ROBIN_SHARE


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

        with Pool("process:2").session(die_once) as session:
            responses = session.run(REQUESTS)
            stats = session.dispatch_stats
        assert responses == [r * r for r in REQUESTS]
        assert stats.worker_deaths == 1
        assert stats.retried_tasks == 1
        assert sum(stats.tasks_per_worker) == len(REQUESTS)

    def test_all_workers_dead_raises(self):
        def always_die(request: int) -> int:
            os.kill(os.getpid(), signal.SIGKILL)
            return request  # pragma: no cover

        session = Pool("process:2").session(always_die)
        with pytest.raises(RuntimeError, match="parallel worker pool"):
            session.run(REQUESTS)
        session.close()

    def test_deterministic_exception_is_not_retried(self):
        def bad_request(request: int) -> int:
            if request == 3:
                raise ValueError("request 3 is always poisoned")
            return request * request

        session = Pool("process:2").session(bad_request)
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

        session = Pool("process:3").session(die_always_on_5)
        with pytest.raises(RuntimeError, match="parallel worker pool"):
            session.run(REQUESTS)
        assert session.dispatch_stats.worker_deaths == MAX_TASK_ATTEMPTS
        session.close()


class TestExperimentSchedulerStealing:
    """map_cells on a fork pool: cell-order identity, balanced cells."""

    CELLS = build_cells(["w1", "w2"], ["o1", "o2", "o3", "o4"], base_seed=7)

    @staticmethod
    def _run_cell(cell):
        time.sleep(0.02 * WEIGHTS[cell.index])
        return (cell.index, cell.label, cell.seed)

    def _map(self, backend: str):
        scheduler = ExperimentScheduler(backend=backend)
        results = scheduler.map_cells(self.CELLS, self._run_cell)
        return results, scheduler.last_dispatch_stats

    def test_stealing_identical_and_balanced(self):
        serial, _ = self._map("serial")
        stolen, stats = self._map("process:2")
        assert stolen == serial
        assert [index for index, _, _ in stolen] == list(range(len(self.CELLS)))
        assert stats is not None
        assert stats.steals > 0
        assert stats.tasks_per_worker[0] < ROUND_ROBIN_SHARE

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
