"""The resilience battery: budgets, fault plans, the ladder, and the breaker.

The contract under test is ``docs/resilience.md``'s: **every admitted
request terminates with a usable plan** — full when possible, explicitly
degraded when not, shed-with-an-answer when its deadline expired in the
queue — and every injected fault is *accounted for exactly* (plan fires,
shed/degraded/breaker counters, the attribution invariant) rather than
absorbed silently.  Undegraded answers stay bit-identical to the cold
oracle; degraded answers are labeled with their ladder rung and a reason
trail so they can never masquerade as the full result.

Unit layers first (TimeBudget, FaultPlan, CircuitBreaker, the admission
queue's deadline handling), then the ladder via direct ``_execute`` calls
(deterministic, no queue timing), then the asyncio integration paths:
client withdrawal racing a hung worker, queue shedding, breaker
short-circuiting under a poisoned tenant, and whole-server scenarios under
seeded fault plans (a rung fault, a hang against a deadline, mangled
persisted stores), each under a hard ``wait_for`` lid.
"""

import asyncio
import time

import pytest

from repro.baselines import make_optimizer
from repro.cluster import ClusterSpec
from repro.common.errors import DeadlineExceeded, RetryableError, TerminalError, is_terminal
from repro.core.budget import UNBOUNDED, TimeBudget
from repro.profiler import Profiler
from repro.service import (
    AdmissionQueue,
    CircuitBreaker,
    PlanRequest,
    PlanningServer,
    cold_optimize,
    oracle_fingerprint,
)
from repro.service.server import _Ticket
from repro.verification import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TerminalInjectedFault,
    corrupt_file,
    install_fault_plan,
    truncate_file,
)
from repro.verification.faults import plan_from_env
from repro.workloads import build_workload
from tests.conftest import assert_ledgers_reconcile, ledger_marks

CLUSTER = ClusterSpec.paper_cluster()


@pytest.fixture(scope="module")
def catalog():
    workload = build_workload("PJ", scale=0.1, seed=42)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return {"pj": workload.plan}


_ORACLES = {}


def oracle(catalog, workload, optimizer):
    key = (workload, optimizer)
    if key not in _ORACLES:
        _ORACLES[key] = oracle_fingerprint(
            cold_optimize(CLUSTER, catalog[workload], optimizer)
        )
    return _ORACLES[key]


def make_server(catalog, **kwargs):
    server = PlanningServer(CLUSTER, **kwargs)
    for name, plan in catalog.items():
        server.register_workload(name, plan)
    return server


def work_for(catalog, tenant="t0", optimizer="Stubby", deadline_at=None, allow_full=True):
    return (tenant, "pj", optimizer, 17, deadline_at, allow_full)


def run_lidded(coro):
    """The zero-hung-requests gate: a scenario's whole traffic completes
    under a hard lid — an answer may be degraded or shed, never missing."""
    return asyncio.run(asyncio.wait_for(coro, timeout=180))


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


# --------------------------------------------------------------------------
class TestTimeBudget:
    def test_unbounded_is_free_and_never_raises(self):
        budget = TimeBudget()
        assert budget.unbounded
        assert budget.remaining() == float("inf")
        assert not budget.expired
        budget.check("anywhere")
        UNBOUNDED.check("shared-singleton")

    def test_seconds_and_deadline_are_exclusive(self):
        with pytest.raises(ValueError):
            TimeBudget(seconds=1.0, deadline_at=2.0)

    def test_expiry_raises_with_site_and_overshoot(self):
        clock = FakeClock(10.0)
        budget = TimeBudget(seconds=5.0, clock=clock)
        assert budget.remaining() == pytest.approx(5.0)
        budget.check("search.unit")
        clock.now = 17.0
        assert budget.expired
        assert budget.remaining() == 0.0
        with pytest.raises(DeadlineExceeded) as excinfo:
            budget.check("search.unit")
        assert excinfo.value.site == "search.unit"
        assert excinfo.value.overshoot_s == pytest.approx(2.0)
        # The ladder's routing depends on this taxonomy: an expired budget
        # is retryable-at-a-cheaper-rung, never terminal.
        assert isinstance(excinfo.value, RetryableError)
        assert not is_terminal(excinfo.value)

    def test_absolute_deadline_form(self):
        clock = FakeClock(50.0)
        budget = TimeBudget(deadline_at=51.5, clock=clock)
        assert budget.remaining() == pytest.approx(1.5)
        clock.now = 51.5
        assert budget.expired


class TestFaultPlanUnit:
    def test_at_hits_fires_on_exact_matching_ordinals(self):
        plan = FaultPlan([FaultSpec(site="s", at_hits=(2, 4))])
        with install_fault_plan(plan):
            from repro.common.faults import fault_site

            fired = []
            for visit in range(1, 6):
                try:
                    fault_site("s")
                except InjectedFault:
                    fired.append(visit)
        assert fired == [2, 4]
        assert plan.fires("s") == 2

    def test_max_fires_bounds_an_unpinned_spec(self):
        plan = FaultPlan([FaultSpec(site="s", max_fires=2)])
        with install_fault_plan(plan):
            from repro.common.faults import fault_site

            outcomes = []
            for _ in range(5):
                try:
                    fault_site("s")
                    outcomes.append("pass")
                except InjectedFault:
                    outcomes.append("fire")
        assert outcomes == ["fire", "fire", "pass", "pass", "pass"]

    def test_match_filters_by_context(self):
        plan = FaultPlan([FaultSpec(site="s", match={"worker_slot": 1})])
        with install_fault_plan(plan):
            from repro.common.faults import fault_site

            fault_site("s", worker_slot=0)  # no match, no fire
            fault_site("s")  # key absent: no match
            with pytest.raises(InjectedFault):
                fault_site("s", worker_slot=1)
        report = plan.report()
        assert report["specs"][0]["hits"] == 1
        assert report["specs"][0]["fires"] == 1
        assert report["site_visits"]["s"] == 3

    def test_terminal_kind_raises_terminal(self):
        plan = FaultPlan([FaultSpec(site="s", kind="terminal")])
        with install_fault_plan(plan):
            from repro.common.faults import fault_site

            with pytest.raises(TerminalInjectedFault) as excinfo:
                fault_site("s")
        assert is_terminal(excinfo.value)
        assert isinstance(excinfo.value, TerminalError)

    def test_latency_kind_sleeps_instead_of_raising(self):
        plan = FaultPlan([FaultSpec(site="s", kind="latency", delay_s=0.01)])
        with install_fault_plan(plan):
            from repro.common.faults import fault_site

            started = time.perf_counter()
            fault_site("s")
            assert time.perf_counter() - started >= 0.01

    def test_kill_is_refused_in_the_installing_process(self):
        # The guard that makes kill specs safe to author: the process that
        # installed the plan (the test runner) can never SIGKILL itself.
        plan = FaultPlan([FaultSpec(site="s", kind="kill")])
        with install_fault_plan(plan):
            from repro.common.faults import fault_site

            with pytest.raises(TerminalInjectedFault, match="not in a forked worker"):
                fault_site("s")

    def test_unknown_kind_and_bad_ordinals_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="s", kind="meteor")
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="s", at_hits=(0,))

    def test_file_faults_without_a_path_are_noops(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="s", kind="corrupt")])
        with install_fault_plan(plan):
            from repro.common.faults import fault_site

            fault_site("s")  # no path in context: nothing to mangle
        assert plan.fires("s") == 1

    def test_corruption_is_deterministic_per_seed(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.bin", "b.bin", "c.bin"))
        payload = b"the quick brown fox" * 100
        for path in (a, b, c):
            path.write_bytes(payload)
        assert corrupt_file(str(a), seed=3)
        assert corrupt_file(str(b), seed=3)
        # Same length, same seed, same name-derived stream → identical rerun.
        assert len(a.read_bytes()) == len(payload)
        assert a.read_bytes() != payload
        assert truncate_file(str(c), fraction=0.25)
        assert len(c.read_bytes()) == len(payload) // 4
        assert not corrupt_file(str(tmp_path / "absent.bin"))
        with pytest.raises(ValueError):
            truncate_file(str(a), fraction=1.0)

    def test_env_round_trip(self):
        plan = FaultPlan(
            [FaultSpec(site="whatif.estimate", kind="latency", at_hits=(3,), delay_s=0.2)],
            seed=9,
        )
        environ = {"STUBBY_FAULT_PLAN": plan.as_json(), "STUBBY_FAULT_SEED": "9"}
        loaded = plan_from_env(environ)
        assert loaded is not None
        assert loaded.seed == 9
        assert [spec.as_dict() for spec in loaded.specs] == [
            spec.as_dict() for spec in plan.specs
        ]
        assert plan_from_env({}) is None
        with pytest.raises(Exception):
            plan_from_env({"STUBBY_FAULT_PLAN": "not json"})

    def test_install_restores_the_previous_plan(self):
        from repro.common.faults import active_plan

        outer = FaultPlan([], name="outer")
        inner = FaultPlan([], name="inner")
        before = active_plan()
        with install_fault_plan(outer):
            with install_fault_plan(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is before


class TestCircuitBreaker:
    def make(self, clock, threshold=3):
        return CircuitBreaker(
            failure_threshold=threshold, backoff_s=1.0, max_backoff_s=4.0, clock=clock
        )

    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.trips == 0
        breaker.record_failure()
        assert breaker.state == "open" and breaker.trips == 1
        assert breaker.retry_at == clock.now + 1.0

    def test_open_denies_and_counts_short_circuits(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1)
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow_full()
        assert not breaker.allow_full()
        assert breaker.short_circuits == 2

    def test_half_open_grants_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1)
        breaker.record_failure()
        clock.now += 1.0  # backoff elapsed
        assert breaker.allow_full()  # the probe
        assert breaker.state == "half_open" and breaker.probes == 1
        assert not breaker.allow_full()  # second concurrent request: denied
        assert breaker.short_circuits == 1

    def test_probe_success_closes_and_resets_backoff(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1)
        breaker.record_failure()
        clock.now += 1.0
        assert breaker.allow_full()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.current_backoff_s == breaker.base_backoff_s
        assert breaker.allow_full()

    def test_probe_failure_retrips_with_doubled_capped_backoff(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1)
        backoffs = []
        for _ in range(4):
            # First pass: closed + threshold 1 → trip.  Later passes: the
            # half-open probe fails → immediate re-trip, backoff doubled.
            breaker.record_failure()
            backoffs.append(breaker.retry_at - clock.now)
            clock.now = breaker.retry_at
            assert breaker.allow_full()  # half-open probe
        # 1 → 2 → 4 → capped at 4.
        assert backoffs == [1.0, 2.0, 4.0, 4.0]
        assert breaker.trips == 4

    def test_as_dict_reports_the_counters(self):
        breaker = self.make(FakeClock(), threshold=1)
        breaker.record_failure()
        snapshot = breaker.as_dict()
        assert snapshot["state"] == "open"
        assert snapshot["trips"] == 1


class TestAdmissionDeadlines:
    def test_expired_items_are_shed_not_dispatched(self):
        clock = FakeClock()
        queue = AdmissionQueue(capacity=8, clock=clock)
        shed = []
        queue.on_shed = shed.append
        queue.offer("A", "expired-1", deadline_at=clock.now + 1.0)
        queue.offer("A", "live", deadline_at=clock.now + 100.0)
        queue.offer("A", "no-deadline")
        clock.now += 5.0
        batch = queue.take_batch(8)
        assert batch == ["live", "no-deadline"]
        assert shed == ["expired-1"]
        assert queue.stats.shed_expired == 1
        assert len(queue) == 0

    def test_priority_orders_within_a_tenant_fifo_among_equals(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer("A", "low-1", priority=0)
        queue.offer("A", "high", priority=5)
        queue.offer("A", "low-2", priority=0)
        assert queue.take_batch(8) == ["high", "low-1", "low-2"]

    def test_priority_cannot_starve_other_tenants(self):
        # Cross-tenant fairness is round-robin regardless of priorities: a
        # high-priority flood from A still alternates with B.
        queue = AdmissionQueue(capacity=8)
        for index in range(3):
            queue.offer("A", f"a{index}", priority=9)
        queue.offer("B", "b0", priority=0)
        assert queue.take_batch(8) == ["a0", "b0", "a1", "a2"]

    def test_shedding_releases_capacity(self):
        clock = FakeClock()
        queue = AdmissionQueue(capacity=2, clock=clock)
        queue.on_shed = lambda item: None
        queue.offer("A", "stale-1", deadline_at=clock.now + 1.0)
        queue.offer("A", "stale-2", deadline_at=clock.now + 1.0)
        clock.now += 2.0
        assert queue.take_batch(4) == []
        assert queue.stats.shed_expired == 2
        queue.offer("A", "fresh")  # capacity is back
        assert queue.take_batch(4) == ["fresh"]

    def test_close_still_drains_queued_items(self):
        queue = AdmissionQueue(capacity=4)
        queue.offer("A", "queued")
        queue.close()
        with pytest.raises(Exception):
            queue.offer("A", "late")
        assert queue.take_batch(4) == ["queued"]
        assert queue.take_batch(4) == []


class TestTicketClaim:
    def make_ticket(self):
        return _Ticket(request=None, future=None, loop=None, enqueued=0.0)

    def test_first_claimant_wins(self):
        ticket = self.make_ticket()
        assert ticket.claim("completed")
        assert not ticket.claim("cancelled")
        assert not ticket.cancelled

    def test_cancellation_claim_marks_the_ticket(self):
        ticket = self.make_ticket()
        assert ticket.claim("cancelled")
        assert ticket.cancelled
        assert not ticket.claim("completed")


# --------------------------------------------------------------------------
class TestDegradationLadder:
    """Direct ``_execute`` calls: deterministic, no queue timing involved."""

    def test_full_rung_is_bit_identical_to_the_oracle(self, catalog):
        server = make_server(catalog)
        outcome = server._execute(work_for(catalog))
        response = outcome.response
        assert response.ok
        assert response.degradation_level == 0 and response.degradation == "full"
        assert response.identity() == oracle(catalog, "pj", "Stubby")
        assert outcome.full_attempted and not outcome.full_failed

    def test_warm_replay_rung_reproduces_the_full_plan(self, catalog):
        server = make_server(catalog)
        full = server._execute(work_for(catalog)).response
        plan = FaultPlan([FaultSpec(site="server.rung.full", kind="exception")])
        with install_fault_plan(plan):
            outcome = server._execute(work_for(catalog))
        degraded = outcome.response
        assert degraded.ok
        assert degraded.degradation_level == 1 and degraded.degradation == "replay_only"
        assert "full: InjectedFault" in degraded.degradation_reason
        assert outcome.full_attempted and outcome.full_failed
        # Every unit was solved by the first run; replay serves its plan.
        assert degraded.plan_signature == full.plan_signature
        assert degraded.estimated_cost_s == full.estimated_cost_s
        assert degraded.decision_stats.decision_hits > 0

    def test_cold_replay_rung_stores_nothing(self, catalog):
        # Rung 1 on a cold cache: misses leave their unit untouched and do
        # NOT record a no-op decision (which would poison later full runs).
        server = make_server(catalog)
        plan = FaultPlan([FaultSpec(site="server.rung.full", kind="exception")])
        with install_fault_plan(plan):
            degraded = server._execute(work_for(catalog)).response
        assert degraded.ok and degraded.degradation_level == 1
        assert degraded.decision_stats.stores == 0
        assert degraded.decision_stats.decision_hits == 0
        # The very next undegraded request runs the true full search.
        full = server._execute(work_for(catalog)).response
        assert full.degradation_level == 0
        assert full.identity() == oracle(catalog, "pj", "Stubby")

    def test_two_failed_rungs_degrade_to_single_phase(self, catalog):
        server = make_server(catalog)
        plan = FaultPlan(
            [
                FaultSpec(site="server.rung.full", kind="exception"),
                FaultSpec(site="server.rung.replay_only", kind="exception"),
            ]
        )
        with install_fault_plan(plan):
            response = server._execute(work_for(catalog)).response
        assert response.ok
        assert response.degradation_level == 2 and response.degradation == "single_phase"
        assert plan.fires() == 2

    def test_exhausted_ladder_floors_at_unoptimized(self, catalog):
        server = make_server(catalog)
        plan = FaultPlan(
            [
                FaultSpec(site="server.rung.full", kind="exception"),
                FaultSpec(site="server.rung.replay_only", kind="exception"),
                FaultSpec(site="server.rung.single_phase", kind="exception"),
            ]
        )
        with install_fault_plan(plan):
            response = server._execute(work_for(catalog)).response
        assert response.ok
        assert response.degradation_level == 3 and response.degradation == "unoptimized"
        for rung in ("full", "replay_only", "single_phase"):
            assert f"{rung}: InjectedFault" in response.degradation_reason
        assert plan.fires() == 3

    def test_terminal_fault_fails_the_request_outright(self, catalog):
        server = make_server(catalog)
        plan = FaultPlan([FaultSpec(site="server.rung.full", kind="terminal")])
        with install_fault_plan(plan):
            outcome = server._execute(work_for(catalog))
        assert not outcome.response.ok
        assert "TerminalInjectedFault" in outcome.response.error
        assert outcome.full_attempted and outcome.full_failed

    def test_breaker_denial_skips_the_full_rung(self, catalog):
        server = make_server(catalog)
        server._execute(work_for(catalog))  # warm the decision cache
        outcome = server._execute(work_for(catalog, allow_full=False))
        assert outcome.response.ok
        assert outcome.response.degradation_level == 1
        assert "circuit breaker open" in outcome.response.degradation_reason
        assert not outcome.full_attempted

    def test_expired_budget_skips_every_searching_rung(self, catalog):
        server = make_server(catalog)
        work = work_for(catalog, deadline_at=time.monotonic() - 1.0)
        response = server._execute(work).response
        assert response.ok
        assert response.degradation_level == 3 and response.degradation == "unoptimized"
        assert response.degradation_reason.count("deadline exhausted") == 3

    def test_baseline_ladder_has_no_search_rungs(self, catalog):
        # Replay/single-phase would just repeat Baseline's only move, so its
        # ladder is full → unoptimized.
        server = make_server(catalog)
        plan = FaultPlan([FaultSpec(site="server.rung.full", kind="exception")])
        with install_fault_plan(plan):
            response = server._execute(work_for(catalog, optimizer="Baseline")).response
        assert response.ok
        assert response.degradation_level == 3 and response.degradation == "unoptimized"


class TestBudgetedOptimize:
    def test_expired_budget_raises_between_evaluations(self, catalog):
        variant = make_optimizer("Stubby", CLUSTER, seed=17)
        with pytest.raises(DeadlineExceeded):
            variant.optimize(catalog["pj"].copy(), budget=TimeBudget(seconds=0.0))

    def test_baseline_checks_its_budget_too(self, catalog):
        variant = make_optimizer("Baseline", CLUSTER, seed=17)
        with pytest.raises(DeadlineExceeded):
            variant.optimize(catalog["pj"].copy(), budget=TimeBudget(seconds=0.0))

    def test_unbounded_budget_changes_nothing(self, catalog):
        bounded = make_optimizer("Stubby", CLUSTER, seed=17)
        result = bounded.optimize(catalog["pj"].copy(), budget=TimeBudget())
        assert oracle_fingerprint(result) == oracle(catalog, "pj", "Stubby")


# --------------------------------------------------------------------------
class TestWithdrawalRace:
    def test_timeout_during_a_hung_execution_counts_cancelled_only(self, catalog):
        # The worker hangs past the client's patience; the client withdraws.
        # The eventual completion must not count (completed xor cancelled)
        # but its attribution deltas must still fold — the caches saw the
        # work, the invariant stays exact.
        plan = FaultPlan([FaultSpec(site="server.execute", kind="hang", delay_s=0.4)])

        async def main():
            server = make_server(catalog)
            cost_before = server.costs.stats_snapshot()
            async with server:
                with pytest.raises(asyncio.TimeoutError):
                    await server.submit(
                        PlanRequest(tenant="impatient", workload="pj"), timeout=0.05
                    )
            # __aexit__ stopped the server: the hung execution has drained.
            row = server.stats.tenant("impatient")
            assert row.cancelled == 1
            assert row.completed == 0 and row.failed == 0
            cost_delta = server.costs.stats_snapshot().since(cost_before)
            assert server.stats.total("cost_stats").as_dict() == cost_delta.as_dict()

        with install_fault_plan(plan):
            asyncio.run(main())


class TestShedding:
    def test_expired_in_queue_is_answered_not_dropped(self, catalog):
        async def main():
            server = make_server(catalog)
            marks = ledger_marks(server)
            await server.start(serve=False)  # hold dispatch so the deadline passes
            try:
                future = asyncio.ensure_future(
                    server.submit(
                        PlanRequest(tenant="late", workload="pj", deadline_s=0.05)
                    )
                )
                await asyncio.sleep(0.2)
                server.resume()
                response = await asyncio.wait_for(future, timeout=30)
            finally:
                await server.stop()
            assert response.ok and response.shed
            assert response.degradation_level == 3
            assert response.degradation == "unoptimized"
            assert "deadline expired before dispatch" in response.degradation_reason
            assert response.plan_signature  # a usable, costed plan — not a stub
            row = server.stats.tenant("late")
            assert row.shed == 1 and row.completed == 1
            assert row.degraded == 0  # shed and degraded are disjoint
            assert server.admission.stats.shed_expired == 1
            # The floor plan a shed request is answered with is costed too.
            assert_ledgers_reconcile(server, marks)

        asyncio.run(main())

    def test_deadline_met_requests_are_untouched(self, catalog):
        async def main():
            server = make_server(catalog)
            async with server:
                response = await server.submit(
                    PlanRequest(tenant="prompt", workload="pj", deadline_s=30.0)
                )
            assert response.ok and not response.shed
            assert response.degradation_level == 0
            assert response.identity() == oracle(catalog, "pj", "Stubby")

        asyncio.run(main())

    def test_nonpositive_deadline_is_rejected_loudly(self, catalog):
        from repro.service import AdmissionRejected

        async def main():
            server = make_server(catalog)
            async with server:
                with pytest.raises(AdmissionRejected, match="deadline_s"):
                    await server.submit(
                        PlanRequest(tenant="t0", workload="pj", deadline_s=0.0)
                    )

        asyncio.run(main())


class TestBreakerIntegration:
    def test_poisoned_tenant_is_short_circuited_others_unaffected(self, catalog):
        plan = FaultPlan(
            [FaultSpec(site="server.rung.full", kind="exception", match={"tenant": "hot"})]
        )

        async def main():
            server = make_server(
                catalog, breaker_threshold=2, breaker_backoff_s=60.0
            )
            marks = ledger_marks(server)
            async with server:
                responses = []
                for _ in range(4):
                    responses.append(
                        await server.submit(PlanRequest(tenant="hot", workload="pj"))
                    )
                control = await server.submit(PlanRequest(tenant="calm", workload="pj"))
            assert all(response.ok for response in responses)
            assert all(response.degradation_level >= 1 for response in responses)
            # First two attempted (and failed) the full search; the tripped
            # breaker then short-circuits the rest straight past it.
            for response in responses[:2]:
                assert "full: InjectedFault" in response.degradation_reason
            for response in responses[2:]:
                assert "circuit breaker open" in response.degradation_reason
            breaker = server.breaker("hot")
            assert breaker.state == "open" and breaker.trips == 1
            row = server.stats.tenant("hot")
            assert row.breaker_trips == 1
            assert row.breaker_short_circuits == 2
            assert row.degraded == 4
            assert row.degraded_by_level.get("replay_only", 0) + row.degraded_by_level.get(
                "single_phase", 0
            ) + row.degraded_by_level.get("unoptimized", 0) == 4
            # The fault only fired when the full rung actually ran.
            assert plan.fires("server.rung.full") == 2
            # The quiet tenant's answer stayed bit-identical.
            assert control.degradation_level == 0
            assert control.identity() == oracle(catalog, "pj", "Stubby")
            # Failed and short-circuited attempts still queried the stores.
            assert_ledgers_reconcile(server, marks)

        with install_fault_plan(plan):
            asyncio.run(main())


class TestSeededFaultScenarios:
    """Whole-server scenarios under a seeded :class:`FaultPlan`, each under
    the :func:`run_lidded` gate: injected-fault arithmetic explains every
    degraded answer, level-0 answers stay bit-identical, ledgers reconcile."""

    # Which of t0's full attempts blows up.  (The retired chaos sweep's ten
    # "seeds" armed ``seed % 3 + 1``: these three ordinals, three times over.)
    @pytest.mark.parametrize("ordinal", (1, 2, 3))
    def test_one_injected_full_rung_fault_is_exactly_one_degraded_answer(
        self, ordinal, catalog
    ):
        plan = FaultPlan(
            [
                FaultSpec(
                    site="server.rung.full",
                    kind="exception",
                    match={"tenant": "t0"},
                    at_hits=(ordinal,),
                )
            ]
        )

        async def main():
            # Threshold high enough that the breaker never trips: the fault
            # count must explain the degraded count by itself.
            server = make_server(catalog, breaker_threshold=99)
            marks = ledger_marks(server)
            async with server:
                victim = [
                    await server.submit(PlanRequest(tenant="t0", workload="pj"))
                    for _ in range(4)
                ]
                control = await asyncio.gather(
                    *[
                        server.submit(PlanRequest(tenant=f"t{i}", workload="pj"))
                        for i in (1, 2, 3)
                    ]
                )
            assert plan.fires("server.rung.full") == 1
            degraded = [r for r in victim if r.degradation_level > 0]
            assert len(degraded) == 1  # exact: one fire, one degraded answer
            assert "full: InjectedFault" in degraded[0].degradation_reason
            for response in victim + list(control):
                assert response.ok, response.error
                if response.degradation_level == 0:
                    assert response.identity() == oracle(catalog, "pj", "Stubby")
            assert_ledgers_reconcile(server, marks)
            rows = server.stats.tenants.values()
            assert sum(r.degraded for r in rows) == 1 and sum(r.failed for r in rows) == 0

        with install_fault_plan(plan):
            run_lidded(main())

    def test_a_hung_dependency_is_floored_by_its_deadline(self, catalog):
        plan = FaultPlan(
            [
                FaultSpec(
                    site="server.execute",
                    kind="hang",
                    match={"tenant": "victim"},
                    delay_s=0.5,
                )
            ]
        )

        async def main():
            server = make_server(catalog)
            marks = ledger_marks(server)
            async with server:
                # Sequential victims: dispatched immediately (so never shed),
                # then hung past their whole budget — the ladder floors them.
                hung = [
                    await server.submit(
                        PlanRequest(tenant="victim", workload="pj", deadline_s=0.3)
                    )
                    for _ in range(2)
                ]
                bystanders = await asyncio.gather(
                    *[
                        server.submit(PlanRequest(tenant=f"t{i}", workload="pj"))
                        for i in range(4)
                    ]
                )
            assert plan.fires("server.execute") == 2
            for response in hung:
                assert response.ok, response.error
                assert response.degradation_level == 3 and not response.shed
                assert "deadline exhausted" in response.degradation_reason
            for response in bystanders:
                assert response.ok and response.degradation_level == 0
                assert response.identity() == oracle(catalog, "pj", "Stubby")
            assert_ledgers_reconcile(server, marks)
            rows = server.stats.tenants.values()
            assert sum(r.degraded for r in rows) == 2 and sum(r.shed for r in rows) == 0

        with install_fault_plan(plan):
            run_lidded(main())

    def test_corrupt_and_truncated_stores_are_rejected_and_served_cold(
        self, catalog, tmp_path
    ):
        paths = {
            "cache_path": str(tmp_path / "costs.cache"),
            "decision_cache_path": str(tmp_path / "decisions.cache"),
        }

        async def wave(server):
            async with server:
                return await asyncio.gather(
                    *[
                        server.submit(PlanRequest(tenant=f"t{i}", workload="pj"))
                        for i in range(4)
                    ]
                )

        async def main():
            # Populate and persist, then mangle both files on disk.
            for response in await wave(make_server(catalog, **paths)):
                assert response.ok and response.identity() == oracle(catalog, "pj", "Stubby")
            assert corrupt_file(paths["cache_path"], seed=5)
            assert truncate_file(paths["decision_cache_path"], fraction=0.5)

            # The warm restart loads nothing — and says why — but serves
            # cold, undegraded, bit-identical answers.
            second = make_server(catalog, **paths)
            for store in (second.costs, second.decisions):
                assert not store.last_load.loaded and store.last_load.reason
            marks = ledger_marks(second)
            for response in await wave(second):
                assert response.ok, response.error
                assert response.degradation_level == 0
                assert response.identity() == oracle(catalog, "pj", "Stubby")
            assert_ledgers_reconcile(second, marks)
            rows = second.stats.tenants.values()
            assert sum(r.degraded for r in rows) == 0 and sum(r.failed for r in rows) == 0

        run_lidded(main())
