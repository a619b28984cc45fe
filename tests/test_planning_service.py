"""The serving contract battery: bit-identity, fairness, faults, attribution.

The contract under test is the one ``docs/service.md`` documents: the
:class:`~repro.service.server.PlanningServer` changes *when and where* an
optimization runs — admission queue, micro-batches, work-stealing pools,
shared warm caches — never what it answers.  Every response's
``(plan_signature, decision_fingerprint, estimated_cost_s)`` triple must be
bit-identical to :func:`~repro.service.server.cold_optimize`, the cold
serial in-process oracle, under concurrent mixed-tenant load on every pool,
warm or cold, worker crashes included.

On top of identity the battery asserts the service-layer properties:
per-tenant round-robin fairness and bounded admission, clean cancellation
and rejection (no other tenant's answer changes), and the attribution
invariant — per-tenant :class:`~repro.service.stats.ServiceStats` counters
sum *exactly* to the global cache deltas under any interleaving.
"""

import asyncio
import dataclasses
import pickle

import pytest

from repro.cluster import ClusterSpec
from repro.profiler import Profiler
from repro.service import (
    AdmissionQueue,
    AdmissionRejected,
    OPTIMIZER_VARIANTS,
    PlanRequest,
    PlanningServer,
    cold_optimize,
    oracle_fingerprint,
    percentile,
)
from repro.verification import (
    FaultPlan,
    FaultSpec,
    RandomWorkflowGenerator,
    install_fault_plan,
)
from repro.verification.generator import GeneratorConfig
from repro.workloads import build_workload
from tests.conftest import assert_ledgers_reconcile, ledger_marks

CLUSTER = ClusterSpec.paper_cluster()

#: The mixed catalog × variant grid of the load battery.  Multiple tenants
#: request the same combo (requests map ``i % len(COMBOS)``, tenants
#: ``i % 4``), so one tenant's solved units serve another's lookups —
#: that's what makes ``cross_origin_hits`` observable.
COMBOS = (
    ("rand-a", "Stubby"),
    ("rand-b", "Stubby"),
    ("pj", "Stubby"),
    ("rand-a", "Vertical"),
    ("rand-b", "Horizontal"),
    ("pj", "Baseline"),
)

#: Pools the bit-identity battery sweeps (the acceptance grid).
POOLS = ("serial", "process:2")


@pytest.fixture(scope="module")
def catalog():
    """Mixed canned + random profiled workloads, built once per module."""
    plans = {}
    for name, seed in (("rand-a", 101), ("rand-b", 202)):
        generated = RandomWorkflowGenerator(
            GeneratorConfig(min_jobs=3, max_jobs=4)
        ).generate(seed)
        plans[name] = generated.plan
    workload = build_workload("PJ", scale=0.1, seed=42)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    plans["pj"] = workload.plan
    return plans


#: Cold-oracle memo shared by every test in the module (the oracle is a
#: pure function of (workload, optimizer) — PlanRequest's seed is fixed).
_ORACLES = {}


def oracle(catalog, workload, optimizer):
    key = (workload, optimizer)
    if key not in _ORACLES:
        _ORACLES[key] = oracle_fingerprint(
            cold_optimize(CLUSTER, catalog[workload], optimizer)
        )
    return _ORACLES[key]


def request_for(i: int) -> PlanRequest:
    workload, optimizer = COMBOS[i % len(COMBOS)]
    return PlanRequest(
        tenant=f"t{i % 4}",
        workload=workload,
        optimizer=optimizer,
        # Heterogeneous declared costs: the full Stubby search is the
        # expensive request the stealing pool routes around.
        cost_weight=3.0 if optimizer == "Stubby" else 1.0,
    )


def make_server(catalog, **kwargs):
    server = PlanningServer(CLUSTER, **kwargs)
    for name, plan in catalog.items():
        server.register_workload(name, plan)
    return server


async def submit_ok(server, i: int):
    request = request_for(i)
    response = await server.submit(request)
    assert response.ok, response.error
    assert response.queue_wait_s >= 0.0
    assert response.latency_s >= response.service_s >= 0.0
    return (request.workload, request.optimizer), response


class TestBitIdentityUnderLoad:
    """16 concurrent mixed-tenant clients, every pool, warm and cold."""

    @pytest.mark.parametrize("pool", POOLS)
    def test_concurrent_responses_match_cold_oracle(self, pool, catalog):
        async def main():
            server = make_server(catalog, pool=pool)
            marks = ledger_marks(server)
            async with server:
                cold_before = server.stats.total("decision_stats")
                cold_wave = await asyncio.gather(*[submit_ok(server, i) for i in range(16)])
                cold_delta = server.stats.total("decision_stats").since(cold_before)
                # Warm restart: worker cache shards merge on stop; the next
                # wave's units replay from the shared decision cache.
                await server.restart()
                warm_before = server.stats.total("decision_stats")
                warm_wave = await asyncio.gather(*[submit_ok(server, i) for i in range(16)])
                warm_delta = server.stats.total("decision_stats").since(warm_before)

                for (workload, optimizer), response in cold_wave + warm_wave:
                    assert response.identity() == oracle(catalog, workload, optimizer), (
                        f"{pool}: {workload}/{optimizer} diverged from the cold oracle"
                    )
                assert warm_delta.hit_rate > cold_delta.hit_rate, (
                    f"{pool}: warm wave should beat the cold wave's decision hit "
                    f"rate ({warm_delta.as_dict()} vs {cold_delta.as_dict()})"
                )
                assert warm_delta.decision_misses == 0
                # Pool accounting saw every request exactly once, across
                # batches, sessions, and the restart — no double counts.
                assert server.dispatch_stats().tasks == 32
            # Attribution stays exact across the restart's merge, on the
            # serial pool as on the forked one.
            assert_ledgers_reconcile(server, marks)
            return server

        server = asyncio.run(main())
        for row in server.stats.tenants.values():
            assert row.failed == 0 and row.completed == 8

    def test_repeat_clients_on_one_running_server_stay_identical(self, catalog):
        """Same combo, many tenants, one server: answers never drift."""

        async def main():
            server = make_server(catalog, pool="process:2")
            async with server:
                waves = []
                for _wave in range(3):
                    waves.extend(
                        await asyncio.gather(*[submit_ok(server, i) for i in (0, 0, 3, 3)])
                    )
            identities = {key: set() for key, _ in waves}
            for key, response in waves:
                identities[key].add(response.identity())
            for key, seen in identities.items():
                assert len(seen) == 1
                assert seen.pop() == oracle(catalog, *key)

        asyncio.run(main())


class TestAttributionInvariant:
    """Per-tenant counters reconcile exactly with the global caches."""

    def test_tenant_sums_equal_global_deltas(self, catalog):
        async def main():
            server = make_server(catalog, pool="process:2")
            marks = ledger_marks(server)
            async with server:
                await asyncio.gather(*[submit_ok(server, i) for i in range(12)])
            assert_ledgers_reconcile(server, marks)
            # Tenants share combos, so somebody's lookup was answered by an
            # entry a *different* tenant's request paid for.
            assert server.stats.total("decision_stats").cross_origin_hits > 0
            rows = server.stats.tenants
            assert sorted(rows) == ["t0", "t1", "t2", "t3"]
            assert all(row.completed == 3 for row in rows.values())
            report = server.stats.report()
            for tenant in rows:
                assert tenant in report

        asyncio.run(main())


class TestTypedWorkerResult:
    """``_execute`` hands back a picklable ``_Outcome``; the parent only stamps timings."""

    def test_outcome_survives_a_pickle_round_trip_field_for_field(self, catalog):
        server = make_server(catalog)
        outcome = server._execute(("t0", "pj", "Stubby", 17, None, True))
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone == outcome and clone is not outcome
        assert dataclasses.asdict(clone) == dataclasses.asdict(outcome)
        assert outcome.response.ok and outcome.response.cost_stats.queries > 0
        # The worker never knows the queue: those two stay for the parent.
        assert outcome.response.queue_wait_s == outcome.response.latency_s == 0.0
        assert outcome.response.service_s > 0.0

    def test_process_pool_response_equals_the_serial_response(self, catalog):
        # Two cold requests over disjoint content, held until both are
        # queued so they ride one batch: on process:2 each runs in its own
        # forked worker, and everything but where/when it ran must match.
        requests = [
            PlanRequest(tenant="t0", workload="rand-a", optimizer="Stubby"),
            PlanRequest(tenant="t1", workload="pj", optimizer="Baseline"),
        ]

        async def main(pool):
            server = make_server(catalog, pool=pool)
            await server.start(serve=False)
            futures = [asyncio.ensure_future(server.submit(r)) for r in requests]
            await asyncio.sleep(0.05)
            server.resume()
            responses = await asyncio.gather(*futures)
            await server.stop(persist=False)
            return responses

        serial = asyncio.run(asyncio.wait_for(main("serial"), timeout=120))
        forked = asyncio.run(asyncio.wait_for(main("process:2"), timeout=120))
        placement = ("worker_pid", "queue_wait_s", "service_s", "latency_s")
        for ours, theirs in zip(serial, forked):
            assert ours.ok and theirs.ok
            assert ours.worker_pid != theirs.worker_pid
            assert theirs.latency_s >= theirs.queue_wait_s + theirs.service_s > 0.0
            assert dataclasses.replace(ours, **dict.fromkeys(placement, 0)) == (
                dataclasses.replace(theirs, **dict.fromkeys(placement, 0))
            )


class TestFaultInjection:
    """Crashes, cancellations, and overload never change anyone's answer."""

    def test_killed_worker_is_survived_and_accounted(self, catalog):
        # The FaultPlan harness replaces the old external os.kill(): a kill
        # spec armed for pool worker 0 SIGKILLs it (from inside the forked
        # child) on its second dispatched task.  The worker_slot match means
        # inline execution (slot -1) and the parent can never fire it.
        plan = FaultPlan(
            [
                FaultSpec(
                    site="parallel.task",
                    kind="kill",
                    match={"worker_slot": 0},
                    at_hits=(2,),
                )
            ],
            name="kill-worker-0",
        )

        async def main():
            server = make_server(catalog, pool="process:2")
            marks = ledger_marks(server)
            await server.start(serve=False)
            try:
                # One guaranteed 4-request batch, so the pool forks; worker 0
                # dies on its second task of the batch and the in-flight
                # request is retried on the survivor.
                wave_a = [asyncio.ensure_future(submit_ok(server, i)) for i in range(4)]
                await asyncio.sleep(0.1)
                server.resume()
                wave_a = await asyncio.gather(*wave_a)
                wave_b = [asyncio.ensure_future(submit_ok(server, i)) for i in range(4)]
                await asyncio.sleep(0.05)
                wave_b = await asyncio.gather(*wave_b)

                for (workload, optimizer), response in wave_a + wave_b:
                    assert response.identity() == oracle(catalog, workload, optimizer)
                    assert response.degradation_level == 0
                stats = server.dispatch_stats()
                assert stats.worker_deaths >= 1
                assert stats.retried_tasks >= 1
                # Exactly one execution counted per request — the lost
                # worker's chunk (response + stats payload) vanished whole,
                # so nothing double-counted and nothing half-merged.
                assert stats.tasks == 8
            finally:
                await server.stop()
            assert_ledgers_reconcile(server, marks)
            for row in server.stats.tenants.values():
                assert row.failed == 0

        with install_fault_plan(plan):
            asyncio.run(main())

    def test_client_timeout_withdraws_quietly(self, catalog):
        async def main():
            server = make_server(catalog, pool="serial")
            await server.start(serve=False)
            # Queue a real request, then an impatient one that times out
            # while still queued (nothing dispatches until resume()).
            patient = asyncio.ensure_future(submit_ok(server, 0))
            await asyncio.sleep(0)
            with pytest.raises(asyncio.TimeoutError):
                await server.submit(
                    PlanRequest(tenant="impatient", workload="rand-a"), timeout=0.05
                )
            assert server.admission.stats.cancelled_in_queue == 1
            server.resume()
            (key, response) = await patient
            assert response.identity() == oracle(catalog, *key)
            # The withdrawn request never executed and nobody else noticed.
            impatient = server.stats.tenant("impatient")
            assert impatient.cancelled == 1 and impatient.completed == 0
            assert server.stats.tenant("t0").failed == 0
            # The server keeps serving after a cancellation.
            key, response = await submit_ok(server, 1)
            assert response.identity() == oracle(catalog, *key)
            await server.stop()

        asyncio.run(main())

    def test_admission_overflow_rejects_loudly_then_serves_the_admitted(self, catalog):
        async def main():
            server = make_server(
                catalog, pool="process:2", queue_capacity=3, per_tenant_capacity=2
            )
            await server.start(serve=False)
            admitted = [
                asyncio.ensure_future(
                    server.submit(PlanRequest(tenant="t0", workload="rand-a"))
                )
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(AdmissionRejected, match="quota"):
                await server.submit(PlanRequest(tenant="t0", workload="rand-a"))
            admitted.append(
                asyncio.ensure_future(
                    server.submit(PlanRequest(tenant="t1", workload="rand-b"))
                )
            )
            await asyncio.sleep(0)
            with pytest.raises(AdmissionRejected, match="full"):
                await server.submit(PlanRequest(tenant="t1", workload="rand-b"))
            assert server.admission.stats.rejected_tenant_full == 1
            assert server.admission.stats.rejected_full == 1
            server.resume()
            responses = await asyncio.gather(*admitted)
            for response in responses:
                assert response.ok
                assert response.identity() == oracle(catalog, response.workload, "Stubby")
            assert server.stats.tenant("t0").rejected == 1
            assert server.stats.tenant("t1").rejected == 1
            await server.stop()

        asyncio.run(main())


class TestServerGuards:
    def test_default_pool_is_serial(self, monkeypatch):
        # The same default as resolve_backend and ExperimentScheduler — and
        # no environment variable reaches it, the cell pool's included.
        monkeypatch.setenv("STUBBY_EXPERIMENT_BACKEND", "process:2")
        assert PlanningServer(CLUSTER).backend.spec == "serial:1"

    def test_bad_pool_specs_are_rejected_in_pool_terms(self):
        # Regression: the message used to say "unknown search backend", and a
        # bare "process" silently meant four workers whatever the host.
        with pytest.raises(
            ValueError, match=r"unknown execution backend 'thread'.*'serial' or 'process:N'"
        ):
            PlanningServer(CLUSTER, pool="thread:4")
        with pytest.raises(ValueError, match=r"no worker count.*process:N"):
            PlanningServer(CLUSTER, pool="process")

    def test_unknown_workload_and_variant_rejected(self, catalog):
        async def main():
            server = make_server(catalog, pool="serial")
            async with server:
                with pytest.raises(AdmissionRejected, match="unknown workload"):
                    await server.submit(PlanRequest(tenant="t0", workload="nope"))
                with pytest.raises(AdmissionRejected, match="unknown optimizer"):
                    await server.submit(
                        PlanRequest(tenant="t0", workload="rand-a", optimizer="Magic")
                    )
            with pytest.raises(AdmissionRejected, match="not running"):
                await server.submit(PlanRequest(tenant="t0", workload="rand-a"))
            assert server.stats.tenant("t0").rejected == 3
            assert set(OPTIMIZER_VARIANTS) == {"Stubby", "Vertical", "Horizontal", "Baseline"}
            assert server.workloads == ("pj", "rand-a", "rand-b")

        asyncio.run(main())

    def test_register_after_fork_is_rejected(self, catalog):
        async def main():
            server = make_server(catalog, pool="process:2")
            await server.start(serve=False)
            wave = [asyncio.ensure_future(submit_ok(server, i)) for i in (0, 1)]
            await asyncio.sleep(0.1)
            server.resume()
            await asyncio.gather(*wave)
            with pytest.raises(RuntimeError, match="forked"):
                server.register_workload("late", catalog["rand-a"])
            await server.stop()

        asyncio.run(main())


class TestAdmissionQueueUnit:
    """The fairness and bounding mechanics, deterministically."""

    def test_round_robin_interleaves_tenants(self):
        queue = AdmissionQueue(capacity=16)
        for item in ("A1", "A2", "A3", "A4", "A5"):
            queue.offer("A", item)
        for item in ("B1", "B2"):
            queue.offer("B", item)
        queue.offer("C", "C1")
        batch = queue.take_batch(8)
        # One item per tenant per ring turn: a 5-deep tenant and a 1-deep
        # tenant both land their head-of-line request immediately.
        assert batch == ["A1", "B1", "C1", "A2", "B2", "A3", "A4", "A5"]
        assert len(queue) == 0
        assert queue.stats.taken == 8

    def test_bounds_and_quota(self):
        queue = AdmissionQueue(capacity=3, per_tenant_capacity=2)
        queue.offer("A", 1)
        queue.offer("A", 2)
        with pytest.raises(AdmissionRejected, match="quota"):
            queue.offer("A", 3)
        queue.offer("B", 1)
        with pytest.raises(AdmissionRejected, match="full"):
            queue.offer("B", 2)
        assert queue.stats.rejected == 2
        assert queue.stats.peak_depth == 3
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=1, per_tenant_capacity=0)
        with pytest.raises(ValueError):
            queue.take_batch(0)

    def test_remove_releases_capacity_without_double_turns(self):
        queue = AdmissionQueue(capacity=2)
        queue.offer("A", "a1")
        assert queue.remove("A", "a1") is True
        assert queue.remove("A", "a1") is False
        assert queue.remove("ghost", "x") is False
        queue.offer("A", "a2")
        queue.offer("B", "b1")
        # The stale ring entry from the removed item must not hand A two
        # turns in one round.
        assert queue.take_batch(2) == ["a2", "b1"]
        assert len(queue) == 0

    def test_close_drains_then_stops(self):
        queue = AdmissionQueue(capacity=4)
        queue.offer("A", "a1")
        queue.close()
        with pytest.raises(AdmissionRejected, match="closed"):
            queue.offer("A", "a2")
        assert queue.closed
        assert queue.take_batch(4) == ["a1"]
        assert queue.take_batch(4, timeout=0.01) == []
        queue.reopen()
        queue.offer("A", "a3")
        assert queue.depth("A") == 1 and queue.depth() == 1
        assert queue.take_batch(4) == ["a3"]

    def test_take_batch_times_out_empty(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.take_batch(2, timeout=0.01) == []


class TestStatsUnit:
    def test_percentile_nearest_rank(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 99) == 3.0
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 99) == 10.0
        with pytest.raises(ValueError):
            percentile(values, 101)
