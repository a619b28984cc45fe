"""Resilience soak of the planning service (BENCH_service_resilience.json).

Mixed-tenant traffic against the :class:`PlanningServer` under a sweep of
seeded :class:`FaultPlan` scenarios — rung failures, hangs against
deadlines, queue shedding, a poisoned tenant tripping its breaker, a
SIGKILLed pool worker, and corrupted persisted caches.  The payload
records, per scenario, what was injected and what the service did about
it, so CI can archive the resilience trajectory across PRs.

Contracts (asserted on every scenario, not sampled):

* **zero hung requests** — every scenario's traffic completes under a hard
  ``asyncio.wait_for`` lid; an answer may be degraded or shed, never
  missing;
* **exact reconciliation** — shed/degraded/breaker counters equal the
  injected-fault arithmetic (``FaultPlan.fires()`` + breaker accounting),
  and per-tenant attributed cache stats sum exactly to the global deltas;
* **identity where undegraded** — every level-0 response remains
  bit-identical to the cold in-process oracle, faults notwithstanding.
"""

import asyncio
import json
import os

from conftest import BENCHMARK_SCALE, run_once

from repro.profiler import Profiler
from repro.service import PlanRequest, PlanningServer, cold_optimize, oracle_fingerprint
from repro.verification import (
    FaultPlan,
    FaultSpec,
    corrupt_file,
    install_fault_plan,
    truncate_file,
)
from repro.workloads import build_workload

#: Seeded variations of the rung-fault scenario (the chaos sweep's knob).
RESILIENCE_SEEDS = int(os.environ.get("BENCH_RESILIENCE_SEEDS", "3"))

#: Hard lid on any single scenario's traffic: the zero-hung-requests gate.
SCENARIO_TIMEOUT_S = 180.0

TENANTS = ("t0", "t1", "t2", "t3")


def _output_path():
    return os.environ.get("BENCH_RESILIENCE_OUT", "BENCH_service_resilience.json")


def _build_catalog(cluster):
    workload = build_workload("PJ", scale=BENCHMARK_SCALE, seed=42)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return {"pj": workload.plan}


def _request(i, tenant=None, **kwargs):
    return PlanRequest(tenant=tenant or TENANTS[i % len(TENANTS)], workload="pj", **kwargs)


def _make_server(cluster, catalog, **kwargs):
    server = PlanningServer(cluster, pool=kwargs.pop("pool", "serial"), **kwargs)
    for name, plan in catalog.items():
        server.register_workload(name, plan)
    return server


def _run(coro):
    """Run one scenario under the zero-hung-requests lid."""
    return asyncio.run(asyncio.wait_for(coro, timeout=SCENARIO_TIMEOUT_S))


def _assert_attribution_exact(server, cost_before, decision_before):
    cost_delta = server.costs.stats_snapshot().since(cost_before)
    decision_delta = server.decisions.stats_snapshot().since(decision_before)
    assert server.stats.total("cost_stats").as_dict() == cost_delta.as_dict()
    assert server.stats.total("decision_stats").as_dict() == decision_delta.as_dict()


def _tenant_totals(server):
    rows = server.stats.tenants
    return {
        "completed": sum(r.completed for r in rows.values()),
        "failed": sum(r.failed for r in rows.values()),
        "degraded": sum(r.degraded for r in rows.values()),
        "shed": sum(r.shed for r in rows.values()),
        "breaker_trips": sum(r.breaker_trips for r in rows.values()),
        "breaker_short_circuits": sum(r.breaker_short_circuits for r in rows.values()),
    }


# ------------------------------------------------------------------ scenarios
def _scenario_baseline(cluster, catalog, oracle):
    """No faults: everything level 0 and bit-identical."""

    async def main():
        server = _make_server(cluster, catalog)
        cost_before = server.costs.stats_snapshot()
        decision_before = server.decisions.stats_snapshot()
        async with server:
            responses = await asyncio.gather(
                *[server.submit(_request(i)) for i in range(8)]
            )
        for response in responses:
            assert response.ok, response.error
            assert response.degradation_level == 0
            assert response.identity() == oracle
        _assert_attribution_exact(server, cost_before, decision_before)
        totals = _tenant_totals(server)
        assert totals == {
            "completed": 8,
            "failed": 0,
            "degraded": 0,
            "shed": 0,
            "breaker_trips": 0,
            "breaker_short_circuits": 0,
        }
        return {"requests": 8, "injected": 0, "degraded": 0, "shed": 0}

    return _run(main())


def _scenario_rung_faults(cluster, catalog, oracle, seed):
    """One seeded full-rung fault against t0: exactly one degraded answer."""
    victim_ordinal = seed % 3 + 1  # which of t0's full attempts blows up
    plan = FaultPlan(
        [
            FaultSpec(
                site="server.rung.full",
                kind="exception",
                match={"tenant": "t0"},
                at_hits=(victim_ordinal,),
            )
        ],
        seed=seed,
        name=f"rung-fault-seed-{seed}",
    )

    async def main():
        # Threshold high enough that this scenario never trips the breaker:
        # the fault count must explain the degraded count by itself.
        server = _make_server(cluster, catalog, breaker_threshold=99)
        cost_before = server.costs.stats_snapshot()
        decision_before = server.decisions.stats_snapshot()
        async with server:
            responses = [await server.submit(_request(0, tenant="t0")) for _ in range(4)]
            control = await asyncio.gather(
                *[server.submit(_request(i)) for i in range(1, 4)]
            )
        assert plan.fires("server.rung.full") == 1
        degraded = [r for r in responses if r.degradation_level > 0]
        assert len(degraded) == 1  # exact: one fire, one degraded answer
        assert degraded[0].degradation_level >= 1
        assert "full: InjectedFault" in degraded[0].degradation_reason
        for response in responses + list(control):
            assert response.ok, response.error
            if response.degradation_level == 0:
                assert response.identity() == oracle
        _assert_attribution_exact(server, cost_before, decision_before)
        totals = _tenant_totals(server)
        assert totals["degraded"] == 1 and totals["failed"] == 0
        return {
            "seed": seed,
            "requests": 7,
            "injected": plan.fires(),
            "degraded": totals["degraded"],
            "degraded_rung": degraded[0].degradation,
        }

    with install_fault_plan(plan):
        return _run(main())


def _scenario_hang_vs_deadline(cluster, catalog, oracle):
    """A hung dependency is cut short by the victim's deadline: level 3."""
    victims = 2
    plan = FaultPlan(
        [
            FaultSpec(
                site="server.execute",
                kind="hang",
                match={"tenant": "victim"},
                delay_s=0.5,
            )
        ],
        name="hang-vs-deadline",
    )

    async def main():
        server = _make_server(cluster, catalog)
        cost_before = server.costs.stats_snapshot()
        decision_before = server.decisions.stats_snapshot()
        async with server:
            # Sequential victims: dispatched immediately (so never shed),
            # then hung past their whole budget — the ladder floors them.
            hung = [
                await server.submit(_request(0, tenant="victim", deadline_s=0.3))
                for _ in range(victims)
            ]
            bystanders = await asyncio.gather(
                *[server.submit(_request(i)) for i in range(4)]
            )
        assert plan.fires("server.execute") == victims
        for response in hung:
            assert response.ok, response.error
            assert response.degradation_level == 3 and not response.shed
            assert "deadline exhausted" in response.degradation_reason
        for response in bystanders:
            assert response.ok and response.degradation_level == 0
            assert response.identity() == oracle
        _assert_attribution_exact(server, cost_before, decision_before)
        totals = _tenant_totals(server)
        assert totals["degraded"] == victims and totals["shed"] == 0
        return {
            "requests": victims + 4,
            "injected": plan.fires(),
            "degraded": totals["degraded"],
            "shed": 0,
        }

    with install_fault_plan(plan):
        return _run(main())


def _scenario_shedding(cluster, catalog, oracle):
    """Requests expiring in the queue are answered (level 3), not dropped."""
    victims = 3

    async def main():
        server = _make_server(cluster, catalog)
        await server.start(serve=False)  # hold dispatch until deadlines pass
        try:
            cost_before = server.costs.stats_snapshot()
            decision_before = server.decisions.stats_snapshot()
            doomed = [
                asyncio.ensure_future(
                    server.submit(_request(0, tenant="late", deadline_s=0.05))
                )
                for _ in range(victims)
            ]
            patient = [
                asyncio.ensure_future(server.submit(_request(i))) for i in range(4)
            ]
            await asyncio.sleep(0.2)
            server.resume()
            shed_responses = await asyncio.gather(*doomed)
            served = await asyncio.gather(*patient)
        finally:
            await server.stop()
        for response in shed_responses:
            assert response.ok and response.shed
            assert response.degradation_level == 3
            assert response.plan_signature  # an answer, not a stub
        for response in served:
            assert response.ok and not response.shed
            assert response.degradation_level == 0
            assert response.identity() == oracle
        assert server.admission.stats.shed_expired == victims
        _assert_attribution_exact(server, cost_before, decision_before)
        totals = _tenant_totals(server)
        assert totals["shed"] == victims and totals["degraded"] == 0
        return {
            "requests": victims + 4,
            "injected": victims,
            "shed": totals["shed"],
            "degraded": 0,
        }

    return _run(main())


def _scenario_breaker(cluster, catalog, oracle):
    """A poisoned tenant trips its breaker; fires + short-circuits = degraded."""
    threshold, extra = 3, 3
    plan = FaultPlan(
        [FaultSpec(site="server.rung.full", kind="exception", match={"tenant": "hot"})],
        name="poisoned-tenant",
    )

    async def main():
        server = _make_server(
            cluster, catalog, breaker_threshold=threshold, breaker_backoff_s=60.0
        )
        cost_before = server.costs.stats_snapshot()
        decision_before = server.decisions.stats_snapshot()
        async with server:
            hot = [
                await server.submit(_request(0, tenant="hot"))
                for _ in range(threshold + extra)
            ]
            control = await server.submit(_request(1))
        fires = plan.fires("server.rung.full")
        assert fires == threshold  # short-circuited requests never reach the rung
        for response in hot:
            assert response.ok and response.degradation_level >= 1
        breaker = server.breaker("hot")
        assert breaker.state == "open" and breaker.trips == 1
        row = server.stats.tenant("hot")
        assert row.breaker_trips == 1
        assert row.breaker_short_circuits == extra
        # Exact arithmetic: every degraded answer is a fire or a short-circuit.
        assert row.degraded == fires + row.breaker_short_circuits
        assert control.degradation_level == 0
        assert control.identity() == oracle
        _assert_attribution_exact(server, cost_before, decision_before)
        return {
            "requests": threshold + extra + 1,
            "injected": fires,
            "degraded": row.degraded,
            "breaker_trips": row.breaker_trips,
            "breaker_short_circuits": row.breaker_short_circuits,
        }

    with install_fault_plan(plan):
        return _run(main())


def _scenario_worker_kill(cluster, catalog, oracle):
    """A SIGKILLed pool worker: retried on the survivor, answers identical."""
    # Killed on its *first* task: slot 0 always receives the batch's first
    # request, so the death is certain.  A second-task kill is a race in a
    # four-request batch — worker 1 replays requests 2 and 3 from its warm
    # decision cache in ~2 ms each, so worker 0 only ever sees a second task
    # if its first search ends within ~5 ms of worker 1's.
    plan = FaultPlan(
        [
            FaultSpec(
                site="parallel.task",
                kind="kill",
                match={"worker_slot": 0},
                at_hits=(1,),
            )
        ],
        name="kill-worker-0",
    )

    async def main():
        server = _make_server(cluster, catalog, pool="process:2")
        cost_before = server.costs.stats_snapshot()
        decision_before = server.decisions.stats_snapshot()
        await server.start(serve=False)  # one guaranteed 4-request batch
        try:
            futures = [
                asyncio.ensure_future(server.submit(_request(i))) for i in range(4)
            ]
            await asyncio.sleep(0.1)
            server.resume()
            responses = await asyncio.gather(*futures)
            stats = server.dispatch_stats()
        finally:
            await server.stop()
        for response in responses:
            assert response.ok, response.error
            assert response.degradation_level == 0
            assert response.identity() == oracle
        assert stats.worker_deaths >= 1
        assert stats.retried_tasks >= 1
        assert stats.tasks == 4  # exactly one counted execution per request
        _assert_attribution_exact(server, cost_before, decision_before)
        totals = _tenant_totals(server)
        assert totals["failed"] == 0 and totals["degraded"] == 0
        return {
            "requests": 4,
            "worker_deaths": stats.worker_deaths,
            "retried_tasks": stats.retried_tasks,
            "degraded": 0,
        }

    with install_fault_plan(plan):
        return _run(main())


def _scenario_corrupted_caches(cluster, catalog, oracle, tmp_dir):
    """Mangled persisted stores are rejected quietly; answers stay identical."""
    cost_path = os.path.join(tmp_dir, "resilience-costs.cache")
    decision_path = os.path.join(tmp_dir, "resilience-decisions.cache")

    async def wave(server):
        async with server:
            return await asyncio.gather(*[server.submit(_request(i)) for i in range(4)])

    async def main():
        # Populate and persist, then mangle both files on disk.
        first = _make_server(
            cluster, catalog, cache_path=cost_path, decision_cache_path=decision_path
        )
        for response in await wave(first):
            assert response.ok and response.identity() == oracle
        assert corrupt_file(cost_path, seed=5)
        assert truncate_file(decision_path, fraction=0.5)

        # The warm restart loads nothing — and says so — but serves cold,
        # undegraded, bit-identical answers.
        second = _make_server(
            cluster, catalog, cache_path=cost_path, decision_cache_path=decision_path
        )
        assert second.costs.last_load is not None and not second.costs.last_load.loaded
        assert (
            second.decisions.last_load is not None
            and not second.decisions.last_load.loaded
        )
        cost_before = second.costs.stats_snapshot()
        decision_before = second.decisions.stats_snapshot()
        responses = await wave(second)
        for response in responses:
            assert response.ok, response.error
            assert response.degradation_level == 0
            assert response.identity() == oracle
        _assert_attribution_exact(second, cost_before, decision_before)
        totals = _tenant_totals(second)
        assert totals["degraded"] == 0 and totals["failed"] == 0
        return {
            "requests": 4,
            "cost_load_rejected": second.costs.last_load.reason,
            "decision_load_rejected": second.decisions.last_load.reason,
            "degraded": 0,
        }

    return _run(main())


# ------------------------------------------------------------------ the bench
def test_bench_service_resilience(benchmark, cluster, tmp_path):
    catalog = _build_catalog(cluster)
    oracle = oracle_fingerprint(cold_optimize(cluster, catalog["pj"], "Stubby"))

    def run_all():
        rows = {}
        rows["baseline"] = _scenario_baseline(cluster, catalog, oracle)
        rows["rung_faults"] = [
            _scenario_rung_faults(cluster, catalog, oracle, seed)
            for seed in range(RESILIENCE_SEEDS)
        ]
        rows["hang_vs_deadline"] = _scenario_hang_vs_deadline(cluster, catalog, oracle)
        rows["shedding"] = _scenario_shedding(cluster, catalog, oracle)
        rows["breaker"] = _scenario_breaker(cluster, catalog, oracle)
        rows["worker_kill"] = _scenario_worker_kill(cluster, catalog, oracle)
        rows["corrupted_caches"] = _scenario_corrupted_caches(
            cluster, catalog, oracle, str(tmp_path)
        )
        return rows

    rows = run_once(benchmark, run_all)

    payload = {
        "benchmark": "service_resilience",
        "scale": BENCHMARK_SCALE,
        "resilience_seeds": RESILIENCE_SEEDS,
        "scenario_timeout_s": SCENARIO_TIMEOUT_S,
        "zero_hung_requests": True,  # every scenario completed under the lid
        "scenarios": rows,
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print("\nService resilience soak (every scenario reconciled exactly)")
    print("scenario             requests  injected  degraded  shed  notes")
    flat = [("baseline", rows["baseline"])]
    flat += [(f"rung_faults[{r['seed']}]", r) for r in rows["rung_faults"]]
    flat += [
        ("hang_vs_deadline", rows["hang_vs_deadline"]),
        ("shedding", rows["shedding"]),
        ("breaker", rows["breaker"]),
        ("worker_kill", rows["worker_kill"]),
        ("corrupted_caches", rows["corrupted_caches"]),
    ]
    for name, row in flat:
        notes = ""
        if "breaker_trips" in row:
            notes = f"trips={row['breaker_trips']} short_circuits={row['breaker_short_circuits']}"
        if "worker_deaths" in row:
            notes = f"deaths={row['worker_deaths']} retried={row['retried_tasks']}"
        print(
            f"{name:<20} {row.get('requests', 0):>8} {row.get('injected', 0):>9} "
            f"{row.get('degraded', 0):>9} {row.get('shed', 0):>5}  {notes}"
        )
    assert os.path.exists(_output_path())
