"""Soak benchmark of the planning service (BENCH_planning_service.json).

A short mixed-tenant soak against the :class:`PlanningServer`: four tenants
fire ``SOAK_REQUESTS`` requests over a mixed canned/random workload × variant
grid, first against a **cold** server, then — after a warm
``restart()`` — against the same server's merged caches.  The soak runs on
a serial pool (the reference) and on a stealing process pool.

The JSON payload records throughput, p50/p99 latency, per-tenant cache hit
rates, and the pool's dispatch accounting (steals, idle cost units), so CI
can archive the serving-perf trajectory across PRs.

Contracts:

* **identity, always** — every response of every soak is bit-identical to
  the cold in-process oracle (:func:`cold_optimize`);
* **counters, always** — per-tenant attributed stats sum exactly to the
  global cache deltas, and the warm wave's decision hit rate is strictly
  above the cold wave's;
* **wall-clock, where parallelism exists** — on hosts with more than 4
  usable CPUs the process pool's cold soak must beat the serial pool's by
  ``BENCH_SERVICE_MIN_SPEEDUP`` (default 1.3; requests share one cost
  service, so the win is bounded by the cold solves that can overlap).
  ``BENCH_SERVICE_ENFORCE=always`` / ``never`` overrides the policy.
"""

import asyncio
import json
import os
import time

from conftest import BENCHMARK_SCALE, run_once, speedup_enforced, usable_cpus

from repro.cluster import ClusterSpec
from repro.profiler import Profiler
from repro.service import PlanRequest, PlanningServer, cold_optimize, oracle_fingerprint, percentile
from repro.verification import RandomWorkflowGenerator
from repro.verification.generator import GeneratorConfig
from repro.workloads import build_workload

#: Requests per wave (each soak runs one cold and one warm wave).
SOAK_REQUESTS = int(os.environ.get("BENCH_SERVICE_REQUESTS", "48"))

PARALLEL_POOL = "process:4"

COMBOS = (
    ("rand-a", "Stubby"),
    ("rand-b", "Stubby"),
    ("pj", "Stubby"),
    ("rand-a", "Vertical"),
    ("rand-b", "Horizontal"),
    ("pj", "Baseline"),
)


def _output_path():
    return os.environ.get("BENCH_SERVICE_OUT", "BENCH_planning_service.json")


def _min_speedup() -> float:
    return float(os.environ.get("BENCH_SERVICE_MIN_SPEEDUP", "1.3"))


def _build_catalog(cluster):
    plans = {}
    for name, seed in (("rand-a", 101), ("rand-b", 202)):
        generated = RandomWorkflowGenerator(
            GeneratorConfig(min_jobs=3, max_jobs=4)
        ).generate(seed)
        plans[name] = generated.plan
    workload = build_workload("PJ", scale=BENCHMARK_SCALE, seed=42)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    plans["pj"] = workload.plan
    return plans


def _request(i: int) -> PlanRequest:
    workload, optimizer = COMBOS[i % len(COMBOS)]
    return PlanRequest(
        tenant=f"t{i % 4}",
        workload=workload,
        optimizer=optimizer,
        cost_weight=3.0 if optimizer == "Stubby" else 1.0,
    )


def _soak(cluster, catalog, pool):
    """One cold wave + warm restart + one warm wave; returns measurements."""

    async def main():
        server = PlanningServer(cluster, pool=pool)
        for name, plan in catalog.items():
            server.register_workload(name, plan)
        cost_before = server.costs.stats_snapshot()
        decision_before = server.decisions.stats_snapshot()
        waves = {}
        async with server:
            for wave in ("cold", "warm"):
                decisions_before = server.stats.total("decision_stats")
                started = time.perf_counter()
                responses = await asyncio.gather(
                    *[server.submit(_request(i)) for i in range(SOAK_REQUESTS)]
                )
                elapsed = time.perf_counter() - started
                waves[wave] = {
                    "responses": responses,
                    "wall_s": elapsed,
                    "decision_delta": server.stats.total("decision_stats").since(
                        decisions_before
                    ),
                }
                if wave == "cold":
                    await server.restart()
            dispatch = server.dispatch_stats()
        cost_delta = server.costs.stats_snapshot().since(cost_before)
        decision_delta = server.decisions.stats_snapshot().since(decision_before)
        return server, waves, dispatch, cost_delta, decision_delta

    return asyncio.run(main())


def _wave_row(wave):
    latencies = [response.latency_s for response in wave["responses"]]
    delta = wave["decision_delta"]
    return {
        "requests": len(latencies),
        "wall_s": round(wave["wall_s"], 4),
        "throughput_rps": round(len(latencies) / max(wave["wall_s"], 1e-9), 2),
        "latency_p50_ms": round(percentile(latencies, 50) * 1e3, 2),
        "latency_p99_ms": round(percentile(latencies, 99) * 1e3, 2),
        "decision_hit_rate": round(delta.hit_rate, 4),
        "decision_lookups": delta.lookups,
    }


def test_bench_planning_service(benchmark, cluster):
    catalog = _build_catalog(cluster)
    oracles = {
        (workload, optimizer): oracle_fingerprint(
            cold_optimize(cluster, catalog[workload], optimizer)
        )
        for workload, optimizer in COMBOS
    }

    def run_all():
        serial = _soak(cluster, catalog, "serial")
        parallel = _soak(cluster, catalog, PARALLEL_POOL)
        return serial, parallel

    serial, parallel = run_once(benchmark, run_all)

    pools = {}
    for pool, (server, waves, dispatch, cost_delta, decision_delta) in (
        ("serial", serial),
        (PARALLEL_POOL, parallel),
    ):
        # Contract 1: identity, every response of every wave.
        for wave in waves.values():
            for response in wave["responses"]:
                assert response.ok, response.error
                key = (response.workload, response.optimizer)
                assert response.identity() == oracles[key], (
                    f"{pool}: {key} diverged from the cold oracle"
                )
        # Contract 2a: exact per-tenant attribution reconciliation.
        assert server.stats.total("cost_stats").as_dict() == cost_delta.as_dict()
        assert server.stats.total("decision_stats").as_dict() == decision_delta.as_dict()
        # Contract 2b: the warm wave strictly beats the cold wave.
        assert waves["warm"]["decision_delta"].hit_rate > waves["cold"][
            "decision_delta"
        ].hit_rate, f"{pool}: warm wave did not beat the cold wave's hit rate"
        pools[pool] = {
            "cold": _wave_row(waves["cold"]),
            "warm": _wave_row(waves["warm"]),
            "dispatch": dispatch.as_dict(),
            "tenants": {
                name: {
                    "completed": row.completed,
                    "cost_hit_rate": round(row.cache_hit_rate, 4),
                    "decision_hit_rate": round(row.decision_hit_rate, 4),
                    "latency_p50_ms": round(percentile(row.latencies, 50) * 1e3, 2),
                    "latency_p99_ms": round(percentile(row.latencies, 99) * 1e3, 2),
                }
                for name, row in server.stats.tenants.items()
            },
        }

    cpus = usable_cpus()
    enforced = speedup_enforced("BENCH_SERVICE_ENFORCE", cpus)
    speedup = serial[1]["cold"]["wall_s"] / max(parallel[1]["cold"]["wall_s"], 1e-9)

    payload = {
        "benchmark": "planning_service",
        "scale": BENCHMARK_SCALE,
        "requests_per_wave": SOAK_REQUESTS,
        "combos": [list(combo) for combo in COMBOS],
        "parallel_pool": PARALLEL_POOL,
        "usable_cpus": cpus,
        "identity_ok": True,
        "cold_soak_speedup": round(speedup, 3),
        "speedup_enforced": enforced,
        "min_speedup": _min_speedup(),
        "pools": pools,
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(
        f"\nPlanning service soak, {SOAK_REQUESTS} requests/wave x 4 tenants, "
        f"serial vs {PARALLEL_POOL} ({cpus} usable CPU(s))"
    )
    print("pool / wave          wall_s   req/s   p50 ms   p99 ms  decision hit")
    for pool, rows in pools.items():
        for wave in ("cold", "warm"):
            row = rows[wave]
            print(
                f"{pool:<12} {wave:<6} {row['wall_s']:>7.2f} {row['throughput_rps']:>7.1f} "
                f"{row['latency_p50_ms']:>8.1f} {row['latency_p99_ms']:>8.1f} "
                f"{row['decision_hit_rate']:>12.3f}"
            )
        dispatch = rows["dispatch"]
        print(
            f"{pool:<12} dispatch: steals={dispatch['steals']} "
            f"idle_cost_units={dispatch['idle_cost_units']:.1f} "
            f"worker_deaths={dispatch['worker_deaths']}"
        )
    print(f"cold soak speedup (serial / {PARALLEL_POOL}): {speedup:.2f}x")

    if enforced:
        assert speedup >= _min_speedup(), (
            f"{PARALLEL_POOL} cold soak reached only {speedup:.2f}x over serial "
            f"on {cpus} CPUs (required {_min_speedup():.1f}x); see {_output_path()}"
        )
    assert os.path.exists(_output_path())
