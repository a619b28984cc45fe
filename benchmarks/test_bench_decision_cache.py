"""Decision-memoization benchmark: repeated workloads (BENCH_decision_cache.json).

Optimizes the same profiled workloads three times:

1. **cache off** — the reference: the full enumerate/compose/RRS search for
   every optimization unit, decision cache disabled;
2. **cold** — the same search with the decision cache enabled but empty
   (this pass records every unit's winning chain and persists the store);
3. **warm** — the same workloads again on a fresh cache warm-started from
   the persisted file: every unit replays its recorded decision and the
   search is skipped entirely.

The result is written to ``BENCH_decision_cache.json`` (path overridable
through ``BENCH_DECISION_CACHE_OUT``) so CI can archive the perf trajectory
across PRs.

Contracts enforced **everywhere** (counter-based, independent of host
speed):

* **identity** — all three passes produce bit-identical plans per workload
  (same structural signature, same per-job configurations);
* **skipped search** — the warm pass answers every unit from the cache
  (hits == the cold pass's misses, zero misses), issues at least 5x fewer
  what-if queries than the cold pass (exactly one per workload: the final
  whole-plan estimate), and runs at least 5x fewer RRS objective
  evaluations (exactly zero).

Wall-clock speedup (cold / warm) is recorded honestly everywhere but only
*asserted* on hosts with more than 4 usable CPUs, where timing noise is
low enough for a fair gate — ``BENCH_DECISION_ENFORCE=always`` / ``never``
overrides the policy and ``BENCH_DECISION_MIN_SPEEDUP`` (default 2.0) sets
the bar.
"""

import json
import os
import time

from conftest import BENCHMARK_SCALE, run_once, speedup_enforced, usable_cpus

from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer
from repro.core.search import plan_decision_fingerprint
from repro.profiler import Profiler
from repro.workloads import build_workload

WORKLOADS = ("PJ", "BR", "IR")


def _output_path():
    return os.environ.get("BENCH_DECISION_CACHE_OUT", "BENCH_decision_cache.json")


def _min_speedup() -> float:
    return float(os.environ.get("BENCH_DECISION_MIN_SPEEDUP", "2.0"))


def _rrs_evaluations(result) -> int:
    return sum(
        record.rrs_evaluations
        for report in result.unit_reports
        for record in report.subplans
    )


def _sweep(cluster, plans, cache_factory):
    """Optimize every plan once; return (elapsed_s, per-workload rows)."""
    rows = {}
    started = time.perf_counter()
    for name, plan in plans.items():
        optimizer = StubbyOptimizer(cluster, decision_cache=cache_factory())
        result = optimizer.optimize(plan)
        rows[name] = {
            "fingerprint": plan_decision_fingerprint(result.plan),
            "queries": result.whatif_queries,
            "rrs_evaluations": _rrs_evaluations(result),
            "decision_hits": result.unit_decision_hits,
            "decision_misses": result.unit_decision_misses,
            "estimated_cost_s": result.estimated_cost_s,
        }
    return time.perf_counter() - started, rows


def _totals(rows):
    return {
        key: sum(row[key] for row in rows.values())
        for key in ("queries", "rrs_evaluations", "decision_hits", "decision_misses")
    }


def _json_row(rows, elapsed_s):
    totals = _totals(rows)
    totals["wall_s"] = round(elapsed_s, 4)
    return totals


def test_bench_decision_cache(benchmark, cluster, tmp_path):
    cache_path = str(tmp_path / "decisions.cache")

    plans = {}
    for name in WORKLOADS:
        workload = build_workload(name, scale=BENCHMARK_SCALE)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        plans[name] = workload.plan

    def run_all():
        off_s, off = _sweep(
            cluster, plans, lambda: DecisionCache(cluster, enabled=False)
        )
        shared = DecisionCache(cluster, enabled=True, cache_path=cache_path)
        cold_s, cold = _sweep(cluster, plans, lambda: shared)
        shared.save_cache()
        # The warm pass starts from a *fresh* cache loaded off disk, so the
        # measured win includes the persistence round trip.
        warmed = DecisionCache(cluster, enabled=True, cache_path=cache_path)
        assert warmed.last_load is not None and warmed.last_load.loaded
        warm_s, warm = _sweep(cluster, plans, lambda: warmed)
        return (off_s, off), (cold_s, cold), (warm_s, warm)

    (off_s, off), (cold_s, cold), (warm_s, warm) = run_once(benchmark, run_all)

    # Contract 1: identity — cache off, cold, and warm all pick the same plan.
    for name in WORKLOADS:
        assert cold[name]["fingerprint"] == off[name]["fingerprint"], name
        assert warm[name]["fingerprint"] == off[name]["fingerprint"], name
        assert warm[name]["estimated_cost_s"] == off[name]["estimated_cost_s"], name

    # Contract 2: skipped search, counter-based (asserted on every host).
    off_totals, cold_totals, warm_totals = _totals(off), _totals(cold), _totals(warm)
    assert off_totals["decision_hits"] == off_totals["decision_misses"] == 0
    assert cold_totals["decision_hits"] == 0
    assert cold_totals["decision_misses"] > 0
    assert warm_totals["decision_hits"] == cold_totals["decision_misses"]
    assert warm_totals["decision_misses"] == 0
    # Every unit replays: the only remaining what-if query per workload is
    # the final whole-plan estimate, and no candidate re-runs RRS.
    assert warm_totals["queries"] == len(WORKLOADS)
    assert warm_totals["rrs_evaluations"] == 0
    assert cold_totals["queries"] >= 5 * warm_totals["queries"], (
        f"warm pass saved too little: {cold_totals['queries']} cold vs "
        f"{warm_totals['queries']} warm what-if queries"
    )
    assert cold_totals["rrs_evaluations"] >= 5 * max(1, warm_totals["rrs_evaluations"])

    cpus = usable_cpus()
    speedup = cold_s / max(warm_s, 1e-9)
    enforced = speedup_enforced("BENCH_DECISION_ENFORCE", cpus)

    payload = {
        "benchmark": "decision_cache",
        "scale": BENCHMARK_SCALE,
        "workloads": list(WORKLOADS),
        "usable_cpus": cpus,
        "identity_ok": True,
        "cache_off": _json_row(off, off_s),
        "cold": _json_row(cold, cold_s),
        "warm": _json_row(warm, warm_s),
        "query_reduction": round(
            cold_totals["queries"] / max(1, warm_totals["queries"]), 2
        ),
        "rrs_reduction": round(
            cold_totals["rrs_evaluations"] / max(1, warm_totals["rrs_evaluations"]), 2
        ),
        "warm_speedup": round(speedup, 3),
        "speedup_enforced": enforced,
        "min_speedup": _min_speedup(),
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(f"\nDecision memoization, {len(WORKLOADS)} workloads ({cpus} usable CPU(s))")
    print("pass       wall_s  queries  rrs_evals  hits  misses")
    for label, row in (
        ("cache off", _json_row(off, off_s)),
        ("cold", _json_row(cold, cold_s)),
        ("warm", _json_row(warm, warm_s)),
    ):
        print(
            f"{label:<10} {row['wall_s']:>6.2f} {row['queries']:>8d} "
            f"{row['rrs_evaluations']:>10d} {row['decision_hits']:>5d} "
            f"{row['decision_misses']:>7d}"
        )
    print(
        f"query reduction {payload['query_reduction']}x, "
        f"rrs reduction {payload['rrs_reduction']}x, "
        f"warm speedup {speedup:.2f}x"
    )

    if enforced:
        assert speedup >= _min_speedup(), (
            f"warm pass reached only {speedup:.2f}x over cold on {cpus} CPUs "
            f"(required {_min_speedup():.1f}x); see {_output_path()}"
        )
    assert os.path.exists(_output_path())
