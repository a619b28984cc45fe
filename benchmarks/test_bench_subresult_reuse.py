"""Sub-result reuse benchmark: repeated traffic (BENCH_subresult_reuse.json).

Simulates the ReStore scenario — a stream of related workflows arriving in
waves over one shared :class:`~repro.core.subresults.SubResultCatalog`:

1. **wave 1 (cold producers)** — fresh shared-prefix workflows are
   optimized against an empty catalog, executed, and their intermediates
   registered.  Every probe misses: hit rate 0.
2. **wave 2 (mixed)** — the sibling workflows of wave 1 arrive (their
   prefixes are warm: hits) alongside brand-new producers (cold: misses).
   Hit rate strictly between 0 and 1.
3. **wave 3 (replay)** — every sibling workflow arrives again; by now all
   prefixes are registered and every probe hits: hit rate 1.

Contracts enforced **everywhere** (counter-based, independent of host
speed):

* hit rates strictly increase across waves (0 → mixed → 1);
* the warm waves serve cross-origin hits (entries an earlier wave paid
  for) and eliminate producing-cone jobs from winning plans;
* **exact reconciliation** — the catalog's global counters equal the sum
  of the per-wave attribution sinks, to the counter;
* the reuse plans' estimated makespan never exceeds the recompute plans'
  (the rewrite is cost-arbitrated against a candidate superset) and saves
  a strictly positive total.

Wall-clock *execution* speedup (recompute plans vs reuse plans of the
replay wave) is recorded honestly everywhere but only asserted on hosts
with more than 4 usable CPUs — ``BENCH_SUBRESULT_ENFORCE=always``/``never``
overrides the policy and ``BENCH_SUBRESULT_MIN_SPEEDUP`` (default 1.2)
sets the bar.
"""

import json
import os
import time

from conftest import run_once, speedup_enforced, usable_cpus

from repro.common.store import attributed
from repro.core.optimizer import StubbyOptimizer
from repro.core.subresults import (
    SubResultCatalog,
    SubResultCatalogStats,
    register_workflow_outputs,
)
from repro.verification.generator import RandomWorkflowGenerator
from repro.workflow.executor import WorkflowExecutor

WAVE1_SEEDS = (11, 12, 13, 14)
WAVE2_NEW_SEEDS = (15, 16)
ALL_SEEDS = WAVE1_SEEDS + WAVE2_NEW_SEEDS


def _output_path():
    return os.environ.get("BENCH_SUBRESULT_REUSE_OUT", "BENCH_subresult_reuse.json")


def _min_speedup() -> float:
    return float(os.environ.get("BENCH_SUBRESULT_MIN_SPEEDUP", "1.2"))


def _execute(workflow, base_datasets, collect=False):
    return WorkflowExecutor().execute(workflow, base_datasets, collect_outputs=collect)


def _register(catalog, generated, origin):
    result, _fs = _execute(generated.workflow.copy(), generated.base_datasets, collect=True)
    outputs = {}
    for per_job in result.job_outputs.values():
        outputs.update(per_job)
    return register_workflow_outputs(
        catalog, generated.workflow, outputs, origin=origin
    )


def _optimize(cluster, catalog, generated):
    """One tenant request: optimize against the shared catalog and credit
    the eliminated jobs exactly like the harness/server do."""
    result = StubbyOptimizer(cluster, subresult_catalog=catalog).optimize(generated.plan)
    if result.jobs_eliminated_by_reuse:
        catalog.record_jobs_eliminated(result.jobs_eliminated_by_reuse)
    return result


def _wave_row(sink, results):
    return {
        "requests": len(results),
        "hits": sink.hits,
        "misses": sink.misses,
        "cross_origin_hits": sink.cross_origin_hits,
        "stores": sink.stores,
        "hit_rate": round(sink.hit_rate, 4),
        "reuse_applications": sum(r.subresult_reuse_applications for r in results),
        "jobs_eliminated": sum(r.jobs_eliminated_by_reuse for r in results),
        "plan_jobs": sum(len(r.plan.workflow.jobs) for r in results),
        "estimated_makespan_s": round(sum(r.estimated_cost_s for r in results), 4),
    }


def test_bench_subresult_reuse(benchmark, cluster):
    generator = RandomWorkflowGenerator()
    pairs = {seed: generator.shared_prefix_pair(seed) for seed in ALL_SEEDS}

    def run_all():
        catalog = SubResultCatalog(cluster)
        sinks, wave_results = [], []

        # Wave 1: cold producers — optimize, execute, register.
        results = []
        with attributed((catalog,), "wave-1") as (sink,):
            for seed in WAVE1_SEEDS:
                first, _second = pairs[seed]
                results.append(_optimize(cluster, catalog, first))
                _register(catalog, first, origin="wave-1")
        sinks.append(sink)
        wave_results.append(results)

        # Wave 2: warm siblings mixed with brand-new cold producers.
        results = []
        with attributed((catalog,), "wave-2") as (sink,):
            for seed in WAVE1_SEEDS:
                results.append(_optimize(cluster, catalog, pairs[seed][1]))
            for seed in WAVE2_NEW_SEEDS:
                first, _second = pairs[seed]
                results.append(_optimize(cluster, catalog, first))
                _register(catalog, first, origin="wave-2")
        sinks.append(sink)
        wave_results.append(results)

        # Wave 3: full replay of every sibling — everything is warm now.
        results = []
        with attributed((catalog,), "wave-3") as (sink,):
            for seed in ALL_SEEDS:
                results.append(_optimize(cluster, catalog, pairs[seed][1]))
        sinks.append(sink)
        wave_results.append(results)

        # Recompute reference for the replay wave: the same workflows
        # optimized with no catalog at all.
        cold_results = [
            StubbyOptimizer(cluster).optimize(pairs[seed][1].plan) for seed in ALL_SEEDS
        ]

        # Execution wall clock: recompute plans vs reuse plans.
        started = time.perf_counter()
        for result, seed in zip(cold_results, ALL_SEEDS):
            _execute(result.plan.workflow, pairs[seed][1].base_datasets)
        cold_exec_s = time.perf_counter() - started
        started = time.perf_counter()
        for result, seed in zip(wave_results[2], ALL_SEEDS):
            _execute(result.plan.workflow, pairs[seed][1].base_datasets)
        warm_exec_s = time.perf_counter() - started

        return catalog, sinks, wave_results, cold_results, cold_exec_s, warm_exec_s

    catalog, sinks, wave_results, cold_results, cold_exec_s, warm_exec_s = run_once(
        benchmark, run_all
    )
    rows = [_wave_row(sink, results) for sink, results in zip(sinks, wave_results)]

    # Contract 1: strictly increasing hit rate — cold, mixed, full replay.
    # (Even a fully warm wave is not 1.0: the search probes intermediate
    # candidate plans — e.g. after a packing rewrite — whose mutated
    # subgraphs legitimately miss.)
    assert rows[0]["hit_rate"] == 0.0
    assert rows[0]["hit_rate"] < rows[1]["hit_rate"] < rows[2]["hit_rate"]
    assert rows[2]["hit_rate"] >= 0.5
    assert 0 < rows[1]["misses"]

    # Contract 2: the warm waves reuse across workflows and eliminate jobs.
    assert rows[1]["cross_origin_hits"] > 0
    assert rows[2]["cross_origin_hits"] > 0
    warm_jobs_eliminated = rows[1]["jobs_eliminated"] + rows[2]["jobs_eliminated"]
    assert warm_jobs_eliminated >= 1
    assert rows[0]["jobs_eliminated"] == 0

    # Contract 3: exact reconciliation — global counters equal the summed
    # per-wave sinks, to the counter.
    total = SubResultCatalogStats()
    for sink in sinks:
        total.accumulate(sink)
    snapshot = catalog.stats_snapshot()
    assert snapshot.as_dict() == total.as_dict()
    assert snapshot.jobs_eliminated == sum(row["jobs_eliminated"] for row in rows)

    # Contract 4: reuse is cost-arbitrated over a candidate superset — the
    # replay wave's estimated makespan never exceeds the recompute plans'.
    cold_makespan = sum(r.estimated_cost_s for r in cold_results)
    warm_makespan = rows[2]["estimated_makespan_s"]
    assert warm_makespan <= cold_makespan + 1e-9
    # Reuse plans run strictly fewer jobs than the recompute plans.  (Job
    # counts do not reconcile 1:1 against the cold baseline — each search
    # also packs jobs, differently on each side — the exact ledger is the
    # counter reconciliation of contract 3.)
    cold_jobs = sum(len(r.plan.workflow.jobs) for r in cold_results)
    assert rows[2]["plan_jobs"] < cold_jobs
    assert warm_makespan < cold_makespan  # eliminated jobs save real time

    cpus = usable_cpus()
    speedup = cold_exec_s / max(warm_exec_s, 1e-9)
    enforced = speedup_enforced("BENCH_SUBRESULT_ENFORCE", cpus)

    payload = {
        "benchmark": "subresult_reuse",
        "seeds": list(ALL_SEEDS),
        "usable_cpus": cpus,
        "waves": {f"wave{i + 1}": row for i, row in enumerate(rows)},
        "catalog_entries": catalog.catalog_size,
        "total_stats": snapshot.as_dict(),
        "replay_makespan_s": round(warm_makespan, 4),
        "recompute_makespan_s": round(cold_makespan, 4),
        "makespan_saved_s": round(cold_makespan - warm_makespan, 4),
        "recompute_exec_s": round(cold_exec_s, 4),
        "replay_exec_s": round(warm_exec_s, 4),
        "exec_speedup": round(speedup, 3),
        "speedup_enforced": enforced,
        "min_speedup": _min_speedup(),
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(f"\nSub-result reuse, {len(ALL_SEEDS)} workflow pairs ({cpus} usable CPU(s))")
    print("wave    reqs  hits  misses  x-origin  reuse  jobs-elim  hit_rate  est_s")
    for index, row in enumerate(rows):
        print(
            f"wave {index + 1}  {row['requests']:>4} {row['hits']:>5} "
            f"{row['misses']:>7} {row['cross_origin_hits']:>9} "
            f"{row['reuse_applications']:>6} {row['jobs_eliminated']:>10} "
            f"{row['hit_rate']:>8.2f} {row['estimated_makespan_s']:>7.2f}"
        )
    print(
        f"makespan {cold_makespan:.2f}s -> {warm_makespan:.2f}s, "
        f"execution speedup {speedup:.2f}x"
    )

    if enforced:
        assert speedup >= _min_speedup(), (
            f"replay execution reached only {speedup:.2f}x over recompute on "
            f"{cpus} CPUs (required {_min_speedup():.1f}x); see {_output_path()}"
        )
    assert os.path.exists(_output_path())
