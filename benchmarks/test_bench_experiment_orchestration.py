"""Wall-clock benchmark of the experiment orchestration (BENCH_experiment_orchestration.json).

Runs one multi-workload, multi-optimizer experiment three ways:

1. **cold serial** — the reference: every (workload × optimizer) cell in a
   loop, cold persisted cache (this run *writes* the cache);
2. **cold parallel** — the same experiment fanned out on the fork-based
   process backend at 4 workers, starting from an equally cold cache;
3. **warm serial** — the same experiment again, warm-started from the cache
   run 1 persisted.

The result is written to ``BENCH_experiment_orchestration.json`` (path
overridable through ``BENCH_EXPERIMENT_ORCH_OUT``) so CI can archive the
perf trajectory across PRs.

Three contracts are enforced:

* **identity, always** — all three runs must report byte-for-byte the same
  results (same optimized plans, same simulated runtimes, same speedups) at
  any core count, warm or cold.
* **warm-start, always** — the warm run must show a strictly higher
  cost-service hit rate than the cold run, and cross-origin hits (reuse of
  the previous run's persisted entries) must be present.
* **speedup, where parallelism exists** — on hosts with *more than* 4
  usable CPUs the parallel cell phase must be at least
  ``BENCH_EXPERIMENT_MIN_SPEEDUP`` (default 1.5, below the unit-search gate
  because cells are coarse and heterogeneous, so the longest cell bounds
  the win) times faster than the serial cell phase.  On smaller hosts the
  speedup is recorded honestly but not asserted —
  ``BENCH_EXPERIMENT_ENFORCE=always`` / ``never`` overrides the policy.
"""

import json
import os

from conftest import BENCHMARK_SCALE, run_once, speedup_enforced, usable_cpus

from repro.experiments import ExperimentHarness

#: The experiment grid: enough workloads to exercise scheduling, enough
#: optimizer variants per workload to exercise cross-cell signature sharing.
WORKLOADS = ("PJ", "BR", "IR")
OPTIMIZERS = ("Baseline", "Stubby", "Vertical", "Horizontal")

PARALLEL_BACKEND = "process:4"


def _output_path():
    return os.environ.get("BENCH_EXPERIMENT_ORCH_OUT", "BENCH_experiment_orchestration.json")


def _min_speedup() -> float:
    return float(os.environ.get("BENCH_EXPERIMENT_MIN_SPEEDUP", "1.5"))


def _run_row(result):
    """The per-run numbers recorded in the JSON payload."""
    stats = result.cost_stats
    return {
        "backend": result.backend,
        "prepare_s": round(result.prepare_s, 4),
        "cells_s": round(result.cells_s, 4),
        "wall_s": round(result.wall_s, 4),
        "queries": stats.queries,
        "job_queries": stats.job_queries,
        "cache_hit_rate": round(stats.cache_hit_rate, 4),
        "reuse_rate": round(stats.reuse_rate, 4),
        "cross_unit_hits": result.cross_unit_hits,
        "warm_start_entries": result.warm_start_entries,
        "cache_entries_at_start": result.cache_entries_at_start,
    }


def test_bench_experiment_orchestration(benchmark, cluster, tmp_path):
    cache_path = str(tmp_path / "experiment.cache")

    def run_experiment(backend, with_cache):
        harness = ExperimentHarness(
            cluster=cluster,
            scale=BENCHMARK_SCALE,
            cache_path=cache_path if with_cache else "",
        )
        return harness.run(workloads=WORKLOADS, optimizers=OPTIMIZERS, backend=backend)

    def run_all():
        cold = run_experiment("serial", with_cache=True)  # persists the cache
        parallel = run_experiment(PARALLEL_BACKEND, with_cache=False)
        warm = run_experiment("serial", with_cache=True)
        return cold, parallel, warm

    cold, parallel, warm = run_once(benchmark, run_all)

    # Contract 1: identity — every backend, warm or cold, same results.
    assert parallel.decision_fingerprint() == cold.decision_fingerprint(), (
        f"{PARALLEL_BACKEND} made different decisions than serial"
    )
    assert warm.decision_fingerprint() == cold.decision_fingerprint(), (
        "warm-started run made different decisions than the cold run"
    )

    # Contract 2: warm-start — strictly better hit rate, visible reuse.
    assert warm.warm_start_entries > 0
    assert warm.cost_stats.cache_hit_rate > cold.cost_stats.cache_hit_rate, (
        f"warm hit rate {warm.cost_stats.cache_hit_rate:.4f} not above cold "
        f"{cold.cost_stats.cache_hit_rate:.4f}"
    )
    assert warm.cross_unit_hits > 0

    cpus = usable_cpus()
    enforced = speedup_enforced("BENCH_EXPERIMENT_ENFORCE", cpus)
    speedup = cold.cells_s / max(parallel.cells_s, 1e-9)

    payload = {
        "benchmark": "experiment_orchestration",
        "scale": BENCHMARK_SCALE,
        "workloads": list(WORKLOADS),
        "optimizers": list(OPTIMIZERS),
        "parallel_backend": PARALLEL_BACKEND,
        "usable_cpus": cpus,
        "identity_ok": True,
        "cells_speedup": round(speedup, 3),
        "speedup_enforced": enforced,
        "min_speedup": _min_speedup(),
        "cold_serial": _run_row(cold),
        "cold_parallel": _run_row(parallel),
        "warm_serial": _run_row(warm),
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(
        f"\nExperiment orchestration, {len(WORKLOADS)}x{len(OPTIMIZERS)} cells, "
        f"serial vs {PARALLEL_BACKEND} ({cpus} usable CPU(s))"
    )
    print("run           cells_s  hit_rate  cross_hits  warm_entries")
    for label, row in (
        ("cold serial", _run_row(cold)),
        ("cold parallel", _run_row(parallel)),
        ("warm serial", _run_row(warm)),
    ):
        print(
            f"{label:<13} {row['cells_s']:>7.2f} {row['cache_hit_rate']:>9.3f} "
            f"{row['cross_unit_hits']:>11d} {row['warm_start_entries']:>13d}"
        )
    print(f"cells speedup (cold serial / cold parallel): {speedup:.2f}x")

    if enforced:
        assert speedup >= _min_speedup(), (
            f"{PARALLEL_BACKEND} reached only {speedup:.2f}x over serial on "
            f"{cpus} CPUs (required {_min_speedup():.1f}x); see {_output_path()}"
        )
    assert os.path.exists(_output_path())
