"""Wall-clock benchmark of the parallel unit search (BENCH_parallel_search.json).

Runs the full Stubby optimizer over every canned workload twice — once on the
serial backend, once on the fork-based process backend at 4 workers — with an
enlarged RRS budget (heavier candidate costings, the requests the fork pool
fans out), and records per-workload wall times, the speedup, and the cost-service
counters of both runs.  The result is written to
``BENCH_parallel_search.json`` (path overridable through the
``BENCH_PARALLEL_SEARCH_OUT`` environment variable) so CI can archive the
perf trajectory across PRs.

Two contracts are enforced:

* **identity, always** — the process backend must make byte-for-byte the
  same decisions as serial: same chosen subplans, same settings, same
  estimated costs.  This holds on any machine, at any core count.
* **speedup, where parallelism exists** — on hosts with *more than* 4
  usable CPUs (the 4 workers plus at least one spare core for the parent)
  the process backend must be at least ``BENCH_PARALLEL_MIN_SPEEDUP``
  (default 1.8) times faster over the whole suite.  On smaller hosts —
  a 1-CPU container where parallel speedup is physically impossible, or a
  shared 4-vCPU CI runner where noisy neighbours would make a hard
  wall-clock gate flaky — the speedup is recorded honestly in the JSON but
  not asserted.  ``BENCH_PARALLEL_ENFORCE=always`` / ``never`` overrides
  the automatic policy.
"""

import json
import os
import time

from conftest import BENCHMARK_SCALE, run_once, speedup_enforced, usable_cpus

from repro.cluster import ClusterSpec
from repro.core.optimizer import StubbyOptimizer
from repro.core.rrs import RecursiveRandomSearch
from repro.profiler import Profiler
from repro.workloads import WORKLOAD_ORDER, build_workload

#: The parallel benchmark runs RRS with a larger sampling budget than the
#: optimizer default: each candidate costing is one request, so more
#: samples per candidate keeps per-request work comfortably above the
#: fork/IPC overhead of the process backend.
RRS_BUDGET = dict(exploration_samples=24, exploitation_samples=16, restarts=2, seed=17)

PARALLEL_BACKEND = "process:4"


def _output_path():
    return os.environ.get("BENCH_PARALLEL_SEARCH_OUT", "BENCH_parallel_search.json")


def _min_speedup() -> float:
    return float(os.environ.get("BENCH_PARALLEL_MIN_SPEEDUP", "1.8"))


def _fingerprint(result):
    """The optimizer's decisions as comparable plain data."""
    units = []
    for report in result.unit_reports:
        chosen = report.chosen
        units.append(
            (
                report.unit.producers,
                report.chosen_index,
                tuple(record.estimated_cost for record in report.subplans),
                tuple(
                    sorted(
                        (job, tuple(sorted(settings.items())))
                        for job, settings in (chosen.best_settings if chosen else {}).items()
                    )
                ),
            )
        )
    return (result.plan.signature(), result.estimated_cost_s, tuple(units))


def test_bench_parallel_search(benchmark, cluster):
    workloads = {}
    for abbr in WORKLOAD_ORDER:
        workload = build_workload(abbr, scale=BENCHMARK_SCALE)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        workloads[abbr] = workload

    def run_one(abbr, backend):
        rrs = RecursiveRandomSearch(**RRS_BUDGET)
        optimizer = StubbyOptimizer(cluster, seed=17, rrs=rrs, backend=backend)
        started = time.perf_counter()
        result = optimizer.optimize(workloads[abbr].plan)
        wall_s = time.perf_counter() - started
        return result, wall_s

    def run_all():
        rows = {}
        for abbr in WORKLOAD_ORDER:
            serial_result, serial_s = run_one(abbr, "serial")
            parallel_result, parallel_s = run_one(abbr, PARALLEL_BACKEND)
            assert _fingerprint(parallel_result) == _fingerprint(serial_result), (
                f"{abbr}: {PARALLEL_BACKEND} made different decisions than serial"
            )
            rows[abbr] = {
                "serial_wall_s": round(serial_s, 4),
                "parallel_wall_s": round(parallel_s, 4),
                "speedup": round(serial_s / max(parallel_s, 1e-9), 3),
                "num_jobs": serial_result.num_jobs,
                "estimated_cost_s": serial_result.estimated_cost_s,
                "whatif_queries": serial_result.cost_stats.queries,
                "parallel_whatif_queries": parallel_result.cost_stats.queries,
            }
        return rows

    rows = run_once(benchmark, run_all)

    serial_total = sum(row["serial_wall_s"] for row in rows.values())
    parallel_total = sum(row["parallel_wall_s"] for row in rows.values())
    total_speedup = serial_total / max(parallel_total, 1e-9)
    cpus = usable_cpus()
    enforced = speedup_enforced("BENCH_PARALLEL_ENFORCE", cpus)

    payload = {
        "benchmark": "parallel_unit_search",
        "scale": BENCHMARK_SCALE,
        "backend": PARALLEL_BACKEND,
        "rrs_budget": RRS_BUDGET,
        "usable_cpus": cpus,
        "serial_total_s": round(serial_total, 4),
        "parallel_total_s": round(parallel_total, 4),
        "total_speedup": round(total_speedup, 3),
        "speedup_enforced": enforced,
        "min_speedup": _min_speedup(),
        "workloads": rows,
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print(f"\nParallel unit search, serial vs {PARALLEL_BACKEND} ({cpus} usable CPU(s))")
    print("workload  serial_s  parallel_s  speedup  whatif_q")
    for abbr, row in rows.items():
        print(
            f"{abbr:<9} {row['serial_wall_s']:>8.2f} {row['parallel_wall_s']:>11.2f} "
            f"{row['speedup']:>8.2f} {row['whatif_queries']:>9d}"
        )
    print(f"total     {serial_total:>8.2f} {parallel_total:>11.2f} {total_speedup:>8.2f}")

    assert len(rows) == len(WORKLOAD_ORDER)
    for abbr, row in rows.items():
        assert row["whatif_queries"] > 0, abbr
    if enforced:
        assert total_speedup >= _min_speedup(), (
            f"process backend reached only {total_speedup:.2f}x over serial on "
            f"{cpus} CPUs (required {_min_speedup():.1f}x); see {_output_path()}"
        )
    assert os.path.exists(_output_path())
