"""Parallel unit search: backend selection and cost-service stats readout.

What it demonstrates
    Running the same optimization on the execution backends
    (``serial``, ``process:2``, ``process:4`` — see ``docs/search.md``),
    proving that their decisions are bit-identical (same optimized plan,
    same estimated cost, same per-unit choices), and reading the
    cost-service stats the search attributes per candidate, per unit, and
    per run.  Also shows the two selection mechanisms: the ``backend=``
    argument and the ``STUBBY_SEARCH_BACKEND`` environment variable.

What output to expect
    One line per backend with identical estimated costs and plan
    signatures, e.g.::

        serial:1     wall 0.13s  estimated 1224s  plan sha 5a6e…  queries 465
        process:2    wall 0.35s  estimated 1224s  plan sha 5a6e…  queries 465
        process:4    wall 0.52s  estimated 1224s  plan sha 5a6e…  queries 465
        decisions identical across backends: True

    followed by a per-unit attribution table and the run-level stats dict.
    Wall-clock differences depend on your core count: on a single-CPU
    machine the process backend is *slower* (fork + pipe overhead with no
    spare core); with four or more cores it pulls ahead once per-unit
    costing work dominates — the regime ``BENCH_parallel_search.json``
    benchmarks.

Run with::

    PYTHONPATH=src python examples/parallel_search.py

    # or pick the backend for any run from the environment:
    STUBBY_SEARCH_BACKEND=process:4 PYTHONPATH=src python examples/quickstart.py
"""

import hashlib
import time

from repro import ClusterSpec, StubbyOptimizer
from repro.profiler import Profiler
from repro.workloads import build_workload

BACKENDS = ("serial", "process:2", "process:4")


def plan_sha(plan) -> str:
    """Short, printable digest of a plan's structural signature."""
    return hashlib.sha256(repr(plan.signature()).encode()).hexdigest()[:8]


def main() -> None:
    # 1. Build and profile the workload once; every backend optimizes the
    #    same annotated plan.
    workload = build_workload("IR", scale=0.3)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    cluster = ClusterSpec.paper_cluster()
    print(f"Workload: {workload.name} ({workload.num_jobs} jobs)\n")

    # 2. Optimize on each backend.  ``backend=`` accepts a spec string, an
    #    ExecutionBackend instance, or None (which reads the
    #    STUBBY_SEARCH_BACKEND environment variable, defaulting to serial).
    results = {}
    for spec in BACKENDS:
        optimizer = StubbyOptimizer(cluster, seed=17, backend=spec)
        started = time.perf_counter()
        result = optimizer.optimize(workload.plan)
        wall = time.perf_counter() - started
        results[spec] = result
        print(
            f"{result.search_backend:<12} wall {wall:5.2f}s  "
            f"estimated {result.estimated_cost_s:6.0f}s  "
            f"plan sha {plan_sha(result.plan)}  "
            f"queries {result.cost_stats.queries}"
        )

    # 3. The determinism contract: every backend made the same decisions.
    reference = results["serial"]
    identical = all(
        r.plan.signature() == reference.plan.signature()
        and r.estimated_cost_s == reference.estimated_cost_s
        for r in results.values()
    )
    print(f"decisions identical across backends: {identical}\n")

    # 4. Stats attribution: the search records exact per-candidate cost
    #    deltas, so unit- and candidate-level numbers add up under any
    #    backend (here: the process run).
    result = results["process:4"]
    print("unit (producers)                  phase       cands  queries  hits  recosted")
    for report in result.unit_reports:
        producers = ",".join(report.unit.producers)
        print(
            f"{producers[:32]:<33} {report.phase:<11} {len(report.subplans):>5} "
            f"{report.cost_queries:>8} {report.job_cache_hits:>5} {report.jobs_recosted:>9}"
        )
    print("\nrun-level cost-service stats:")
    for key, value in result.cost_stats.as_dict().items():
        print(f"  {key:<26} {value:.3f}" if isinstance(value, float) else f"  {key:<26} {value}")


if __name__ == "__main__":
    main()
