"""Experiment orchestration: parallel cells, shared costing, warm starts.

What it demonstrates
    Running a whole experiment — every (workload × optimizer) cell — through
    ``ExperimentHarness.run`` (see ``docs/experiments.md``): fanning the
    cells out on an experiment-level execution backend, reading the
    cross-cell cache reuse the shared ``CostService`` makes possible
    (``OptimizerRun.cost_stats.cross_origin_hits``), persisting the cost
    cache to disk, and warm-starting a second run from it — with
    bit-identical results every time.  Also shows the selection mechanisms: the ``backend=``
    argument of ``run()`` for the cell fan-out, and ``cache_path=`` for
    persistence (a harness built without one reads ``STUBBY_COST_CACHE``).

What output to expect
    A per-cell table of the cold run, then the cold-vs-warm comparison,
    e.g.::

        cell                        jobs  actual_s  queries  hit_rate  cross_hits
        PJ/Baseline                    2     278.2        1     0.000           0
        PJ/Stubby                      3      89.9      461     0.081         379
        ...

        cold run:  hit rate 0.46, 13421 cross-cell hits, cells 2.1s
        warm run:  hit rate 1.00, 24064 cross-cell hits, cells 1.7s
                   (13818 entries loaded from experiment.cache)
        decisions identical (cold == warm == parallel): True

    The first cell of the cold run shows zero cross-cell hits (nothing to
    reap yet); later variants of the same workload reuse their neighbours'
    signatures heavily; in the warm run even the first cell hits the
    persisted entries.  Wall-clock differences depend on your core count:
    on a single-CPU machine the process backend is slower (fork overhead,
    no spare core) — with two or more cores the cell phase pulls ahead
    (1.18 s on ``process:2`` against 1.49 s serial, docs/search.md).

Run with::

    PYTHONPATH=src python examples/experiment_orchestration.py
"""

import os
import tempfile

from repro.experiments import ExperimentHarness

WORKLOADS = ("PJ", "BR")
OPTIMIZERS = ("Baseline", "Stubby", "Vertical")


def print_cells(result) -> None:
    """Per-cell readout: results plus the exact per-cell cost stats."""
    print("cell                        jobs  actual_s  queries  hit_rate  cross_hits")
    for abbr, comparison in result.comparisons.items():
        for name, run in comparison.runs.items():
            stats = run.cost_stats
            print(
                f"{abbr + '/' + name:<27} {run.num_jobs:>4} {run.actual_s:>9.1f} "
                f"{stats.queries:>8} {stats.cache_hit_rate:>9.3f} "
                f"{stats.cross_origin_hits:>11}"
            )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "experiment.cache")

        # 1. Cold run.  All cells share the harness's CostService (so the
        #    Stubby/Vertical cells reap the Baseline cell's signatures), and
        #    cache_path= persists the store when the run finishes.  backend=
        #    accepts a spec string, an ExecutionBackend, or None (serial).
        harness = ExperimentHarness(scale=0.15, cache_path=cache_path)
        cold = harness.run(workloads=WORKLOADS, optimizers=OPTIMIZERS)
        print(f"cold run on {cold.backend}")
        print_cells(cold)

        # 2. Warm run.  A *fresh* harness (imagine a fresh process) loads
        #    the persisted cache: same decisions, strictly higher hit rate.
        warm_harness = ExperimentHarness(scale=0.15, cache_path=cache_path)
        warm = warm_harness.run(workloads=WORKLOADS, optimizers=OPTIMIZERS)
        print(f"\ncold run:  hit rate {cold.cost_stats.cache_hit_rate:.2f}, "
              f"{cold.cost_stats.cross_origin_hits} cross-cell hits, cells {cold.cells_s:.1f}s")
        print(f"warm run:  hit rate {warm.cost_stats.cache_hit_rate:.2f}, "
              f"{warm.cost_stats.cross_origin_hits} cross-cell hits, cells {warm.cells_s:.1f}s")
        print(f"           ({warm.warm_start_entries} entries loaded from "
              f"{os.path.basename(cache_path)})")

        # 3. The identity contract: backends and cache warmth change where
        #    and how fast cells run — never what they report.
        parallel = ExperimentHarness(scale=0.15).run(
            workloads=WORKLOADS, optimizers=OPTIMIZERS, backend="process:2"
        )
        identical = (
            cold.decision_fingerprint()
            == warm.decision_fingerprint()
            == parallel.decision_fingerprint()
        )
        print(f"decisions identical (cold == warm == parallel): {identical}")

        # 4. The paper-style readout still works on orchestrated runs.
        print("\nspeedups over the Baseline:")
        print(cold.speedup_table())


if __name__ == "__main__":
    main()
