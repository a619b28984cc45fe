"""Wide-workflow microbenchmark: the topology tax on 10→1000-job DAGs.

Sweeps telemetry-style wide workflows (fan-out channels into staged fan-in
rollups, ``RandomWorkflowGenerator.telemetry_rollup``) across job counts
from ~10 to ~1000 and, per size, runs workflow-costing queries against the
warm topology index, recording:

* **full graph passes per costing query**: a from-scratch index or
  toposort (re)build walks the whole job table once
  (:meth:`~repro.workflow.graph.TopologyCounters.scan_equivalents`).  The
  asserted contract: **zero per costing query on a warm workflow**, at
  every size, on every host — every structural answer comes from the index.
* **index maintenance counters**: the search-loop storms (config-only
  candidates, structural rewrites) must maintain the index incrementally —
  zero from-scratch rebuilds, one CoW index copy per structural candidate,
  cached topological order surviving config-only mutations.
* **wall clock**: per-query costing time (informational; wall time is
  ``bench/run.py``'s business).

That indexed answers equal brute-force scans element for element is
``tests/test_topology_index.py``'s contract, not this file's.  Results land
in ``BENCH_wide_workflows.json`` (override the path through the
``BENCH_WIDE_WORKFLOWS_OUT`` environment variable), archived by CI next to
the other benchmark JSONs.
"""

import json
import os
import time

from conftest import run_once

from repro.cluster import ClusterSpec
from repro.verification import RandomWorkflowGenerator
from repro.whatif.model import WhatIfEngine
from repro.workflow.graph import TOPOLOGY_COUNTERS

#: (channels, fanin) pairs: total jobs = channels + ceil(channels/fanin) + 1
#: grand rollup (skipped when a single rollup suffices) — ~10 to ~1000 jobs.
SWEEP = ((8, 8), (26, 8), (88, 8), (264, 8), (884, 8))

#: Costing queries per size.
QUERIES = 3


def _output_path():
    return os.environ.get("BENCH_WIDE_WORKFLOWS_OUT", "BENCH_wide_workflows.json")


_GENERATOR = RandomWorkflowGenerator().with_config(records_per_dataset=60)


def _sweep_point(channels, fanin, engine):
    generated = _GENERATOR.telemetry_rollup(4242 + channels, num_channels=channels, fanin=fanin)
    workflow = generated.workflow
    levels = workflow.topological_levels()  # warm the index + caches

    TOPOLOGY_COUNTERS.reset()
    started = time.perf_counter()
    for _ in range(QUERIES):
        engine.estimate_workflow(workflow)
    wall_s = time.perf_counter() - started
    return {
        "num_jobs": workflow.num_jobs,
        "num_datasets": len(workflow.datasets),
        "num_levels": len(levels),
        "widest_level": max(len(level) for level in levels),
        "queries": QUERIES,
        "wall_s": round(wall_s, 4),
        "scan_equivalents": TOPOLOGY_COUNTERS.scan_equivalents(),
        **TOPOLOGY_COUNTERS.snapshot(),
    }


def _candidate_storms(channels=88, fanin=8, candidates=50):
    """The search hot loop's index contract, measured on a wide workflow.

    Config-only candidates (RRS samples) must share the parent's index and
    its cached topology outright; structural candidates (packing rewrites)
    must privatize the index once and patch it incrementally — never
    rebuild from scratch.
    """
    generated = _GENERATOR.with_config(profile=False, records_per_dataset=60).telemetry_rollup(
        99, num_channels=channels, fanin=fanin
    )
    workflow = generated.workflow
    workflow.topological_levels()  # warm

    TOPOLOGY_COUNTERS.reset()
    names = workflow.job_names
    for sample in range(candidates):
        candidate = workflow.copy()
        candidate.update_job(
            names[sample % len(names)],
            lambda job: job.with_config(job.config.replace(num_reduce_tasks=1 + sample % 7)),
        )
        candidate.topological_levels()
    config_counters = TOPOLOGY_COUNTERS.snapshot()

    TOPOLOGY_COUNTERS.reset()
    for sample in range(candidates):
        candidate = workflow.copy()
        victim = candidate.job(names[sample % len(names)])
        replacement = victim.job.copy()
        candidate.replace_job(victim.name, replacement)
        candidate.topological_levels()
    structural_counters = TOPOLOGY_COUNTERS.snapshot()

    # Config-only: the cached order answers every candidate, nothing else moves.
    assert config_counters == {
        **dict.fromkeys(config_counters, 0),
        "toposort_cache_hits": candidates,
    }
    assert structural_counters["index_builds"] == 0
    assert structural_counters["index_copies"] == candidates
    assert structural_counters["incremental_updates"] == candidates
    return {
        "candidates": candidates,
        "num_jobs": workflow.num_jobs,
        "config_only": config_counters,
        "structural": structural_counters,
    }


def test_bench_wide_workflows(benchmark):
    engine = WhatIfEngine(ClusterSpec.paper_cluster())

    def run_all():
        return [_sweep_point(channels, fanin, engine) for channels, fanin in SWEEP]

    rows = run_once(benchmark, run_all)
    storms = _candidate_storms()

    payload = {
        "benchmark": "wide_workflow_topology_index",
        "queries_per_size": QUERIES,
        "candidate_storms": storms,
        "sweep": rows,
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print("\nWide-workflow topology index: graph passes per warm costing query")
    print("jobs   levels  index_queries  index_builds  toposort_builds  wall/query")
    for row in rows:
        print(
            f"{row['num_jobs']:<6} {row['num_levels']:<7} {row['index_queries']:>13}  "
            f"{row['index_builds']:>12}  {row['toposort_builds']:>15}  "
            f"{row['wall_s'] / QUERIES:>9.4f}s"
        )

    for row in rows:
        assert row["index_queries"] > 0, row["num_jobs"]
        assert row["scan_equivalents"] == 0, (
            f"{row['num_jobs']} jobs: {row['scan_equivalents']} full graph passes "
            f"over {QUERIES} warm costing queries"
        )
    assert os.path.exists(_output_path())
