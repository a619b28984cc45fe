"""Copy-on-write plan microbenchmark: the copy and re-hash tax of search.

Runs the full Stubby optimizer cold over canned workloads and records, per
workload, the work the copy-on-write plans and incremental signatures leave
behind — as absolute bounds on the one code path there is:

* **vertex copies per optimize()**: full job-vertex copies actually
  performed (``vertex_copies``), reported beside the number of plan clones
  (``workflow_copies``) that a wholesale deep copy would have multiplied by
  the job count.  Asserted: at most ``MAX_VERTEX_COPIES`` per optimize().
* **signature derivations per signature request**: full per-vertex
  signature walks vs. total signature requests.  Asserted: at most
  ``MAX_DERIVATION_SHARE`` of requests pay a walk.
* **allocation probe**: traced allocations of one costing window, plus proof
  that the hot value objects really are ``__slots__`` layouts.

Counters, not wall clocks, so the bounds hold on every host; wall time is
``bench/run.py``'s business.  Results land in ``BENCH_plan_cow.json``
(override the path through the ``BENCH_PLAN_COW_OUT`` environment variable),
archived by CI next to the other benchmark JSONs.
"""

import json
import os
import time
import tracemalloc

from conftest import BENCHMARK_SCALE, run_once

from repro.cluster import ClusterSpec
from repro.core.optimizer import StubbyOptimizer
from repro.profiler import Profiler
from repro.whatif.dataflow import JobDataflow
from repro.whatif.jobmodel import JobTimeEstimate
from repro.workflow.graph import COPY_COUNTERS
from repro.workloads import build_workload

#: Workloads exercised by the microbench: the paper trio covering vertical
#: packing (IR), filter/partition pruning (LA), and a wider DAG (BR).
BENCH_WORKLOADS = ("IR", "LA", "BR")

#: Full vertex copies allowed per cold optimize() (measured 0 / 1 / 0 on
#: IR / LA / BR, against 475 / 537 / 1435 plan clones).
MAX_VERTEX_COPIES = 2
#: Share of signature requests allowed to pay a derivation walk (measured
#: 0.5 % / 0.35 % / 0.2 %: 6 / 7 / 16 of 1138 / 2020 / 8130 requests).
MAX_DERIVATION_SHARE = 0.02


def _output_path():
    return os.environ.get("BENCH_PLAN_COW_OUT", "BENCH_plan_cow.json")


def _run_optimizer(abbr):
    """One cold optimize(); returns the counters it left behind."""
    workload = build_workload(abbr, scale=BENCHMARK_SCALE)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    optimizer = StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17)

    COPY_COUNTERS.reset()
    started = time.perf_counter()
    result = optimizer.optimize(workload.plan)
    wall_s = time.perf_counter() - started

    copies = COPY_COUNTERS.snapshot()
    engine = optimizer.search.costs.engine
    signature_requests = engine.signature_derivations + engine.signature_memo_hits
    return {
        "wall_s": round(wall_s, 4),
        "workflow_copies": copies["workflow_copies"],
        "vertex_copies": copies["vertex_copies"],
        "signature_derivations": engine.signature_derivations,
        "signature_requests": signature_requests,
        "derivation_share": engine.signature_derivations / max(signature_requests, 1),
        "whatif_queries": result.cost_stats.queries if result.cost_stats else 0,
        "num_jobs": result.num_jobs,
    }


def _allocation_probe():
    """Traced allocation cost of one repeated costing window, plus slots proof."""
    from repro.whatif.service import CostService

    workload = build_workload("IR", scale=BENCHMARK_SCALE)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    service = CostService(ClusterSpec.paper_cluster(), enable_cache=False)
    workflow = workload.plan.workflow

    service.estimate_workflow(workflow)  # warm imports and memos
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for _ in range(25):
        service.estimate_workflow(workflow)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    allocated = sum(stat.size_diff for stat in after.compare_to(before, "filename"))

    sample_estimate = service.estimate_workflow(workflow).per_job
    sample = next(iter(sample_estimate.values()))
    return {
        "traced_net_bytes_25_queries": int(allocated),
        "jobdataflow_has_dict": hasattr(
            JobDataflow(
                input_bytes=1, input_records=1, map_output_records=1, map_output_bytes=1,
                shuffle_records=1, shuffle_bytes=1, reduce_input_records=1,
                output_records=1, output_bytes=1,
            ),
            "__dict__",
        ),
        "jobtimeestimate_has_dict": hasattr(sample, "__dict__"),
        "jobtimeestimate_slotted": isinstance(sample, JobTimeEstimate)
        and not hasattr(sample, "__dict__"),
    }


def test_bench_plan_cow(benchmark):
    rows = run_once(benchmark, lambda: {abbr: _run_optimizer(abbr) for abbr in BENCH_WORKLOADS})
    allocation = _allocation_probe()

    payload = {
        "benchmark": "plan_cow_structural_sharing",
        "scale": BENCHMARK_SCALE,
        "max_vertex_copies": MAX_VERTEX_COPIES,
        "max_derivation_share": MAX_DERIVATION_SHARE,
        "allocation_probe": allocation,
        "workloads": rows,
    }
    with open(_output_path(), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    print("\nCopy-on-write plans: copies and signature walks per cold optimize()")
    print("workload  plan_clones  vertex_copies  sig(req->derived)  derived_share")
    for abbr, row in rows.items():
        print(
            f"{abbr:<9} {row['workflow_copies']:>11}  {row['vertex_copies']:>13}  "
            f"{row['signature_requests']:>7}->{row['signature_derivations']:<7}  "
            f"{row['derivation_share']:>12.2%}"
        )

    # Slots landed: the hot value objects carry no per-instance __dict__.
    assert not allocation["jobdataflow_has_dict"]
    assert not allocation["jobtimeestimate_has_dict"]

    for abbr, row in rows.items():
        assert row["workflow_copies"] > 0, abbr
        assert row["vertex_copies"] <= MAX_VERTEX_COPIES, (
            f"{abbr}: {row['vertex_copies']} full vertex copies over "
            f"{row['workflow_copies']} plan clones"
        )
        assert row["signature_requests"] > 0, abbr
        assert row["derivation_share"] <= MAX_DERIVATION_SHARE, (
            f"{abbr}: {row['signature_derivations']} of {row['signature_requests']} "
            f"signature requests paid a derivation walk"
        )
    assert os.path.exists(_output_path())
