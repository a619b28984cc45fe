"""Micro-benchmarks behind the paper's Figure 5.

Figure 5 shows that both packing transformations can either improve or
degrade performance depending on the properties of the input data:

* **intra-job vertical packing** improves performance when it eliminates an
  expensive shuffle, but degrades it when the packed plan's narrower
  partition key leaves too little reduce-side parallelism;
* **horizontal packing** improves performance when it shares the scan of a
  very large input, but degrades it for small inputs that the cluster could
  have processed as independent concurrent jobs.

The helpers below build the corresponding two-job micro-workflows, execute
the packed and unpacked plans, and report the packed-over-unpacked speedup
for a favourable and an unfavourable input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster import ClusterSpec
from repro.common.rng import DeterministicRNG
from repro.core.plan import Plan
from repro.core.transformations import HorizontalPacking, IntraJobVerticalPacking
from repro.dfs.dataset import Dataset
from repro.dfs.layout import DataLayout, PartitionScheme
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import simple_job
from repro.profiler import Profiler
from repro.whatif import ActualCostModel
from repro.workflow.annotations import JobAnnotations, SchemaAnnotation
from repro.workflow.executor import WorkflowExecutor
from repro.workflow.graph import Workflow
from repro.workloads import common

GB = 1024.0 ** 3


@dataclass
class PackingTradeoff:
    """Packed-over-unpacked speedup for a favourable and an unfavourable input."""

    favourable_speedup: float
    unfavourable_speedup: float


def _synthetic_records(num_records: int, distinct_keys: int, seed: int = 5):
    rng = DeterministicRNG(seed)
    return [
        {
            "k": float(rng.randint(1, max(1, distinct_keys))),
            "s": float(rng.randint(1, 40)),
            "v": rng.uniform(0.0, 100.0),
        }
        for _ in range(num_records)
    ]


def _actual_cost(plan: Plan, datasets: Dict[str, Dataset], cluster: ClusterSpec) -> float:
    executor = WorkflowExecutor()
    execution, filesystem = executor.execute(plan.workflow, base_datasets=datasets)
    return ActualCostModel(cluster).workflow_cost(plan.workflow, execution, filesystem).total_s


def _profiled_plan(workflow: Workflow, datasets: Dict[str, Dataset]) -> Plan:
    Profiler().profile_workflow(workflow, datasets)
    return Plan(workflow)


# ---------------------------------------------------------------------------
# Intra-job vertical packing trade-off
# ---------------------------------------------------------------------------


def _vertical_workflow(dataset: Dataset) -> Workflow:
    """A producer/consumer pair where the consumer re-groups on a key subset."""
    workflow = Workflow(name="vertical_micro")
    producer = simple_job(
        name="VP_producer",
        input_dataset=dataset.name,
        output_dataset="vp_mid",
        map_fn=common.key_by(["k", "s"], value_fields=["v"]),
        reduce_fn=common.identity_reduce(),
        group_fields=("k", "s"),
        map_cpu_cost=2.0,
        reduce_cpu_cost=2.0,
        config=JobConfig(num_reduce_tasks=64),
    )
    workflow.add_job(
        producer,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["k"], v1=["k", "s", "v"], k2=["k", "s"], v2=["v"], k3=["k", "s"], v3=["v"]
            )
        ),
    )
    consumer = simple_job(
        name="VP_consumer",
        input_dataset="vp_mid",
        output_dataset="vp_out",
        map_fn=common.key_by(["k"], value_fields=["v"]),
        reduce_fn=common.aggregate_reduce({"total": ("sum", "v"), "peak": ("max", "v")}),
        group_fields=("k",),
        map_cpu_cost=1.0,
        reduce_cpu_cost=2.0,
        config=JobConfig(num_reduce_tasks=64),
    )
    workflow.add_job(
        consumer,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["k", "s"], v1=["k", "s", "v"], k2=["k"], v2=["v"], k3=["k"], v3=["total", "peak"]
            )
        ),
    )
    return workflow


def vertical_packing_tradeoff(
    cluster: Optional[ClusterSpec] = None,
    num_records: int = 1_500,
    logical_gb: float = 200.0,
) -> PackingTradeoff:
    """Speedup of intra-job vertical packing on favourable vs unfavourable data.

    Favourable: the shared grouping key has many distinct values, so the
    packed plan keeps full reduce-side parallelism while eliminating the
    consumer's shuffle.  Unfavourable: the shared key has only two distinct
    values, so packing collapses the producer's parallelism to two reducers.
    """
    cluster = cluster or ClusterSpec.paper_cluster()
    speedups = {}
    for label, distinct in (("favourable", 400), ("unfavourable", 2)):
        records = _synthetic_records(num_records, distinct_keys=distinct)
        dataset = Dataset(
            "vp_input",
            records=records,
            layout=DataLayout(partitioning=PartitionScheme.hashed("k")),
        )
        dataset.scale_factor = (logical_gb * GB) / max(1, dataset.raw_bytes)
        datasets = {"vp_input": dataset}

        workflow = _vertical_workflow(dataset)
        plan = _profiled_plan(workflow, datasets)
        unpacked_cost = _actual_cost(plan, datasets, cluster)

        transformation = IntraJobVerticalPacking()
        applications = transformation.find_applications(plan, ("VP_producer", "VP_consumer"))
        packed_plan = transformation.apply(plan, applications[0]) if applications else plan
        packed_cost = _actual_cost(packed_plan, datasets, cluster)
        speedups[label] = unpacked_cost / packed_cost if packed_cost > 0 else 0.0
    return PackingTradeoff(
        favourable_speedup=speedups["favourable"],
        unfavourable_speedup=speedups["unfavourable"],
    )


# ---------------------------------------------------------------------------
# Horizontal packing trade-off
# ---------------------------------------------------------------------------


def _horizontal_workflow(dataset: Dataset) -> Workflow:
    """Two consumer jobs that filter, group, and aggregate the same input."""
    workflow = Workflow(name="horizontal_micro")
    specs = [
        ("HP_left", "hp_left_out", ("k",), 0.0, 3.0),
        ("HP_right", "hp_right_out", ("s",), 3.0, 6.0),
    ]
    for name, output, group_fields, low, high in specs:
        job = simple_job(
            name=name,
            input_dataset=dataset.name,
            output_dataset=output,
            map_fn=common.key_by(
                list(group_fields), value_fields=["v"], filter_fn=common.range_filter("s", low, high)
            ),
            reduce_fn=common.aggregate_reduce({"total": ("sum", "v")}),
            group_fields=group_fields,
            map_cpu_cost=2.0,
            reduce_cpu_cost=2.0,
            config=JobConfig(num_reduce_tasks=32),
        )
        workflow.add_job(
            job,
            JobAnnotations(
                schema=SchemaAnnotation.of(
                    k1=["k"], v1=["k", "s", "v"],
                    k2=list(group_fields), v2=["v"],
                    k3=list(group_fields), v3=["total"],
                )
            ),
        )
    return workflow


def horizontal_packing_tradeoff(
    cluster: Optional[ClusterSpec] = None,
    num_records: int = 1_500,
    large_gb: float = 400.0,
    small_gb: float = 2.0,
) -> PackingTradeoff:
    """Speedup of horizontal packing on a very large vs a small shared input."""
    cluster = cluster or ClusterSpec.paper_cluster()
    speedups = {}
    for label, logical_gb in (("favourable", large_gb), ("unfavourable", small_gb)):
        records = _synthetic_records(num_records, distinct_keys=200)
        dataset = Dataset(
            "hp_input",
            records=records,
            layout=DataLayout(partitioning=PartitionScheme.hashed("k")),
        )
        dataset.scale_factor = (logical_gb * GB) / max(1, dataset.raw_bytes)
        datasets = {"hp_input": dataset}

        workflow = _horizontal_workflow(dataset)
        plan = _profiled_plan(workflow, datasets)
        unpacked_cost = _actual_cost(plan, datasets, cluster)

        transformation = HorizontalPacking(allow_extended=False)
        applications = transformation.find_applications(plan, ("HP_left", "HP_right"))
        packed_plan = transformation.apply(plan, applications[0]) if applications else plan
        packed_cost = _actual_cost(packed_plan, datasets, cluster)
        speedups[label] = unpacked_cost / packed_cost if packed_cost > 0 else 0.0
    return PackingTradeoff(
        favourable_speedup=speedups["favourable"],
        unfavourable_speedup=speedups["unfavourable"],
    )
