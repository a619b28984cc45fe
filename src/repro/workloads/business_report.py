"""Business Report Generation workload (BR): the seven-job running example (§7.1).

Seven jobs over a TPC-H-like ``lineitem`` table, emulating a report that runs
multiple group-by aggregates over a single source dataset:

* **BR_J1** — scan and perform initial processing of the lineitem data;
* **BR_J2 / BR_J3** — read, filter, and compute the sum and maximum of prices
  for the ``{orderid, partid}`` and ``{orderid, suppid}`` groupings;
* **BR_J4 / BR_J5** — aggregate those results further to per-``{orderid}``
  totals and maxima;
* **BR_J6 / BR_J7** — count the number of distinct aggregated prices of each
  branch.

The Vertical group alone packs BR_J4/BR_J5 into BR_J2/BR_J3 (7 → 5 jobs); the
Horizontal group packs BR_J2/BR_J3 (shared input) and BR_J6/BR_J7
(concurrently runnable); applying both groups yields the three-job workflow
the paper reports for Stubby.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.records import KeyValue, Record
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import simple_job
from repro.workflow.annotations import FilterAnnotation, JobAnnotations, SchemaAnnotation
from repro.workflow.graph import Workflow
from repro.workloads import common, datagen
from repro.workloads.base import Workload, apply_paper_scale, attach_dataset_annotations


def _distinct_map(field: str):
    def map_fn(key: Record, value: Record) -> Iterable[KeyValue]:
        yield {"g": 0.0}, {field: value.get(field)}

    return map_fn


def build_business_report(scale: float = 1.0, seed: int = 42) -> Workload:
    """Build the BR (business report generation) workload."""
    lineitem = datagen.generate_lineitem(scale=scale, seed=seed, name="br_lineitem")
    apply_paper_scale({"br_lineitem": lineitem}, {"br_lineitem": 530.0})

    workflow = Workflow(name="business_report")

    j1 = simple_job(
        name="BR_J1",
        input_dataset="br_lineitem",
        output_dataset="br_clean",
        map_fn=common.key_by(["orderid"], value_fields=["orderid", "partid", "suppid", "price"]),
        reduce_fn=common.identity_reduce(),
        group_fields=("orderid",),
        map_cpu_cost=2.0,
        reduce_cpu_cost=2.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j1,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["orderid"], v1=["orderid", "partid", "suppid", "quantity", "price"],
                k2=["orderid"], v2=["partid", "suppid", "price"],
                k3=["orderid"], v3=["partid", "suppid", "price"],
            )
        ),
    )

    group_specs = [
        ("BR_J2", "partid", "br_op", (50.0, 1.0e9)),
        ("BR_J3", "suppid", "br_os", (0.0, 500.0)),
    ]
    for job_name, second_field, output_name, (low, high) in group_specs:
        job = simple_job(
            name=job_name,
            input_dataset="br_clean",
            output_dataset=output_name,
            map_fn=common.key_by(
                ["orderid", second_field],
                value_fields=["price"],
                filter_fn=common.range_filter("price", low, high),
            ),
            reduce_fn=common.aggregate_reduce(
                {"sum_price": ("sum", "price"), "max_price": ("max", "price")}
            ),
            group_fields=("orderid", second_field),
            map_cpu_cost=2.0,
            reduce_cpu_cost=3.0,
            config=JobConfig(num_reduce_tasks=8),
        )
        workflow.add_job(
            job,
            JobAnnotations(
                schema=SchemaAnnotation.of(
                    k1=["orderid"], v1=["orderid", "partid", "suppid", "price"],
                    k2=["orderid", second_field], v2=["price"],
                    k3=["orderid", second_field], v3=["sum_price", "max_price"],
                ),
                filter=FilterAnnotation.of(price=(low, high)),
            ),
        )

    rollup_specs = [
        ("BR_J4", "br_op", "br_o1"),
        ("BR_J5", "br_os", "br_o2"),
    ]
    for job_name, input_name, output_name in rollup_specs:
        job = simple_job(
            name=job_name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=common.key_by(["orderid"], value_fields=["sum_price", "max_price"]),
            reduce_fn=common.aggregate_reduce(
                {"order_sum": ("sum", "sum_price"), "order_max": ("max", "max_price")}
            ),
            group_fields=("orderid",),
            map_cpu_cost=1.0,
            reduce_cpu_cost=2.0,
            config=JobConfig(num_reduce_tasks=8),
        )
        workflow.add_job(
            job,
            JobAnnotations(
                schema=SchemaAnnotation.of(
                    k1=["orderid"], v1=["orderid", "sum_price", "max_price"],
                    k2=["orderid"], v2=["sum_price", "max_price"],
                    k3=["orderid"], v3=["order_sum", "order_max"],
                )
            ),
        )

    distinct_specs = [
        ("BR_J6", "br_o1", "br_distinct1"),
        ("BR_J7", "br_o2", "br_distinct2"),
    ]
    for job_name, input_name, output_name in distinct_specs:
        job = simple_job(
            name=job_name,
            input_dataset=input_name,
            output_dataset=output_name,
            map_fn=_distinct_map("order_sum"),
            reduce_fn=common.distinct_count_reduce("order_sum", "distinct_prices"),
            group_fields=("g",),
            map_cpu_cost=1.0,
            reduce_cpu_cost=2.0,
            config=JobConfig(num_reduce_tasks=1, forced_single_reduce=True),
        )
        workflow.add_job(
            job,
            JobAnnotations(
                schema=SchemaAnnotation.of(
                    k1=["orderid"], v1=["orderid", "order_sum", "order_max"],
                    k2=["g"], v2=["order_sum"],
                    k3=["g"], v3=["distinct_prices"],
                )
            ),
        )

    datasets = {"br_lineitem": lineitem}
    attach_dataset_annotations(workflow, datasets)
    return Workload(
        name="Business Report Generation",
        abbreviation="BR",
        workflow=workflow,
        base_datasets=datasets,
        paper_dataset_gb=530.0,
        description="Seven-job report generation with multiple group-by aggregates over lineitem.",
    )
