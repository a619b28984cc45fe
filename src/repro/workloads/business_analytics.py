"""Business Analytics Query workload (BA): TPC-H Query 17 (§7.1).

Four jobs over TPC-H-like ``lineitem`` and ``part`` tables, both partitioned
on ``partid``:

* **BA_J1** — scan and process the lineitem table, organising it by part;
* **BA_J2** — restrict to the brand/container-filtered parts (a broadcast
  filter standing in for the dimension-table join) and compute the average
  quantity per part;
* **BA_J3** — join the processed lineitems with the per-part averages and
  keep lineitems whose quantity is below 20% of the average;
* **BA_J4** — total price of the kept lineitems divided by 7 (single reduce).

BA_J2 groups on ``{partid}`` — a subset of BA_J1's key — so intra-job
vertical packing applies to it; BA_J2 and BA_J3 both read BA_J1's output, so
horizontal packing applies as well.  This is the workload where both
transformation groups contribute (paper §7.2).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.common.records import KeyValue, Record
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import simple_job
from repro.workflow.annotations import JobAnnotations, SchemaAnnotation
from repro.workflow.graph import Workflow
from repro.workloads import common, datagen
from repro.workloads.base import Workload, apply_paper_scale, attach_dataset_annotations


def _is_selected_part(record: Record) -> bool:
    # Stand-in for the Brand#.. / container predicate on the part dimension
    # table (selects ~20% of parts deterministically).
    partid = float(record.get("partid", 0.0) or 0.0)
    return int(partid) % 5 == 0


def _avgqty_join_map(key: Record, value: Record) -> Iterable[KeyValue]:
    if "price" in value:
        yield {"partid": value.get("partid")}, {
            "__side": "items",
            "quantity": value.get("quantity"),
            "price": value.get("price"),
        }
    elif "avgqty" in value:
        yield {"partid": value.get("partid")}, {"__side": "avg", "avgqty": value.get("avgqty")}


def _small_quantity_reduce(key: Record, values: List[Record]) -> Iterable[KeyValue]:
    averages = [float(v.get("avgqty", 0.0) or 0.0) for v in values if v.get("__side") == "avg"]
    if not averages:
        return
    threshold = 0.2 * averages[0]
    for value in values:
        if value.get("__side") != "items":
            continue
        if float(value.get("quantity", 0.0) or 0.0) < threshold:
            yield dict(key), {"price": value.get("price")}


def _total_map(key: Record, value: Record) -> Iterable[KeyValue]:
    yield {"g": 0.0}, {"price": value.get("price")}


def _yearly_loss_reduce(key: Record, values: List[Record]) -> Iterable[KeyValue]:
    total = sum(float(v.get("price", 0.0) or 0.0) for v in values)
    yield dict(key), {"avg_yearly_loss": round(total / 7.0, 2)}


def build_business_analytics(scale: float = 1.0, seed: int = 42) -> Workload:
    """Build the BA (TPC-H Q17) workload."""
    lineitem = datagen.generate_lineitem(scale=scale, seed=seed)
    part = datagen.generate_part(scale=scale, seed=seed + 3)
    apply_paper_scale({"lineitem": lineitem, "part": part}, {"lineitem": 500.0, "part": 50.0})

    workflow = Workflow(name="business_analytics")

    j1 = simple_job(
        name="BA_J1",
        input_dataset="lineitem",
        output_dataset="ba_items",
        map_fn=common.key_by(["partid"], value_fields=["orderid", "partid", "quantity", "price"]),
        reduce_fn=common.identity_reduce(),
        group_fields=("partid",),
        map_cpu_cost=2.0,
        reduce_cpu_cost=2.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j1,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["partid"], v1=["orderid", "partid", "suppid", "quantity", "price"],
                k2=["partid"], v2=["orderid", "quantity", "price"],
                k3=["partid"], v3=["orderid", "quantity", "price"],
            )
        ),
    )

    j2 = simple_job(
        name="BA_J2",
        input_dataset="ba_items",
        output_dataset="ba_avgqty",
        map_fn=common.key_by(["partid"], value_fields=["quantity"], filter_fn=_is_selected_part),
        reduce_fn=common.aggregate_reduce({"avgqty": ("avg", "quantity")}),
        group_fields=("partid",),
        map_cpu_cost=2.0,
        reduce_cpu_cost=3.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j2,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["partid"], v1=["orderid", "partid", "quantity", "price"],
                k2=["partid"], v2=["quantity"],
                k3=["partid"], v3=["avgqty"],
            )
        ),
    )

    j3 = simple_job(
        name="BA_J3",
        input_dataset=("ba_items", "ba_avgqty"),
        output_dataset="ba_filtered",
        map_fn=_avgqty_join_map,
        reduce_fn=_small_quantity_reduce,
        group_fields=("partid",),
        map_cpu_cost=3.0,
        reduce_cpu_cost=4.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j3,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["partid"], v1=["orderid", "quantity", "price", "avgqty"],
                k2=["partid"], v2=["quantity", "price", "avgqty"],
                k3=["partid"], v3=["price"],
            )
        ),
    )

    j4 = simple_job(
        name="BA_J4",
        input_dataset="ba_filtered",
        output_dataset="ba_total",
        map_fn=_total_map,
        reduce_fn=_yearly_loss_reduce,
        group_fields=("g",),
        combiner=common.sum_combiner("price"),
        map_cpu_cost=1.0,
        reduce_cpu_cost=1.0,
        config=JobConfig(num_reduce_tasks=1, forced_single_reduce=True),
    )
    workflow.add_job(
        j4,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["partid"], v1=["partid", "price"],
                k2=["g"], v2=["price"],
                k3=["g"], v3=["avg_yearly_loss"],
            )
        ),
    )

    datasets = {"lineitem": lineitem, "part": part}
    attach_dataset_annotations(workflow, datasets)
    # The part table participates through the broadcast filter, so it is kept
    # as a workflow input for completeness even though no job scans it.
    workflow.add_dataset("part", dataset=part)
    return Workload(
        name="Business Analytics Query",
        abbreviation="BA",
        workflow=workflow,
        base_datasets=datasets,
        paper_dataset_gb=550.0,
        description="TPC-H Query 17: average-quantity threshold join over lineitem and part.",
    )
