"""Log Analysis workload (LA): the Pavlo et al. join task (§7.1).

Four jobs over two inputs — ``uservisits`` (range-partitioned on the visit
date) and ``pageranks``:

* **LA_J1** — filter ``uservisits`` to a date range and join with
  ``pageranks`` on the page URL;
* **LA_J2** — aggregate per user: total ad revenue and average pagerank;
* **LA_J3** — sample the per-user revenue and derive partition split points;
* **LA_J4** — the user with the highest total ad revenue (single reduce).

The date filter on the base dataset is exposed through a per-input filter
annotation; because ``uservisits`` is range-partitioned on the date, Stubby's
partition-function machinery can prune the partitions LA_J1 has to read —
the partition-pruning benefit §7.3 attributes to Stubby for this workload.
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

DATE_LOW = 91.0
DATE_HIGH = 182.0


def _join_map(key: Record, value: Record) -> Iterable[KeyValue]:
    if "revenue" in value:
        date = float(value.get("date", -1.0) or -1.0)
        if not DATE_LOW <= date < DATE_HIGH:
            return
        yield {"url": value.get("url")}, {
            "__side": "visits",
            "ip": value.get("ip"),
            "revenue": value.get("revenue"),
        }
    elif "rank" in value:
        yield {"url": value.get("url")}, {"__side": "ranks", "rank": value.get("rank")}


def _sample_map(key: Record, value: Record) -> Iterable[KeyValue]:
    if int(float(value.get("total_revenue", 0.0) or 0.0) * 100) % 4 == 0:
        yield {"g": 0.0}, {"total_revenue": value.get("total_revenue")}


def _top_user_map(key: Record, value: Record) -> Iterable[KeyValue]:
    yield {"g": 0.0}, {
        "ip": value.get("ip"),
        "total_revenue": value.get("total_revenue"),
        "avg_rank": value.get("avg_rank"),
    }


def build_log_analysis(scale: float = 1.0, seed: int = 42) -> Workload:
    """Build the LA (log analysis join) workload."""
    uservisits = datagen.generate_uservisits(scale=scale, seed=seed)
    pageranks = datagen.generate_pageranks(scale=scale, seed=seed + 1)
    apply_paper_scale(
        {"uservisits": uservisits, "pageranks": pageranks},
        {"uservisits": 455.0, "pageranks": 45.0},
    )

    workflow = Workflow(name="log_analysis")

    j1 = simple_job(
        name="LA_J1",
        # The join reads both inputs through one pipeline (repartition join).
        input_dataset=("uservisits", "pageranks"),
        output_dataset="la_joined",
        map_fn=_join_map,
        reduce_fn=common.join_reduce("visits", "ranks", ["ip", "revenue", "rank"]),
        group_fields=("url",),
        map_cpu_cost=3.0,
        reduce_cpu_cost=4.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j1,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["date"], v1=["ip", "url", "date", "revenue", "rank"],
                k2=["url"], v2=["ip", "revenue", "rank"],
                k3=["url"], v3=["ip", "revenue", "rank"],
            ),
            per_input_filters={"uservisits": FilterAnnotation.of(date=(DATE_LOW, DATE_HIGH))},
        ),
    )

    j2 = simple_job(
        name="LA_J2",
        input_dataset="la_joined",
        output_dataset="la_user_agg",
        map_fn=common.key_by(["ip"], value_fields=["revenue", "rank"]),
        reduce_fn=common.aggregate_reduce(
            {"total_revenue": ("sum", "revenue"), "avg_rank": ("avg", "rank")}
        ),
        group_fields=("ip",),
        map_cpu_cost=2.0,
        reduce_cpu_cost=3.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j2,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["url"], v1=["ip", "revenue", "rank"],
                k2=["ip"], v2=["revenue", "rank"],
                k3=["ip"], v3=["total_revenue", "avg_rank"],
            )
        ),
    )

    j3 = simple_job(
        name="LA_J3",
        input_dataset="la_user_agg",
        output_dataset="la_splits",
        map_fn=_sample_map,
        reduce_fn=common.sample_split_points_reduce("total_revenue", 8),
        group_fields=("g",),
        map_cpu_cost=1.0,
        reduce_cpu_cost=1.0,
        config=JobConfig(num_reduce_tasks=1, forced_single_reduce=True),
    )
    workflow.add_job(
        j3,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["ip"], v1=["ip", "total_revenue", "avg_rank"],
                k2=["g"], v2=["total_revenue"],
                k3=["g"], v3=["split_index", "split_point"],
            )
        ),
    )

    j4 = simple_job(
        name="LA_J4",
        input_dataset="la_user_agg",
        output_dataset="la_top_user",
        map_fn=_top_user_map,
        reduce_fn=common.top_k_reduce(1, "total_revenue", ["ip", "avg_rank"]),
        group_fields=("g",),
        map_cpu_cost=1.0,
        reduce_cpu_cost=2.0,
        config=JobConfig(num_reduce_tasks=1, forced_single_reduce=True),
    )
    workflow.add_job(
        j4,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["ip"], v1=["ip", "total_revenue", "avg_rank"],
                k2=["g"], v2=["ip", "total_revenue", "avg_rank"],
                k3=["g"], v3=["ip", "total_revenue", "avg_rank", "position"],
            )
        ),
    )

    datasets = {"uservisits": uservisits, "pageranks": pageranks}
    attach_dataset_annotations(workflow, datasets)
    return Workload(
        name="Log Analysis",
        abbreviation="LA",
        workflow=workflow,
        base_datasets=datasets,
        paper_dataset_gb=500.0,
        description="Filtered join of uservisits and pageranks, per-user aggregation, and top user.",
    )
