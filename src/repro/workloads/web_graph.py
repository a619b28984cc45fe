"""Web Graph Analysis workload (WG): one PageRank iteration (§7.1).

Two jobs over a power-law adjacency list and the current rank vector:

* **WG_J1** — join the adjacency list with the current ranks on the source
  page and emit a rank contribution for every outgoing link;
* **WG_J2** — sum the contributions per destination page and apply the
  damping factor to produce the new rank vector.

WG_J2 re-groups by the destination page, whose values are *not* the grouping
key of WG_J1, so no vertical packing applies — matching the paper's
observation that packing offers limited benefit for this workflow and that
most of the gain comes from cost-based configuration tuning.
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

DAMPING = 0.85


def _join_map(key: Record, value: Record) -> Iterable[KeyValue]:
    if "dst" in value:
        yield {"src": value.get("src")}, {"__side": "adj", "dst": value.get("dst")}
    elif "rank" in value:
        yield {"src": value.get("src")}, {"__side": "rank", "rank": value.get("rank")}


def _contrib_reduce(key: Record, values: List[Record]) -> Iterable[KeyValue]:
    links = [v.get("dst") for v in values if v.get("__side") == "adj"]
    ranks = [float(v.get("rank", 0.0) or 0.0) for v in values if v.get("__side") == "rank"]
    if not links or not ranks:
        return
    contribution = ranks[0] / len(links)
    for dst in links:
        yield dict(key), {"dst": dst, "contrib": contribution}


def _new_rank_reduce(key: Record, values: List[Record]) -> Iterable[KeyValue]:
    total = sum(float(v.get("contrib", 0.0) or 0.0) for v in values)
    yield dict(key), {"rank": round(0.15 + DAMPING * total, 9)}


def build_web_graph(scale: float = 1.0, seed: int = 42) -> Workload:
    """Build the WG (PageRank iteration) workload."""
    adjacency = datagen.generate_adjacency_list(scale=scale, seed=seed)
    ranks = datagen.generate_initial_ranks(scale=scale, seed=seed + 2)
    apply_paper_scale(
        {"adjacency": adjacency, "ranks": ranks},
        {"adjacency": 230.0, "ranks": 25.0},
    )

    workflow = Workflow(name="web_graph")

    j1 = simple_job(
        name="WG_J1",
        input_dataset=("adjacency", "ranks"),
        output_dataset="wg_contribs",
        map_fn=_join_map,
        reduce_fn=_contrib_reduce,
        group_fields=("src",),
        map_cpu_cost=2.0,
        reduce_cpu_cost=4.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j1,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["src"], v1=["src", "dst", "rank"],
                k2=["src"], v2=["dst", "rank"],
                k3=["src"], v3=["dst", "contrib"],
            )
        ),
    )

    j2 = simple_job(
        name="WG_J2",
        input_dataset="wg_contribs",
        output_dataset="wg_newranks",
        map_fn=common.key_by(["dst"], value_fields=["contrib"]),
        reduce_fn=_new_rank_reduce,
        group_fields=("dst",),
        map_cpu_cost=2.0,
        reduce_cpu_cost=18.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j2,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["src"], v1=["dst", "contrib"],
                k2=["dst"], v2=["contrib"],
                k3=["dst"], v3=["rank"],
            )
        ),
    )

    datasets = {"adjacency": adjacency, "ranks": ranks}
    attach_dataset_annotations(workflow, datasets)
    return Workload(
        name="Web Graph Analysis",
        abbreviation="WG",
        workflow=workflow,
        base_datasets=datasets,
        paper_dataset_gb=255.0,
        description="One PageRank iteration: contribution join followed by rank aggregation.",
    )
