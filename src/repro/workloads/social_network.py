"""Social Network Analysis workload (SN): top-20 coauthor pairs (§7.1).

Four jobs over randomly generated ``(paper, author)`` pairs drawn from a
power-law distribution and partitioned (and sorted) on ``paper``:

* **SN_J1** — combine all authors of each paper;
* **SN_J2** — create coauthor pairs and count collaborations;
* **SN_J3** — sample the counts and create partition split points for SN_J4;
* **SN_J4** — the global top-20 coauthor pairs in decreasing order (a single
  reduce task for the final ordering).

SN_J1 groups on the field the input is already partitioned and sorted on, so
the none-to-one intra-job vertical packing applies to it; the resulting
map-only job can then be folded into SN_J2 by inter-job packing.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.records import KeyValue, Record
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import simple_job
from repro.workflow.annotations import JobAnnotations, SchemaAnnotation
from repro.workflow.graph import Workflow
from repro.workloads import common, datagen
from repro.workloads.base import Workload, apply_paper_scale, attach_dataset_annotations


def _pairs_map(key: Record, value: Record) -> Iterable[KeyValue]:
    authors = str(value.get("authors", "")).split("|")
    authors = [a for a in authors if a]
    for i in range(len(authors)):
        for j in range(i + 1, len(authors)):
            yield {"a1": authors[i], "a2": authors[j]}, {"n": 1.0}


def _sample_map(key: Record, value: Record) -> Iterable[KeyValue]:
    # Deterministic 1-in-5 sample of the pair counts.
    if int(float(value.get("count", 0.0) or 0.0) * 10) % 5 == 0:
        yield {"g": 0.0}, {"count": value.get("count")}


def _top_map(key: Record, value: Record) -> Iterable[KeyValue]:
    yield {"g": 0.0}, {"a1": value.get("a1"), "a2": value.get("a2"), "count": value.get("count")}


def build_social_network(scale: float = 1.0, seed: int = 42) -> Workload:
    """Build the SN (top-20 coauthor pairs) workload."""
    paper_authors = datagen.generate_paper_authors(scale=scale, seed=seed)
    apply_paper_scale({"paper_authors": paper_authors}, {"paper_authors": 267.0})

    workflow = Workflow(name="social_network")

    j1 = simple_job(
        name="SN_J1",
        input_dataset="paper_authors",
        output_dataset="sn_authors",
        map_fn=common.key_by(["paper"], value_fields=["author"]),
        reduce_fn=common.collect_reduce("author", "authors"),
        group_fields=("paper",),
        map_cpu_cost=2.0,
        reduce_cpu_cost=2.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j1,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["paper"], v1=["paper", "author"],
                k2=["paper"], v2=["author"],
                k3=["paper"], v3=["authors"],
            )
        ),
    )

    j2 = simple_job(
        name="SN_J2",
        input_dataset="sn_authors",
        output_dataset="sn_pairs",
        map_fn=_pairs_map,
        reduce_fn=common.sum_reduce("n", "count"),
        group_fields=("a1", "a2"),
        combiner=common.sum_combiner("n"),
        map_cpu_cost=6.0,
        reduce_cpu_cost=2.0,
        config=JobConfig(num_reduce_tasks=8),
    )
    workflow.add_job(
        j2,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["paper"], v1=["paper", "authors"],
                k2=["a1", "a2"], v2=["n"],
                k3=["a1", "a2"], v3=["count"],
            )
        ),
    )

    j3 = simple_job(
        name="SN_J3",
        input_dataset="sn_pairs",
        output_dataset="sn_splits",
        map_fn=_sample_map,
        reduce_fn=common.sample_split_points_reduce("count", 8),
        group_fields=("g",),
        map_cpu_cost=1.0,
        reduce_cpu_cost=1.0,
        config=JobConfig(num_reduce_tasks=1, forced_single_reduce=True),
    )
    workflow.add_job(
        j3,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["a1", "a2"], v1=["a1", "a2", "count"],
                k2=["g"], v2=["count"],
                k3=["g"], v3=["split_index", "split_point"],
            )
        ),
    )

    j4 = simple_job(
        name="SN_J4",
        input_dataset="sn_pairs",
        output_dataset="sn_top20",
        map_fn=_top_map,
        reduce_fn=common.top_k_reduce(20, "count", ["a1", "a2"]),
        group_fields=("g",),
        map_cpu_cost=1.0,
        reduce_cpu_cost=3.0,
        config=JobConfig(num_reduce_tasks=1, forced_single_reduce=True),
    )
    workflow.add_job(
        j4,
        JobAnnotations(
            schema=SchemaAnnotation.of(
                k1=["a1", "a2"], v1=["a1", "a2", "count"],
                k2=["g"], v2=["a1", "a2", "count"],
                k3=["g"], v3=["a1", "a2", "count", "position"],
            )
        ),
    )

    datasets = {"paper_authors": paper_authors}
    attach_dataset_annotations(workflow, datasets)
    return Workload(
        name="Social Network Analysis",
        abbreviation="SN",
        workflow=workflow,
        base_datasets=datasets,
        paper_dataset_gb=267.0,
        description="Top-20 coauthor pairs over power-law (paper, author) data partitioned on paper.",
    )
