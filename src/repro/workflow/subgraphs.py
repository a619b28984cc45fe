"""Producer-consumer subgraph classification (paper Figure 3).

The five subgraph types characterise the relationship between a producer job
and a consumer job through a dataset:

* **one-to-one** — one producer writes a dataset read by exactly one consumer;
* **one-to-many** — one producer, several consumers of the same dataset;
* **many-to-one** — a consumer reads datasets from several producers;
* **none-to-one** — a consumer reads a base (workflow input) dataset;
* **one-to-none** — a producer writes a terminal (workflow output) dataset.

Transformations key their preconditions off these types, so classification is
centralised here.  All lookups go through the workflow's topology index
(:mod:`repro.workflow.graph`, built in one pass per edge structure):
classifying one dataset is O(its consumers), and the workflow-wide sweeps (:func:`shared_input_groups`,
:func:`concurrently_runnable_groups`) are O(datasets + edges) rather than
O(datasets · jobs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from repro.workflow.graph import JobVertex, Workflow


class SubgraphType(Enum):
    """The five producer-consumer subgraph shapes of Figure 3."""

    ONE_TO_ONE = "one-to-one"
    ONE_TO_MANY = "one-to-many"
    MANY_TO_ONE = "many-to-one"
    NONE_TO_ONE = "none-to-one"
    ONE_TO_NONE = "one-to-none"


@dataclass(frozen=True)
class ProducerConsumerEdge:
    """A (producer?, dataset, consumer?) relationship and its classification."""

    producer: Optional[str]
    dataset: str
    consumer: Optional[str]
    subgraph: SubgraphType


def classify_subgraph(workflow: Workflow, dataset_name: str) -> List[ProducerConsumerEdge]:
    """Classify all producer-consumer relationships through one dataset."""
    producer = workflow.producer_of(dataset_name)
    consumers = workflow.consumers_of(dataset_name)
    edges: List[ProducerConsumerEdge] = []

    if producer is None and consumers:
        for consumer in consumers:
            edges.append(
                ProducerConsumerEdge(None, dataset_name, consumer.name, SubgraphType.NONE_TO_ONE)
            )
        return edges
    if producer is not None and not consumers:
        edges.append(
            ProducerConsumerEdge(producer.name, dataset_name, None, SubgraphType.ONE_TO_NONE)
        )
        return edges
    if producer is None and not consumers:
        return edges

    if len(consumers) == 1:
        consumer = consumers[0]
        # The consumer may also read datasets from other producers, which
        # makes the consumer-side shape many-to-one.
        other_producers = [
            p for p in workflow.producer_jobs(consumer.name) if p.name != producer.name
        ]
        consumer_reads_other_base = any(
            workflow.producer_of(d) is None
            for d in consumer.job.input_datasets
            if d != dataset_name
        )
        if other_producers or consumer_reads_other_base:
            subgraph = SubgraphType.MANY_TO_ONE
        else:
            subgraph = SubgraphType.ONE_TO_ONE
        edges.append(
            ProducerConsumerEdge(producer.name, dataset_name, consumer.name, subgraph)
        )
    else:
        for consumer in consumers:
            edges.append(
                ProducerConsumerEdge(
                    producer.name, dataset_name, consumer.name, SubgraphType.ONE_TO_MANY
                )
            )
    return edges


def shared_input_groups(workflow: Workflow) -> List[Tuple[str, List[str]]]:
    """Datasets read by two or more jobs, with the reader job names.

    These are the horizontal-packing opportunities in the workflow (the
    "easy precondition" of §3.3).
    """
    groups: List[Tuple[str, List[str]]] = []
    for dataset_vertex in workflow.datasets:
        consumers = workflow.consumers_of(dataset_vertex.name)
        if len(consumers) >= 2:
            groups.append((dataset_vertex.name, [c.name for c in consumers]))
    return groups


def concurrently_runnable_groups(workflow: Workflow) -> List[List[str]]:
    """Groups of jobs with no dependency path between any pair.

    Used by the *extended* horizontal packing precondition, which relaxes
    "same input dataset" to "concurrently runnable" (§3.3 Extensions).
    """
    levels = workflow.topological_levels()
    return [[vertex.name for vertex in level] for level in levels if len(level) >= 2]
