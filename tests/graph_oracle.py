"""Brute-force reference implementation of ``Workflow``'s structural queries.

Every function answers by scanning ``workflow.jobs`` / ``workflow.datasets``
(both in insertion order) and never touches the topology index, so the
indexed answers of :class:`repro.workflow.graph.Workflow` can be compared
against it element for element, tie-breaks included.  These are the scans
the index replaced (ISSUE 6), relocated out of ``src/`` (ISSUE 13).
"""

import heapq

from repro.common.errors import WorkflowValidationError


def producer_of(workflow, dataset_name):
    for vertex in workflow.jobs:
        if dataset_name in vertex.job.output_datasets:
            return vertex
    return None


def consumers_of(workflow, dataset_name):
    return [v for v in workflow.jobs if dataset_name in v.job.input_datasets]


def producer_jobs(workflow, job_name):
    producers, seen = [], set()
    for dataset_name in workflow.job(job_name).job.input_datasets:
        producer = producer_of(workflow, dataset_name)
        if producer is not None and producer.name != job_name and producer.name not in seen:
            seen.add(producer.name)
            producers.append(producer)
    return producers


def consumer_jobs(workflow, job_name):
    consumers, seen = [], set()
    for dataset_name in workflow.job(job_name).job.output_datasets:
        for consumer in consumers_of(workflow, dataset_name):
            if consumer.name != job_name and consumer.name not in seen:
                seen.add(consumer.name)
                consumers.append(consumer)
    return consumers


def base_datasets(workflow):
    return [d for d in workflow.datasets if producer_of(workflow, d.name) is None]


def terminal_datasets(workflow):
    return [d for d in workflow.datasets if not consumers_of(workflow, d.name)]


def intermediate_datasets(workflow):
    return [
        d
        for d in workflow.datasets
        if producer_of(workflow, d.name) is not None and consumers_of(workflow, d.name)
    ]


def topological_order(workflow):
    """Kahn's algorithm over scanned adjacency, insertion-order tie-breaks."""
    jobs = {vertex.name: vertex for vertex in workflow.jobs}
    in_degree = {name: len(producer_jobs(workflow, name)) for name in jobs}
    position = {name: key for key, name in enumerate(jobs)}
    heap = [(position[name], name) for name, degree in in_degree.items() if degree == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, name = heapq.heappop(heap)
        order.append(jobs[name])
        for consumer in consumer_jobs(workflow, name):
            in_degree[consumer.name] -= 1
            if in_degree[consumer.name] == 0:
                heapq.heappush(heap, (position[consumer.name], consumer.name))
    if len(order) != len(jobs):
        raise WorkflowValidationError("workflow graph contains a cycle")
    return order


def pre_index_topological_order(workflow):
    """The pre-ISSUE-6 topological sort, verbatim: FIFO ready list re-sorted
    against a rebuilt name list every iteration.  The ordering oracle for the
    heap-based sorts (the indexed one and :func:`topological_order` above)."""
    jobs = {vertex.name: vertex for vertex in workflow.jobs}
    in_degree = {name: len(producer_jobs(workflow, name)) for name in jobs}
    order = []
    ready = [name for name in jobs if in_degree[name] == 0]
    while ready:
        name = ready.pop(0)
        order.append(jobs[name])
        for consumer in consumer_jobs(workflow, name):
            in_degree[consumer.name] -= 1
            if in_degree[consumer.name] == 0:
                ready.append(consumer.name)
        ready.sort(key=lambda n: list(jobs).index(n))
    if len(order) != len(jobs):
        raise WorkflowValidationError("workflow graph contains a cycle")
    return order


def topological_levels(workflow):
    levels = {}
    for vertex in topological_order(workflow):
        producers = producer_jobs(workflow, vertex.name)
        levels[vertex.name] = 1 + max((levels[p.name] for p in producers), default=-1)
    grouped = {}
    for name, level in levels.items():
        grouped.setdefault(level, []).append(workflow.job(name))
    return [grouped[level] for level in sorted(grouped)]


def depends_on(workflow, consumer, producer):
    frontier = [p.name for p in producer_jobs(workflow, consumer)]
    seen = set()
    while frontier:
        current = frontier.pop()
        if current == producer:
            return True
        if current in seen:
            continue
        seen.add(current)
        frontier.extend(p.name for p in producer_jobs(workflow, current))
    return False
