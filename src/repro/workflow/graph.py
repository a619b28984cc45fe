"""The workflow DAG: MapReduce jobs and datasets in producer-consumer relationships.

A workflow ``W`` is a DAG ``G_W`` whose vertices are MapReduce jobs and
datasets, and whose edges connect jobs to their input and output datasets
(paper §2.1).  Edges are derived from the jobs' declared input/output dataset
names, so the graph is always consistent with the executable jobs it holds.

Everything a workflow maps a name to is an **immutable value**: job and
dataset vertices, and the jobs, pipelines and annotations under them, are
frozen dataclasses compared by identity.  A workflow owns only its two
name→vertex dicts, so :meth:`Workflow.copy` is two dict copies and every
edit *rebinds a name* to a new value
(:meth:`Workflow.update_job` / :meth:`Workflow.annotate_job` /
:meth:`Workflow.replace_job` / :meth:`Workflow.add_dataset`) — no other
workflow holding the old value can see it.  Stubby's transformations are
local rewrites (paper §3), so a candidate plan rebinds one or two names out
of many and shares every other vertex object with its parent.
:data:`COPY_COUNTERS` tallies the workflow copies and vertex rebinds
performed.

Structural queries (``producer_of``/``consumers_of``/``producer_jobs``/
``consumer_jobs``/``base_datasets``/``terminal_datasets``/
``intermediate_datasets``/``depends_on``/``topological_order``/
``topological_levels``/``job_adjacency``) answer from a lazily built
**topology index** (:class:`_TopologyIndex`): producer/consumer adjacency
per dataset plus cached topological order, levels, ancestor table and
job-to-job adjacency.  The index is a value built in one
pass over the job table: copies share it, and an edit that moves an edge
(``add_job`` / ``remove_job`` / ``replace_job`` / an edge-changing
``update_job``) drops it, so the next structural query rebuilds it.  Answers
are bit-identical — including insertion-order tie-breaks — to brute-force
scans of the job table; that reference implementation lives in
``tests/graph_oracle.py`` and ``tests/test_topology_index.py`` compares
against it element for element.  :data:`TOPOLOGY_COUNTERS` tallies queries
answered against builds and sorts paid.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.common.content_keys import VertexContentKey, optional_key
from repro.common.errors import WorkflowValidationError
from repro.dfs.dataset import Dataset
from repro.mapreduce.job import MapReduceJob
from repro.workflow.annotations import DatasetAnnotation, JobAnnotations


class CopyCounters:
    """Process-wide tallies of plan copying and vertex rebinding.

    ``workflow_copies`` counts :meth:`Workflow.copy` calls and
    ``vertex_shell_copies`` the vertices rebound by
    :meth:`Workflow.update_job` / :meth:`Workflow.annotate_job`.
    ``vertex_copies`` (deep job copies) no longer has a writer and reads 0;
    the slot stays because ``bench/cold.py`` reads it by name.  Counters are
    advisory (no lock): the tests that assert on them run single-threaded.
    """

    __slots__ = ("workflow_copies", "vertex_copies", "vertex_shell_copies")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (benchmarks call this before a measured window)."""
        self.workflow_copies = 0
        self.vertex_copies = 0
        self.vertex_shell_copies = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view of the current counters."""
        return {name: getattr(self, name) for name in self.__slots__}


#: The process-wide counter instance (see :class:`CopyCounters`).
COPY_COUNTERS = CopyCounters()


class TopologyCounters:
    """Process-wide tallies of topology-index activity (graph instrumentation).

    ``index_queries`` counts structure queries answered from the adjacency
    index and ``index_builds`` the indexes built (lazily, on the first
    structural query after construction or after an edge-moving edit).
    ``toposort_builds`` vs ``toposort_cache_hits`` measure how often the
    cached topological order (with the job adjacency table that carries it)
    and levels answer a walk.  ``index_copies`` no
    longer has a writer and reads 0; the slot stays because ``bench/cold.py``
    reads it by name.  Counters are advisory (no lock): the benchmarks that
    assert on them run single-threaded.
    """

    __slots__ = (
        "index_queries",
        "index_builds",
        "index_copies",
        "toposort_builds",
        "toposort_cache_hits",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (benchmarks call this before a measured window)."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view of the current counters."""
        return {name: getattr(self, name) for name in self.__slots__}


#: The process-wide topology counter instance (see :class:`TopologyCounters`).
TOPOLOGY_COUNTERS = TopologyCounters()


class _TopologyIndex:
    """Producer/consumer adjacency plus cached topological order and levels.

    The index answers every structural query of :class:`Workflow` without
    scanning the job table: ``producers``/``consumers`` map each dataset
    name to the job names writing/reading it, each list in *job insertion
    order* so indexed answers are bit-identical (including tie-breaks) to a
    brute-force scan of the job table, and ``order`` maps each job name to
    its position in that table.  All three are filled in one pass by the
    constructor and never edited.  ``adjacency`` (the :class:`JobAdjacency`
    table: job-to-job edges and the topological order) and ``level_names``
    hold names, not vertices (the caller re-binds names to its *current*
    vertex objects, so rebinding a vertex never stales them), and
    ``ancestors`` maps each job name to the names of every job it
    transitively reads from; they are filled on first use and are the only
    writes to a built index.

    A workflow holds its index until an edit moves an edge, then drops it;
    edge-preserving rebinds (:meth:`Workflow.annotate_job`, config-only
    :meth:`Workflow.update_job`) keep it.  So every workflow holding an index
    has the edges it was built from, and :meth:`Workflow.copy` shares it —
    lazy caches filled through one holder included — with no protocol.
    """

    __slots__ = ("producers", "consumers", "order", "adjacency", "level_names", "ancestors")

    def __init__(self, jobs: Dict[str, "JobVertex"]) -> None:
        self.producers: Dict[str, List[str]] = {}
        self.consumers: Dict[str, List[str]] = {}
        self.order: Dict[str, int] = {}
        for position, (name, vertex) in enumerate(jobs.items()):
            self.order[name] = position
            for dataset_name in vertex.job.input_datasets:
                self.consumers.setdefault(dataset_name, []).append(name)
            for dataset_name in vertex.job.output_datasets:
                self.producers.setdefault(dataset_name, []).append(name)
        self.adjacency: Optional[JobAdjacency] = None
        self.level_names: Optional[List[List[str]]] = None
        self.ancestors: Optional[Dict[str, Set[str]]] = None
        TOPOLOGY_COUNTERS.index_builds += 1


class JobAdjacency(NamedTuple):
    """Job-to-job edges by name, and the topological order they give.

    ``upstream[name]`` holds the jobs whose outputs ``name`` reads, in its
    input-dataset order, and ``downstream[name]`` the jobs reading its
    outputs, in output-dataset then job insertion order — each without
    repeats and without ``name`` itself.  Both dicts have one entry per job,
    so they also answer "is this a job of the plan".  ``order`` is the
    topological order.  Built once per topology index; read-only.
    """

    order: List[str]
    upstream: Dict[str, Tuple[str, ...]]
    downstream: Dict[str, Tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class JobVertex:
    """A job vertex: the executable job plus its annotations (immutable)."""

    job: MapReduceJob
    annotations: JobAnnotations = field(default_factory=JobAnnotations)

    @property
    def name(self) -> str:
        """The job's name (vertex identity)."""
        return self.job.name

    @cached_property
    def content_key(self) -> VertexContentKey:
        """What the dataflow derivation reads from this vertex, built once per
        vertex from its pipelines' and profile's own keys: an unchanged vertex
        is the same object in every candidate plan, so it keys once."""
        job = self.job
        return VertexContentKey(
            pipelines=tuple(pipeline.content_key for pipeline in job.pipelines),
            partitioner_fields=tuple(job.effective_partitioner.fields),
            combiner_active=job.has_combiner and job.config.combiner_enabled,
            profile_key=optional_key(self.annotations.profile),
            chained_input=job.config.chained_input,
        )


@dataclass(frozen=True, eq=False)
class DatasetVertex:
    """A dataset vertex: name, optional materialized data, and annotations.

    The vertex is immutable; the materialized :class:`Dataset` it may point
    at is data, not plan, and is shared by every vertex that names it.
    """

    name: str
    dataset: Optional[Dataset] = None
    annotation: Optional[DatasetAnnotation] = None


class Workflow:
    """A DAG of MapReduce jobs connected through datasets."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._jobs: Dict[str, JobVertex] = {}
        self._datasets: Dict[str, DatasetVertex] = {}
        #: Lazily built topology index (see :class:`_TopologyIndex`); shared
        #: with copies, dropped by an edit that moves an edge.
        self._topo_index: Optional[_TopologyIndex] = None

    # ------------------------------------------------------- topology index
    def _topology(self) -> _TopologyIndex:
        """The adjacency index, built on the first structural query after
        construction or after an edge-moving edit dropped it."""
        index = self._topo_index
        if index is None:
            index = self._topo_index = _TopologyIndex(self._jobs)
        return index

    # ---------------------------------------------------------- construction
    def add_job(
        self,
        job: MapReduceJob,
        annotations: Optional[JobAnnotations] = None,
    ) -> JobVertex:
        """Add a job vertex (dataset vertices for its inputs/outputs are auto-created)."""
        if job.name in self._jobs:
            raise WorkflowValidationError(f"duplicate job name {job.name!r}")
        vertex = JobVertex(job=job, annotations=annotations or JobAnnotations())
        self._jobs[job.name] = vertex
        self._ensure_datasets(job)
        self._topo_index = None
        return vertex

    def _ensure_datasets(self, job: MapReduceJob) -> None:
        """Create bare dataset vertices for names ``job`` reads or writes."""
        for dataset_name in job.input_datasets + job.output_datasets:
            if dataset_name not in self._datasets:
                self._datasets[dataset_name] = DatasetVertex(name=dataset_name)

    def add_dataset(
        self,
        name: str,
        dataset: Optional[Dataset] = None,
        annotation: Optional[DatasetAnnotation] = None,
    ) -> DatasetVertex:
        """Add a dataset vertex, or rebind it enriched with data / an annotation.

        Index-neutral: dataset payloads and annotations carry no edges, so
        the topology index and its cached order/levels stay valid.
        """
        vertex = self._datasets.get(name)
        if vertex is None:
            vertex = DatasetVertex(name, dataset, annotation)
        elif dataset is not None or annotation is not None:
            vertex = DatasetVertex(
                name,
                vertex.dataset if dataset is None else dataset,
                vertex.annotation if annotation is None else annotation,
            )
        self._datasets[name] = vertex
        return vertex

    def remove_job(self, name: str) -> None:
        """Remove a job vertex (dataset vertices are kept; prune separately)."""
        if name not in self._jobs:
            raise WorkflowValidationError(f"job {name!r} not in workflow")
        del self._jobs[name]
        self._topo_index = None

    def prune_orphan_datasets(self) -> List[str]:
        """Drop dataset vertices no job reads or writes; returns their names.

        Index-neutral by construction: the adjacency index only holds
        entries for datasets some job references, so an orphan has none and
        the cached topology stays valid.
        """
        referenced: Set[str] = set()
        for vertex in self._jobs.values():
            referenced.update(vertex.job.input_datasets)
            referenced.update(vertex.job.output_datasets)
        orphans = [name for name in self._datasets if name not in referenced]
        for name in orphans:
            del self._datasets[name]
        return orphans

    # ------------------------------------------------------------- accessors
    @property
    def jobs(self) -> List[JobVertex]:
        """Job vertices in insertion order."""
        return list(self._jobs.values())

    @property
    def job_names(self) -> List[str]:
        """Job names in insertion order."""
        return list(self._jobs)

    @property
    def datasets(self) -> List[DatasetVertex]:
        """Dataset vertices in insertion order."""
        return list(self._datasets.values())

    def job(self, name: str) -> JobVertex:
        """Fetch a job vertex by name."""
        if name not in self._jobs:
            raise WorkflowValidationError(f"job {name!r} not in workflow")
        return self._jobs[name]

    def has_job(self, name: str) -> bool:
        """Whether a job with this name exists."""
        return name in self._jobs

    def dataset(self, name: str) -> DatasetVertex:
        """Fetch a dataset vertex by name."""
        if name not in self._datasets:
            raise WorkflowValidationError(f"dataset {name!r} not in workflow")
        return self._datasets[name]

    def has_dataset(self, name: str) -> bool:
        """Whether a dataset with this name exists."""
        return name in self._datasets

    # ------------------------------------------------------------- structure
    #
    # Every public structural query answers from the adjacency index in
    # O(answer size).

    def producer_of(self, dataset_name: str) -> Optional[JobVertex]:
        """The job writing ``dataset_name`` (``None`` for base datasets)."""
        TOPOLOGY_COUNTERS.index_queries += 1
        writers = self._topology().producers.get(dataset_name)
        return self._jobs[writers[0]] if writers else None

    def consumers_of(self, dataset_name: str) -> List[JobVertex]:
        """All jobs reading ``dataset_name``, in job insertion order."""
        TOPOLOGY_COUNTERS.index_queries += 1
        readers = self._topology().consumers.get(dataset_name, ())
        return [self._jobs[name] for name in readers]

    def producer_jobs(self, job_name: str) -> List[JobVertex]:
        """Jobs whose output datasets this job reads (input-dataset order)."""
        self.job(job_name)  # an unknown job raises
        TOPOLOGY_COUNTERS.index_queries += 1
        jobs = self._jobs
        return [jobs[name] for name in self.job_adjacency().upstream[job_name]]

    def consumer_jobs(self, job_name: str) -> List[JobVertex]:
        """Jobs that read any of this job's output datasets (first-seen order)."""
        self.job(job_name)  # an unknown job raises
        TOPOLOGY_COUNTERS.index_queries += 1
        jobs = self._jobs
        return [jobs[name] for name in self.job_adjacency().downstream[job_name]]

    def base_datasets(self) -> List[DatasetVertex]:
        """Dataset vertices produced by no job (the workflow inputs)."""
        TOPOLOGY_COUNTERS.index_queries += 1
        producers = self._topology().producers
        return [d for d in self._datasets.values() if not producers.get(d.name)]

    def terminal_datasets(self) -> List[DatasetVertex]:
        """Dataset vertices consumed by no job (the workflow outputs)."""
        TOPOLOGY_COUNTERS.index_queries += 1
        consumers = self._topology().consumers
        return [d for d in self._datasets.values() if not consumers.get(d.name)]

    def intermediate_datasets(self) -> List[DatasetVertex]:
        """Datasets both produced and consumed inside the workflow."""
        TOPOLOGY_COUNTERS.index_queries += 1
        index = self._topology()
        return [
            d
            for d in self._datasets.values()
            if index.producers.get(d.name) and index.consumers.get(d.name)
        ]

    @property
    def num_jobs(self) -> int:
        """Number of job vertices."""
        return len(self._jobs)

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check the workflow is a consistent DAG; raise on problems."""
        writers: Dict[str, str] = {}
        for vertex in self._jobs.values():
            for output in vertex.job.output_datasets:
                if output in writers and writers[output] != vertex.name:
                    raise WorkflowValidationError(
                        f"dataset {output!r} written by both {writers[output]!r} and {vertex.name!r}"
                    )
                writers[output] = vertex.name
            overlap = set(vertex.job.input_datasets) & set(vertex.job.output_datasets)
            if overlap:
                raise WorkflowValidationError(
                    f"job {vertex.name!r} reads and writes the same dataset(s): {sorted(overlap)}"
                )
        # Cycle detection via topological sort.
        self.topological_order()

    def topological_order(self) -> List[JobVertex]:
        """Jobs in topological (producer before consumer) order.

        Ties are broken by insertion order so traversal — and therefore the
        optimizer's optimization-unit generation — is deterministic: among
        the ready jobs, the one inserted earliest is always emitted first
        (a min-heap over insertion keys; the original implementation
        re-sorted the ready list against a rebuilt name list every
        iteration, with the same emitted order).  The order is cached on
        the topology index and survives config-only rebinds; an edit that
        moves an edge drops the index and with it the order.
        """
        jobs = self._jobs
        return [jobs[name] for name in self.job_adjacency().order]

    def job_adjacency(self) -> JobAdjacency:
        """Every job's upstream and downstream job names plus the topological
        order (see :class:`JobAdjacency`).

        Built at the first structural walk on an index and kept on it, so
        copies share it and an edge-moving edit drops it with the index.
        The topological order, levels, ancestor table and producer/consumer
        job lists all read it, and optimization-unit generation reads only it.
        """
        index = self._topology()
        adjacency = index.adjacency
        if adjacency is None:
            adjacency = index.adjacency = self._build_adjacency(index)
            TOPOLOGY_COUNTERS.toposort_builds += 1
        else:
            TOPOLOGY_COUNTERS.toposort_cache_hits += 1
        return adjacency

    def _build_adjacency(self, index: _TopologyIndex) -> JobAdjacency:
        """Each job's edges in one pass over the job table, then Kahn's
        algorithm over them with insertion-order tie-breaks."""
        producers, consumers, keys = index.producers, index.consumers, index.order
        upstream: Dict[str, Tuple[str, ...]] = {}
        downstream: Dict[str, Tuple[str, ...]] = {}
        in_degree: Dict[str, int] = {}
        heap: List[Tuple[int, str]] = []
        for name, vertex in self._jobs.items():
            job = vertex.job
            # Dicts as ordered sets: first-seen order without repeats.
            above: Dict[str, None] = {}
            for dataset_name in job.input_datasets:
                writers = producers.get(dataset_name)
                if writers:
                    above[writers[0]] = None
            above.pop(name, None)
            below: Dict[str, None] = {}
            for dataset_name in job.output_datasets:
                for reader in consumers.get(dataset_name, ()):
                    below[reader] = None
            below.pop(name, None)
            upstream[name] = tuple(above)
            downstream[name] = tuple(below)
            in_degree[name] = len(above)
            if not above:
                heap.append((keys[name], name))
        heapq.heapify(heap)
        order: List[str] = []
        while heap:
            _, name = heapq.heappop(heap)
            order.append(name)
            for reader in downstream[name]:
                in_degree[reader] -= 1
                if in_degree[reader] == 0:
                    heapq.heappush(heap, (keys[reader], reader))
        if len(order) != len(self._jobs):
            raise WorkflowValidationError("workflow graph contains a cycle")
        return JobAdjacency(order, upstream, downstream)

    def topological_levels(self) -> List[List[JobVertex]]:
        """Jobs grouped into levels of concurrently runnable jobs.

        A job's level is one more than the maximum level of its producers;
        jobs in the same level have no dependency path between them and can
        run concurrently on the cluster.  Cached alongside the topological
        order (see :meth:`topological_order` for the invalidation rules).
        """
        index = self._topology()
        if index.level_names is None:
            adjacency = self.job_adjacency()
            levels: Dict[str, int] = {}
            for name in adjacency.order:
                level = -1
                for writer in adjacency.upstream[name]:
                    if levels[writer] > level:
                        level = levels[writer]
                levels[name] = level + 1
            grouped: Dict[int, List[str]] = {}
            for name, level in levels.items():
                grouped.setdefault(level, []).append(name)
            index.level_names = [grouped[level] for level in sorted(grouped)]
            TOPOLOGY_COUNTERS.toposort_builds += 1
        else:
            TOPOLOGY_COUNTERS.toposort_cache_hits += 1
        return [[self._jobs[name] for name in level] for level in index.level_names]

    def depends_on(self, consumer: str, producer: str) -> bool:
        """Whether ``consumer`` transitively depends on ``producer``.

        Self-dependency is ``False`` by definition: a job in a DAG never
        precedes itself.  (The pre-index implementation started its upward
        walk *at* ``consumer``, so ``depends_on(x, x)`` returned ``True``
        for every job — callers pairing a job against itself would have
        concluded it could never be packed with anything.)  Answered from
        the index's ancestor table, filled in one pass over the topological
        order at the first call, so horizontal packing's pairwise checks
        cost a set lookup each.
        """
        TOPOLOGY_COUNTERS.index_queries += 1
        self.job(consumer)  # an unknown consumer raises
        index = self._topology()
        if index.ancestors is None:
            adjacency = self.job_adjacency()
            ancestors: Dict[str, Set[str]] = {}
            for name in adjacency.order:
                above: Set[str] = set()
                for writer in adjacency.upstream[name]:
                    above.add(writer)
                    above |= ancestors[writer]
                ancestors[name] = above
            index.ancestors = ancestors
        return producer in index.ancestors[consumer]

    # ----------------------------------------------------------------- copy
    def copy(self, name: Optional[str] = None) -> "Workflow":
        """Clone holding the same (immutable) vertex objects.

        Two dict copies and a shared reference to the topology index (cached
        order/levels included); nothing is written into the source.  An
        edge-moving edit on either side only drops that side's reference.
        """
        COPY_COUNTERS.workflow_copies += 1
        clone = Workflow(name=name or self.name)
        clone._jobs = dict(self._jobs)
        clone._datasets = dict(self._datasets)
        clone._topo_index = self._topo_index
        return clone

    # -------------------------------------------------------------- rebinding
    def update_job(self, name: str, derive: Callable[[MapReduceJob], MapReduceJob]) -> JobVertex:
        """Rebind ``name`` to a vertex holding ``derive(vertex.job)``.

        ``derive`` builds the replacement (e.g. ``job.with_config(...)``), a
        job of the same name that may share pipelines with the old one; the
        annotations object is carried over as is.  Config-only derivations
        keep the topology index; a derivation that rewires datasets drops it
        like :meth:`replace_job`.
        """
        old = self.job(name)
        old_job = old.job
        new_job = derive(old_job)
        if new_job.name != name:
            raise WorkflowValidationError(
                f"update_job cannot rename {name!r} to {new_job.name!r}; use replace_job"
            )
        vertex = JobVertex(new_job, old.annotations)
        key = old.__dict__.get("content_key")
        if (
            key is not None
            and new_job.pipelines is old_job.pipelines
            and new_job.effective_partitioner is old_job.effective_partitioner
            and new_job.config.combiner_enabled == old_job.config.combiner_enabled
            and new_job.config.chained_input == old_job.config.chained_input
        ):
            # Nothing the key reads moved (the annotations are the same
            # object): the new vertex starts with the old one's key.
            vertex.__dict__["content_key"] = key
        self._jobs[name] = vertex
        COPY_COUNTERS.vertex_shell_copies += 1
        # Same pipelines tuple (every ``with_config`` / ``with_partitioner``
        # derivation): same edges, without building four name tuples to compare.
        if new_job.pipelines is not old_job.pipelines and (
            old_job.input_datasets != new_job.input_datasets
            or old_job.output_datasets != new_job.output_datasets
        ):
            self._topo_index = None
            self._ensure_datasets(new_job)
        return vertex

    def annotate_job(self, name: str, **changes: object) -> JobVertex:
        """Rebind ``name`` to a vertex whose annotations have ``changes`` applied.

        ``changes`` are :class:`JobAnnotations` fields
        (``dataclasses.replace``); the job object is carried over as is.
        Keys the edit cannot move are handed over: a profile-only edit keeps
        :attr:`JobAnnotations.key` (which leaves the profile out), and an
        edit that keeps the profile keeps :attr:`JobVertex.content_key`
        (which reads nothing else of the annotations).
        """
        old = self.job(name)
        annotations = replace(old.annotations, **changes)
        annotations_key = old.annotations.__dict__.get("key")
        if annotations_key is not None and changes.keys() <= {"profile"}:
            annotations.__dict__["key"] = annotations_key
        vertex = JobVertex(old.job, annotations)
        content_key = old.__dict__.get("content_key")
        if content_key is not None and "profile" not in changes:
            vertex.__dict__["content_key"] = content_key
        self._jobs[name] = vertex
        COPY_COUNTERS.vertex_shell_copies += 1
        return vertex

    def replace_job(self, name: str, job: MapReduceJob, annotations: Optional[JobAnnotations] = None) -> None:
        """Replace a job vertex, keeping its position in insertion order.

        ``annotations`` defaults to the replaced vertex's.
        """
        if name not in self._jobs:
            raise WorkflowValidationError(f"job {name!r} not in workflow")
        if job.name != name and job.name in self._jobs:
            raise WorkflowValidationError(
                f"replace_job cannot rename {name!r} to {job.name!r}: duplicate job name"
            )
        existing = self._jobs[name]
        new_vertex = JobVertex(job, existing.annotations if annotations is None else annotations)
        rebuilt: Dict[str, JobVertex] = {}
        for key, value in self._jobs.items():
            if key == name:
                rebuilt[job.name] = new_vertex
            else:
                rebuilt[key] = value
        self._jobs = rebuilt
        self._ensure_datasets(job)
        self._topo_index = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workflow(name={self.name!r}, jobs={len(self._jobs)}, datasets={len(self._datasets)})"
