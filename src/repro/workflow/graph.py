"""The workflow DAG: MapReduce jobs and datasets in producer-consumer relationships.

A workflow ``W`` is a DAG ``G_W`` whose vertices are MapReduce jobs and
datasets, and whose edges connect jobs to their input and output datasets
(paper §2.1).  Edges are derived from the jobs' declared input/output dataset
names, so the graph is always consistent with the executable jobs it holds.

Everything a workflow maps a name to is an **immutable value**: job and
dataset vertices, and the jobs, pipelines and annotations under them, are
frozen dataclasses compared by identity.  A workflow owns only its two
name→vertex dicts and its topology index, so :meth:`Workflow.copy` is two
dict copies and every edit *rebinds a name* to a new value
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
``topological_levels``) answer from a lazily built **topology index**
(:class:`_TopologyIndex`): producer/consumer adjacency per dataset plus
cached topological order and levels, maintained *incrementally* through the
mutation surface above and shared between copies until either side
mutates structure.  Answers are bit-identical — including insertion-order
tie-breaks — to brute-force scans of the job table; that reference
implementation lives in ``tests/graph_oracle.py`` and
``tests/test_topology_index.py`` compares against it element for element.
:data:`TOPOLOGY_COUNTERS` tallies queries answered against index maintenance
performed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

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
    index.  ``index_builds`` are from-scratch adjacency constructions (lazy,
    once per workflow lineage), ``incremental_updates`` are single-mutation
    touch-ups, and ``index_copies`` are private copies taken of an index
    shared through :meth:`Workflow.copy`.  ``toposort_builds`` vs
    ``toposort_cache_hits`` measure how often the cached topological
    order/levels survive mutation.  Counters are advisory (no lock): the
    benchmarks that assert on them run single-threaded.
    """

    __slots__ = (
        "index_queries",
        "index_builds",
        "index_copies",
        "incremental_updates",
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

    def scan_equivalents(self) -> int:
        """Full-graph passes actually paid: index and toposort (re)builds.

        An index build walks every job once, so it costs one
        scan-equivalent; an incremental update or an indexed query does not.
        """
        return self.index_builds + self.toposort_builds


#: The process-wide topology counter instance (see :class:`TopologyCounters`).
TOPOLOGY_COUNTERS = TopologyCounters()


class _TopologyIndex:
    """Producer/consumer adjacency plus cached topological order and levels.

    The index answers every structural query of :class:`Workflow` without
    scanning the job table: ``producers``/``consumers`` map each dataset
    name to the job names writing/reading it, each list kept in *job
    insertion order* so indexed answers are bit-identical (including
    tie-breaks) to a brute-force scan of the job table.  Insertion order is
    tracked through ``order_keys`` — a monotonic key per job; :meth:`replace_job` hands the
    old job's key to its replacement, mirroring how
    :meth:`Workflow.replace_job` keeps the vertex's position in the job
    dict.  ``topo_names``/``level_names`` cache the topological order and
    levels (by name — the caller re-binds names to its *current* vertex
    objects, so rebinding a vertex never stales the cache); any structural
    mutation clears them, while edge-preserving rebinds
    (:meth:`Workflow.annotate_job`, config-only :meth:`Workflow.update_job`)
    leave them valid.

    Lifecycle: built lazily on the first structural query, shared between a
    workflow and its copies by :meth:`Workflow.copy`, and privatized
    (copied) by whichever side mutates structure first.
    """

    __slots__ = ("producers", "consumers", "order_keys", "next_key", "topo_names", "level_names")

    def __init__(self) -> None:
        self.producers: Dict[str, List[str]] = {}
        self.consumers: Dict[str, List[str]] = {}
        self.order_keys: Dict[str, int] = {}
        self.next_key: int = 0
        self.topo_names: Optional[List[str]] = None
        self.level_names: Optional[List[List[str]]] = None

    @classmethod
    def build(cls, jobs: Dict[str, "JobVertex"]) -> "_TopologyIndex":
        """From-scratch adjacency build over the current job table."""
        index = cls()
        for vertex in jobs.values():
            key = index.next_key
            index.next_key += 1
            index.order_keys[vertex.name] = key
            index._link(vertex.job, key)
        TOPOLOGY_COUNTERS.index_builds += 1
        return index

    def copy(self) -> "_TopologyIndex":
        """Independent copy (privatization of a shared index)."""
        clone = _TopologyIndex()
        clone.producers = {name: list(jobs) for name, jobs in self.producers.items()}
        clone.consumers = {name: list(jobs) for name, jobs in self.consumers.items()}
        clone.order_keys = dict(self.order_keys)
        clone.next_key = self.next_key
        clone.topo_names = list(self.topo_names) if self.topo_names is not None else None
        clone.level_names = (
            [list(level) for level in self.level_names] if self.level_names is not None else None
        )
        TOPOLOGY_COUNTERS.index_copies += 1
        return clone

    # -------------------------------------------------------- edge plumbing
    def _link(self, job: MapReduceJob, key: int) -> None:
        """Insert the job's edges, keeping adjacency lists in job order."""
        name = job.name
        for dataset_name in job.input_datasets:
            entries = self.consumers.setdefault(dataset_name, [])
            entries.append(name)
            if len(entries) > 1 and self.order_keys[entries[-2]] > key:
                entries.sort(key=self.order_keys.__getitem__)
        for dataset_name in job.output_datasets:
            entries = self.producers.setdefault(dataset_name, [])
            entries.append(name)
            if len(entries) > 1 and self.order_keys[entries[-2]] > key:
                entries.sort(key=self.order_keys.__getitem__)

    def _unlink(self, job: MapReduceJob) -> None:
        """Remove the job's edges (empty adjacency entries are dropped)."""
        name = job.name
        for dataset_name in job.input_datasets:
            entries = self.consumers.get(dataset_name)
            if entries is not None:
                if name in entries:
                    entries.remove(name)
                if not entries:
                    del self.consumers[dataset_name]
        for dataset_name in job.output_datasets:
            entries = self.producers.get(dataset_name)
            if entries is not None:
                if name in entries:
                    entries.remove(name)
                if not entries:
                    del self.producers[dataset_name]

    def _invalidate_topology(self) -> None:
        self.topo_names = None
        self.level_names = None

    # ------------------------------------------------- incremental mutation
    def add_job(self, job: MapReduceJob) -> None:
        """Incremental update for :meth:`Workflow.add_job`."""
        key = self.next_key
        self.next_key += 1
        self.order_keys[job.name] = key
        self._link(job, key)
        self._invalidate_topology()
        TOPOLOGY_COUNTERS.incremental_updates += 1

    def remove_job(self, job: MapReduceJob) -> None:
        """Incremental update for :meth:`Workflow.remove_job`."""
        self._unlink(job)
        self.order_keys.pop(job.name, None)
        self._invalidate_topology()
        TOPOLOGY_COUNTERS.incremental_updates += 1

    def replace_job(self, old_job: MapReduceJob, new_job: MapReduceJob) -> None:
        """Incremental update for :meth:`Workflow.replace_job`.

        The replacement inherits the old job's order key, so indexed
        tie-breaks keep matching the rebuilt job dict (same position).
        """
        key = self.order_keys.pop(old_job.name)
        self._unlink(old_job)
        self.order_keys[new_job.name] = key
        self._link(new_job, key)
        self._invalidate_topology()
        TOPOLOGY_COUNTERS.incremental_updates += 1


@dataclass(frozen=True, eq=False)
class JobVertex:
    """A job vertex: the executable job plus its annotations (immutable)."""

    job: MapReduceJob
    annotations: JobAnnotations = field(default_factory=JobAnnotations)

    @property
    def name(self) -> str:
        """The job's name (vertex identity)."""
        return self.job.name


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
        #: Lazily built topology index (see :class:`_TopologyIndex`), shared
        #: with copies until either side mutates structure.
        self._topo_index: Optional[_TopologyIndex] = None
        self._topo_shared: bool = False

    # ------------------------------------------------------- topology index
    def _topology(self) -> _TopologyIndex:
        """The adjacency index, built lazily on first structural query.

        Reading a shared index is safe: workflows only share an index while
        their edge structures are identical, so even cache fills (topological
        order/levels) computed through one sharer are valid for all of them.
        """
        index = self._topo_index
        if index is None:
            index = _TopologyIndex.build(self._jobs)
            self._topo_index = index
            self._topo_shared = False
        return index

    def _topology_for_mutation(self) -> Optional[_TopologyIndex]:
        """The index to update incrementally for a structural mutation.

        ``None`` when no index has been built yet (nothing to maintain — the
        next structural query rebuilds from scratch); a private copy when the
        current index is shared with a sibling (privatize-before-mutate).
        """
        index = self._topo_index
        if index is None:
            return None
        if self._topo_shared:
            index = index.copy()
            self._topo_index = index
            self._topo_shared = False
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
        index = self._topology_for_mutation()
        if index is not None:
            index.add_job(job)
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
        removed = self._jobs.pop(name)
        index = self._topology_for_mutation()
        if index is not None:
            index.remove_job(removed.job)

    def remove_dataset(self, name: str) -> None:
        """Remove a dataset vertex if no remaining job references it."""
        for vertex in self._jobs.values():
            job = vertex.job
            if name in job.input_datasets or name in job.output_datasets:
                raise WorkflowValidationError(
                    f"dataset {name!r} is still referenced by job {job.name!r}"
                )
        self._datasets.pop(name, None)

    def prune_orphan_datasets(self) -> List[str]:
        """Drop dataset vertices no job reads or writes; returns their names.

        Index-neutral by construction: the adjacency index only holds
        entries for datasets some job references (``_unlink`` drops entries
        as they empty), so an orphan has none and the cached topology stays
        valid.
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
        vertex = self.job(job_name)
        TOPOLOGY_COUNTERS.index_queries += 1
        index = self._topology()
        producers: List[JobVertex] = []
        seen: Set[str] = set()
        for dataset_name in vertex.job.input_datasets:
            writers = index.producers.get(dataset_name)
            if not writers:
                continue
            writer = writers[0]
            if writer != job_name and writer not in seen:
                seen.add(writer)
                producers.append(self._jobs[writer])
        return producers

    def consumer_jobs(self, job_name: str) -> List[JobVertex]:
        """Jobs that read any of this job's output datasets (first-seen order)."""
        vertex = self.job(job_name)
        TOPOLOGY_COUNTERS.index_queries += 1
        index = self._topology()
        consumers: List[JobVertex] = []
        seen: Set[str] = set()
        for dataset_name in vertex.job.output_datasets:
            for reader in index.consumers.get(dataset_name, ()):
                if reader != job_name and reader not in seen:
                    seen.add(reader)
                    consumers.append(self._jobs[reader])
        return consumers

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
        the topology index and survives config-only rebinds;
        structural edits invalidate it.
        """
        index = self._topology()
        if index.topo_names is None:
            index.topo_names = self._compute_topo_names(index)
            TOPOLOGY_COUNTERS.toposort_builds += 1
        else:
            TOPOLOGY_COUNTERS.toposort_cache_hits += 1
        return [self._jobs[name] for name in index.topo_names]

    def _compute_topo_names(self, index: _TopologyIndex) -> List[str]:
        """Kahn's algorithm over the index, insertion-order tie-breaks."""
        keys = index.order_keys
        in_degree: Dict[str, int] = {}
        heap: List[Tuple[int, str]] = []
        for name, vertex in self._jobs.items():
            seen: Set[str] = set()
            for dataset_name in vertex.job.input_datasets:
                writers = index.producers.get(dataset_name)
                if writers:
                    writer = writers[0]
                    if writer != name and writer not in seen:
                        seen.add(writer)
            in_degree[name] = len(seen)
            if not seen:
                heap.append((keys[name], name))
        heapq.heapify(heap)
        order: List[str] = []
        while heap:
            _, name = heapq.heappop(heap)
            order.append(name)
            vertex = self._jobs[name]
            notified: Set[str] = set()
            for dataset_name in vertex.job.output_datasets:
                for reader in index.consumers.get(dataset_name, ()):
                    if reader == name or reader in notified:
                        continue
                    notified.add(reader)
                    in_degree[reader] -= 1
                    if in_degree[reader] == 0:
                        heapq.heappush(heap, (keys[reader], reader))
        if len(order) != len(self._jobs):
            raise WorkflowValidationError("workflow graph contains a cycle")
        return order

    def topological_levels(self) -> List[List[JobVertex]]:
        """Jobs grouped into levels of concurrently runnable jobs.

        A job's level is one more than the maximum level of its producers;
        jobs in the same level have no dependency path between them and can
        run concurrently on the cluster.  Cached alongside the topological
        order (see :meth:`topological_order` for the invalidation rules).
        """
        index = self._topology()
        if index.level_names is None:
            order = self.topological_order()
            levels: Dict[str, int] = {}
            for vertex in order:
                level = -1
                for dataset_name in vertex.job.input_datasets:
                    writers = index.producers.get(dataset_name)
                    if writers and writers[0] != vertex.name:
                        producer_level = levels[writers[0]]
                        if producer_level > level:
                            level = producer_level
                levels[vertex.name] = level + 1
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
        concluded it could never be packed with anything.)
        """
        TOPOLOGY_COUNTERS.index_queries += 1
        index = self._topology()
        frontier = [p.name for p in self.producer_jobs(consumer)]
        seen: Set[str] = set()
        while frontier:
            current = frontier.pop()
            if current == producer:
                return True
            if current in seen:
                continue
            seen.add(current)
            current_vertex = self._jobs[current]
            for dataset_name in current_vertex.job.input_datasets:
                writers = index.producers.get(dataset_name)
                if writers and writers[0] != current:
                    frontier.append(writers[0])
        return False

    # ----------------------------------------------------------------- copy
    def copy(self, name: Optional[str] = None) -> "Workflow":
        """Clone holding the same (immutable) vertex objects.

        Two dict copies; the source's dicts and vertices are left untouched.
        The topology index is shared too (cached order/levels included)
        until either side mutates structure, at which point the mutator
        takes a private copy first.
        """
        COPY_COUNTERS.workflow_copies += 1
        clone = Workflow(name=name or self.name)
        clone._jobs = dict(self._jobs)
        clone._datasets = dict(self._datasets)
        if self._topo_index is not None:
            clone._topo_index = self._topo_index
            clone._topo_shared = True
            self._topo_shared = True
        return clone

    # -------------------------------------------------------------- rebinding
    def update_job(self, name: str, derive: Callable[[MapReduceJob], MapReduceJob]) -> JobVertex:
        """Rebind ``name`` to a vertex holding ``derive(vertex.job)``.

        ``derive`` builds the replacement (e.g. ``job.with_config(...)``), a
        job of the same name that may share pipelines with the old one; the
        annotations object is carried over as is.  Config-only derivations
        keep the cached topology; a derivation that
        rewires datasets updates the index cone like :meth:`replace_job`.
        """
        old = self.job(name)
        old_job = old.job
        new_job = derive(old_job)
        if new_job.name != name:
            raise WorkflowValidationError(
                f"update_job cannot rename {name!r} to {new_job.name!r}; use replace_job"
            )
        vertex = JobVertex(new_job, old.annotations)
        self._jobs[name] = vertex
        COPY_COUNTERS.vertex_shell_copies += 1
        # Same pipelines tuple (every ``with_config`` / ``with_partitioner``
        # derivation): same edges, without building four name tuples to compare.
        if new_job.pipelines is not old_job.pipelines and (
            old_job.input_datasets != new_job.input_datasets
            or old_job.output_datasets != new_job.output_datasets
        ):
            index = self._topology_for_mutation()
            if index is not None:
                index.replace_job(old_job, new_job)
            self._ensure_datasets(new_job)
        return vertex

    def annotate_job(self, name: str, **changes: object) -> JobVertex:
        """Rebind ``name`` to a vertex whose annotations have ``changes`` applied.

        ``changes`` are :class:`JobAnnotations` fields
        (``dataclasses.replace``); the job object is carried over as is.
        """
        old = self.job(name)
        vertex = JobVertex(old.job, replace(old.annotations, **changes))
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
        index = self._topology_for_mutation()
        if index is not None:
            index.replace_job(existing.job, job)
        new_vertex = JobVertex(job, existing.annotations if annotations is None else annotations)
        rebuilt: Dict[str, JobVertex] = {}
        for key, value in self._jobs.items():
            if key == name:
                rebuilt[job.name] = new_vertex
            else:
                rebuilt[key] = value
        self._jobs = rebuilt
        self._ensure_datasets(job)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workflow(name={self.name!r}, jobs={len(self._jobs)}, datasets={len(self._datasets)})"
