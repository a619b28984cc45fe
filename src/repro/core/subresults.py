"""ReStore-style sub-result catalog: reuse materialized outputs across workflows.

Stubby optimizes each workflow in isolation; under repeated traffic the same
producing subgraphs — shared ingest prefixes, resubmitted pipelines — are
recomputed over and over.  *ReStore: Reusing Results of MapReduce Jobs*
(PAPERS.md) adds the missing lever: keep the materialized intermediate
datasets of executed plans in a catalog, and rewrite an incoming workflow to
**read a stored sub-result** instead of recomputing its producing subgraph.

:class:`SubResultCatalog` is that catalog.  Entries map a *subgraph content
signature* — everything that determines the bytes of a materialized dataset —
to the stored records and their derived
:class:`~repro.workflow.annotations.DatasetAnnotation`:

* per producing-cone job: its :attr:`~repro.workflow.graph.JobVertex.key`
  — content key, shape (pipelines, wiring, effective partition function),
  the full configuration (:attr:`~repro.mapreduce.config.JobConfig.key`,
  every field) and the :class:`JobAnnotations` content, the same job part
  the unit decision key reads;
* per dataset the cone reads or writes: its
  :attr:`~repro.workflow.graph.DatasetVertex.key` (annotation and logical
  sizes), and per base dataset feeding the cone a
  :func:`~repro.common.hashing.stable_hash` fingerprint of the actual
  records — same structure over different data must miss;
* the :class:`~repro.cluster.ClusterSpec` key and
  :data:`~repro.whatif.model.COST_MODEL_VERSION`.

Change any of these and the signature changes — the catalog misses, never
serves a result the submitted subgraph would not have produced
(property-tested in ``tests/test_subresult_catalog.py``).  The rewrite
itself lives in
:class:`~repro.core.transformations.reuse.SubResultReuseTransformation`; it
enters the unit search as a sixth transformation, so reuse is
**cost-model-arbitrated**: the rewritten candidate is costed by the what-if
engine like any other and wins only when it is estimated cheaper.

Concurrency, attribution, merge-on-join and persistence are the shared
:class:`~repro.common.store.ShardedStore` mechanism (see
:mod:`repro.common.store`); the harness and the server name the persisted
file with ``STUBBY_SUBRESULT_CATALOG`` and merge it with
``save_cache(merge_first=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec
from repro.common.faults import fault_site
from repro.common.hashing import stable_hash
from repro.common.store import (
    CounterStats,
    ShardedStore,
    cluster_cache_key,
    current_origin,
)
from repro.dfs.dataset import Dataset
from repro.profiler.profiler import Profiler
from repro.whatif import model as whatif_model
from repro.workflow.annotations import DatasetAnnotation
from repro.workflow.graph import Workflow

__all__ = [
    "SUBRESULT_CATALOG_FORMAT_VERSION",
    "SUBRESULT_CATALOG_PATH_ENV_VAR",
    "SubResultCatalog",
    "SubResultCatalogStats",
    "SubResultEntry",
    "SubResultUnavailableError",
    "dataset_content_fingerprint",
    "producing_cone",
    "register_workflow_outputs",
    "subgraph_signature",
]

#: Default bound on catalog entries; old entries are evicted LRU.  Entries
#: carry real records, so the default is far below the decision cache's.
DEFAULT_MAX_SUBRESULTS = 2_000

#: On-disk layout version of persisted catalog files; files written under a
#: different layout are rejected wholesale.  2: signatures pin the whole
#: ``JobConfig.key`` (version 1 keyed the six searched settings) and hold
#: :class:`~repro.common.content_keys.VertexContentKey`, which pickles by a
#: new module path.  3: that class pickles as a constructor call (its kept
#: hash is never written), so version-2 rows hold its old state shape.
#: 4: signatures are built from the vertices' own keys (pipeline tags now
#: included), so version-3 rows could never hit again.
SUBRESULT_CATALOG_FORMAT_VERSION = 4

#: Environment variable naming the persisted catalog path of an
#: ``ExperimentHarness`` or ``PlanningServer`` — the data-level sibling of
#: ``STUBBY_COST_CACHE`` / ``STUBBY_DECISION_CACHE``.
SUBRESULT_CATALOG_PATH_ENV_VAR = "STUBBY_SUBRESULT_CATALOG"

#: Cap on entries a forked worker ships back on merge-on-join.  Entries
#: carry records, so the cap is much tighter than the decision cache's.
MAX_EXPORTED_SUBRESULTS = 200


class SubResultUnavailableError(RuntimeError):
    """A catalog entry referenced by a recorded rewrite is gone or stale.

    Raised by :meth:`SubResultCatalog.fetch` when the entry vanished (LRU
    eviction, invalidation) or its backing records were deleted.  The search
    catches it during decision replay and falls back to a full search — a
    stale catalog degrades to recomputation, never to a failed plan.
    """


@dataclass(frozen=True)
class SubResultEntry:
    """One materialized sub-result: the stored dataset plus its provenance.

    ``records is None`` marks a *stale* entry — the signature is still
    known but the backing data was deleted (:meth:`SubResultCatalog.
    evict_payload`); the rewrite skips it and the plan recomputes.
    """

    dataset: str
    records: Optional[Tuple[Mapping[str, object], ...]]
    annotation: Optional[DatasetAnnotation]
    #: Names of the producing-cone jobs at registration time — exactly the
    #: jobs a reuse rewrite of this entry eliminates.
    producing_jobs: Tuple[str, ...] = ()
    #: Scale factor the registered execution ran at; reapplied to the
    #: substituted dataset so the what-if engine sees paper-scale sizes.
    scale_factor: float = 1.0

    @property
    def has_payload(self) -> bool:
        """Whether the backing records are still available."""
        return self.records is not None

    def materialize(self) -> Dataset:
        """Rebuild the stored records as a stageable :class:`Dataset`."""
        if self.records is None:
            raise SubResultUnavailableError(
                f"sub-result for dataset {self.dataset!r} has no backing records"
            )
        return Dataset(
            self.dataset,
            records=[dict(record) for record in self.records],
            scale_factor=self.scale_factor,
        )


@dataclass
class SubResultCatalogStats(CounterStats):
    """Counters describing catalog traffic.

    ``hits`` counts successful entry fetches — both applicability probes
    that matched and the fetch performed when a rewrite (or a decision-cache
    replay of one) is applied.  ``misses`` counts probes that found nothing,
    ``stale_skips`` probes that matched an entry whose backing records were
    deleted.  ``cross_origin_hits`` counts the hits served by an entry
    another origin registered — a different experiment cell, tenant, or a
    warm-started persisted file: exactly the cross-workflow reuse ReStore is
    after.  ``jobs_eliminated`` sums the producing-cone jobs removed by
    applied rewrites.
    """

    hits: int = 0
    misses: int = 0
    cross_origin_hits: int = 0
    stale_skips: int = 0
    stores: int = 0
    jobs_eliminated: int = 0

    @property
    def lookups(self) -> int:
        """Catalog probes performed (hits + misses + stale skips)."""
        return self.hits + self.misses + self.stale_skips

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered with a usable stored sub-result."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class SubResultCatalog(ShardedStore):
    """Sharded, LRU, optionally persisted catalog of materialized sub-results.

    One instance is safe to share across the server's threads, forked workers,
    experiment cells, and planning-service tenants — it is a
    :class:`~repro.common.store.ShardedStore`.

    ``enabled=False`` turns every lookup into a no-answer and every store
    into a no-op, so a disabled catalog is behaviourally invisible — the
    reuse transformation finds no applications and plans are bit-identical
    to pre-catalog runs.
    """

    STATS = SubResultCatalogStats
    FORMAT_VERSION = SUBRESULT_CATALOG_FORMAT_VERSION
    FAULT_PREFIX = "subresults"
    MAX_EXPORTED = MAX_EXPORTED_SUBRESULTS
    PATH_ENV_VAR = SUBRESULT_CATALOG_PATH_ENV_VAR
    NOUN = LABEL = "catalog"
    VALUE_TYPE = SubResultEntry

    def __init__(
        self,
        cluster: ClusterSpec,
        max_entries: int = DEFAULT_MAX_SUBRESULTS,
        enabled: bool = True,
        cache_path: Optional[str] = None,
    ) -> None:
        #: Monotonic content version; bumped by every mutation so the
        #: decision-key fingerprint (:meth:`decision_key_content`) can be
        #: cached between mutations.  Set first: a warm start bumps it.
        self._version = 0
        self._fingerprint_cache: Tuple[int, int] = (-1, 0)
        super().__init__(cluster, max_entries, enabled, cache_path)

    # ------------------------------------------------------------------ API
    def probe(self, signature: Tuple) -> Optional[SubResultEntry]:
        """The usable entry for ``signature``, or ``None`` (counts stats).

        A match whose backing records were deleted counts as a
        ``stale_skip`` and answers ``None`` — the caller recomputes.
        """
        if not self.enabled:
            return None
        entry_row = self._cache.lookup(signature)
        if entry_row is None:
            self._count(misses=1)
            return None
        entry, entry_origin = entry_row
        if not entry.has_payload:
            self._count(stale_skips=1)
            return None
        self._count(hits=1, cross_origin_hits=int(entry_origin != current_origin()))
        return entry

    def fetch(self, signature: Tuple) -> SubResultEntry:
        """The entry an applied rewrite substitutes; raises when unavailable.

        Unlike :meth:`probe`, absence is an error
        (:class:`SubResultUnavailableError`) — the caller holds a rewrite
        that references this entry, so the answer must exist or the rewrite
        must be abandoned (the search falls back to recomputation).
        """
        if not self.enabled:
            raise SubResultUnavailableError("sub-result catalog is disabled")
        fault_site("subresults.fetch")
        entry = self.probe(signature)
        if entry is None:
            raise SubResultUnavailableError(
                "sub-result entry is missing or its backing records were deleted"
            )
        return entry

    def store(
        self, signature: Tuple, entry: SubResultEntry, origin: Optional[str] = None
    ) -> None:
        """Register a materialized sub-result (no-op when disabled).

        ``origin`` names the owner of the execution being registered;
        ``None`` means the ambient label.
        """
        if not self.enabled:
            return
        origin = origin if origin is not None else current_origin()
        self._store(signature, entry, origin)
        self._bump_version()
        self._count(stores=1)

    def evict_payload(self, signature: Tuple) -> bool:
        """Drop an entry's backing records, keeping the signature (stale).

        Models the deployment event the fault-injection tests exercise: the
        materialized dataset was deleted from storage but the catalog row
        survived.  Returns whether the entry existed.
        """
        row = self._cache.lookup(signature)
        if row is None:
            return False
        entry, origin = row
        self._cache.store(signature, replace(entry, records=None), origin)
        self._bump_version()
        return True

    def record_jobs_eliminated(self, count: int) -> None:
        """Credit ``count`` eliminated jobs to the global and sink counters.

        Called once per ``StubbyOptimizer.optimize()``, for its final plan.
        """
        if count:
            self._count(jobs_eliminated=count)

    # ------------------------------------------------------- decision keying
    def decision_key_content(self) -> Tuple:
        """Content fingerprint folded into unit decision keys.

        A memoized unit decision made against this catalog is only valid
        while the catalog would offer the *same* rewrites, so the decision
        key must move whenever the catalog's visible content does.  The
        fingerprint hashes every live signature plus its payload presence;
        it is cached between mutations (``_version``) so decision keying
        stays O(1) on the hot path.
        """
        if not self.enabled:
            return ("subresult-catalog", "disabled")
        version = self._version
        cached_version, cached_value = self._fingerprint_cache
        if cached_version != version:
            material = sorted(
                str((stable_hash([signature]), entry.has_payload))
                for signature, entry, _origin in self._entries_snapshot()
            )
            cached_value = stable_hash(material)
            self._fingerprint_cache = (version, cached_value)
        return ("subresult-catalog", "enabled", cached_value)

    def _bump_version(self) -> None:
        with self._stats_lock:
            self._version += 1

    def absorb_entries(self, entries) -> None:
        """Merge entries exported by a worker (or loaded from disk)."""
        super().absorb_entries(entries)
        if entries and self.enabled:
            self._bump_version()

    def invalidate(self) -> None:
        """Drop every catalog entry (stats are kept)."""
        super().invalidate()
        self._bump_version()

    #: Number of registered sub-results.
    catalog_size = ShardedStore.cache_size


# ---------------------------------------------------------------------------
# Subgraph signatures
# ---------------------------------------------------------------------------


def dataset_content_fingerprint(dataset: Optional[Dataset]) -> Optional[int]:
    """Order-independent :func:`stable_hash` of a dataset's actual records.

    Base-data content reaches the what-if engine only through profiles and
    annotations, but a stored *sub-result* is a function of the bytes
    themselves — two structurally identical subgraphs over different base
    records must never share an entry, so the signature pins the records'
    hash (:attr:`Dataset.content_fingerprint`, taken once per load).
    """
    return None if dataset is None else dataset.content_fingerprint


def producing_cone(
    workflow: Workflow, dataset_name: str
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The jobs ``dataset_name`` transitively depends on, plus the base inputs.

    Returns ``(cone_job_names, base_dataset_names)``, both sorted.  An empty
    cone means the dataset is a workflow input (no producer).
    """
    producer = workflow.producer_of(dataset_name)
    if producer is None:
        return (), (dataset_name,)
    cone: Dict[str, object] = {}
    bases: Dict[str, None] = {}
    frontier = [producer]
    while frontier:
        vertex = frontier.pop()
        if vertex.name in cone:
            continue
        cone[vertex.name] = vertex
        for input_name in vertex.job.input_datasets:
            upstream = workflow.producer_of(input_name)
            if upstream is None:
                bases[input_name] = None
            elif upstream.name not in cone:
                frontier.append(upstream)
    return tuple(sorted(cone)), tuple(sorted(bases))


def subgraph_signature(workflow: Workflow, dataset_name: str, cluster: ClusterSpec) -> Tuple:
    """Content signature of ``dataset_name``'s producing subgraph.

    Pins everything that determines the materialized bytes: every cone
    job's :attr:`~repro.workflow.graph.JobVertex.key` (content key, shape
    and wiring, whole configuration, annotations), the
    :attr:`~repro.workflow.graph.DatasetVertex.key` of every dataset the
    cone reads or writes, a record-content fingerprint per feeding base
    dataset, and the cluster key and cost-model version.  Equal signatures
    produce byte-equal datasets by construction; any input change produces a
    catalog miss.
    """
    cone_jobs, base_inputs = producing_cone(workflow, dataset_name)
    touched = set(base_inputs)
    job_keys = []
    for job_name in cone_jobs:
        vertex = workflow.job(job_name)
        touched.update(vertex.job.input_datasets, vertex.job.output_datasets)
        job_keys.append(vertex.key)
    return (
        "subresult",
        dataset_name,
        tuple(job_keys),
        tuple((name, workflow.dataset(name).key) for name in sorted(touched)),
        tuple(dataset_content_fingerprint(workflow.dataset(name).dataset) for name in base_inputs),
        whatif_model.COST_MODEL_VERSION,
        cluster_cache_key(cluster),
    )


def register_workflow_outputs(
    catalog: SubResultCatalog,
    workflow: Workflow,
    outputs: Mapping[str, Sequence[Mapping[str, object]]],
    origin: Optional[str] = None,
    scale_factor: float = 1.0,
    profiler: Optional[Profiler] = None,
) -> int:
    """Register an executed workflow's intermediate datasets in the catalog.

    ``outputs`` maps dataset names to their materialized records (e.g. the
    union of a :class:`~repro.workflow.executor.WorkflowExecutionResult`'s
    ``job_outputs``).  Only *intermediate* datasets — produced by a job
    **and** consumed by another — are registered: terminal datasets are the
    workflow's answer, and substituting a terminal's producer away would
    change which jobs emit the compared outputs (the differential battery
    compares per-job outputs, and so does the real DFS layout).

    Returns the number of entries registered.  A no-op when the catalog is
    disabled.
    """
    if not catalog.enabled:
        return 0
    annotate = (profiler or Profiler()).annotate_dataset
    registered = 0
    for vertex in workflow.datasets:
        name = vertex.name
        if workflow.producer_of(name) is None or not workflow.consumers_of(name):
            continue
        records = outputs.get(name)
        if records is None:
            continue
        signature = subgraph_signature(workflow, name, catalog.cluster)
        cone_jobs, _bases = producing_cone(workflow, name)
        dataset = Dataset(name, records=[dict(r) for r in records], scale_factor=scale_factor)
        entry = SubResultEntry(
            dataset=name,
            records=tuple(dict(r) for r in records),
            annotation=annotate(dataset),
            producing_jobs=cone_jobs,
            scale_factor=scale_factor,
        )
        catalog.store(signature, entry, origin=origin)
        registered += 1
    return registered
