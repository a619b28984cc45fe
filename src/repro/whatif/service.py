"""Incremental, memoized, concurrency-safe cost estimation over the What-if engine.

Stubby's practicality hinges on enumeration being cheap relative to what-if
costing (paper §4–§5): the search costs the *full* workflow for every RRS
sample of every candidate subplan of every optimization unit, even though one
sample only perturbs a handful of jobs.  :class:`CostService` owns every cost
query of the optimizer stack and makes them incremental:

* each job vertex is keyed by its dataflow signature
  (:meth:`~repro.whatif.model.WhatIfEngine.vertex_dataflow_signature`:
  pipelines + profile content + input-size vector + the producer facts the
  derivation actually reads), and the memo maps that key to the derived
  :class:`~repro.whatif.dataflow.JobDataflow` and output-size contributions —
  the expensive half of costing a job;
* only the mutated jobs — and downstream jobs whose input sizes or
  producer-dependent facts actually changed — are derived again;
* a candidate's RRS samples are configuration overlays costed in one
  :meth:`CostService.overlay` session: the snapshot check, profile check,
  origin label, walk order and stats delta are paid once per candidate, and
  a sample walks only the jobs it overlays and the fact readers they can
  reach — no plan copy, and no signature or lookup for a job whose dataflow
  it cannot move;
* the cheap per-phase job model (``estimate_job_time``) runs on the dataflow
  of every job whose configuration is asked about, and the makespan of every
  level holding one is recomputed, so the returned
  :class:`~repro.whatif.model.WorkflowCostEstimate` is *exactly* equal to a
  cold full re-estimation (``docs/costing.md``, "Costing a sample").

There is one memo level on purpose: nothing is stored per RRS sample.  A
finer level (signature + job-model knobs → final estimate) would hold ~92 %
of the rows to skip only the job model, and measured it buys no time
(``docs/costing.md`` has the table).

The service is a :class:`~repro.common.store.ShardedStore`, so it is safe to
share across the request and experiment-cell pools
(:mod:`repro.core.parallel`): a locked LRU, atomic stats with thread-local
attribution sinks (:meth:`CostService.attribute_to`,
:func:`~repro.common.store.attributed`), and export-log / merge-on-join for
forked workers — see :mod:`repro.common.store` for the model.

The service keeps :class:`CostServiceStats` (queries, memo hits, from-scratch
derivations, effectively-full estimations) that the search surfaces per
candidate, per optimization unit, and per optimizer run; the counters are the
basis of the ``whatif.service.*`` per-layer metrics of ``bench/run.py``.

Two features support the experiment orchestration layer
(:mod:`repro.experiments.scheduler`):

* **origin attribution** — every cache entry is tagged with the ambient
  label (:func:`~repro.common.store.current_origin`) active when it was
  stored; a lookup served by an
  entry stored under a *different* label counts as a cross-origin hit
  (``CostServiceStats.cross_origin_hits``).  The experiment harness labels
  each (workload × optimizer) cell, so ``OptimizerRun.cross_unit_hits``
  reports exactly how much one cell reaped from its neighbours or from a
  warm-started cache;
* **persistence** — :meth:`CostService.save_cache` /
  :meth:`CostService.load_cache` write and read the shared store's
  versioned snapshot (keyed by cluster spec and
  :data:`~repro.whatif.model.COST_MODEL_VERSION`, rejected wholesale when
  untrustworthy, written atomically), so a later run against the same
  cluster warm-starts instead of recomputing.  A file is bounded by the LRU
  cap (:data:`DEFAULT_MAX_CACHE_ENTRIES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import ClassVar, Dict, List, Optional, Set, Tuple

from repro.cluster import ClusterSpec
from repro.common import left_sum
from repro.common.faults import fault_site
from repro.common.store import (  # noqa: F401  (CacheLoadReport, cluster_cache_key: re-exports)
    CacheLoadReport,
    CounterStats,
    ShardedStore,
    cluster_cache_key,
    current_origin,
)
from repro.mapreduce.config import JobConfig
from repro.whatif.jobmodel import JobTimeEstimate, estimate_job_time
from repro.whatif.model import COST_MODEL_VERSION, VertexCost, WhatIfEngine, WorkflowCostEstimate
from repro.whatif.model import ConfigOverlay, CostingBasis, config_of
from repro.whatif.scheduling import level_makespan
from repro.workflow.graph import JobVertex, Workflow

#: Default bound on cached per-vertex dataflows; old entries are evicted LRU.
DEFAULT_MAX_CACHE_ENTRIES = 200_000

#: Cap on entries a forked worker ships back on merge-on-join; beyond this
#: the freshest entries win (export logs are append-ordered).
MAX_EXPORTED_ENTRIES = 20_000

#: On-disk layout version of persisted cache files; files written under a
#: different layout are rejected wholesale.  Version 3: one memo level — rows
#: are plain ``(dataflow signature, (JobDataflow, contributions), origin)``;
#: version-2 files held level-tagged 4-tuples.
CACHE_FORMAT_VERSION = 3

#: Environment variable naming a persisted-cache path; consulted only by the
#: owners that also merge-save it (``ExperimentHarness``, ``PlanningServer``)
#: when no explicit path is given.
CACHE_PATH_ENV_VAR = "STUBBY_COST_CACHE"


@dataclass
class CostServiceStats(CounterStats):
    """Counters describing how much what-if work the service performed.

    ``queries`` counts workflow-level estimate requests — exactly the number
    of full-workflow what-if computations a non-incremental engine would have
    performed.  ``full_estimates`` counts the queries that could not reuse
    *anything*, i.e. the computations that really were full.

    Job-granularity counters: every query answers for each job of the
    workflow once (``job_queries``), with one of two outcomes —

    * ``job_cache_hits`` — answered **without a dataflow derivation**: a memo
      row, or the query's ``base`` result carried over or kept under the job
      model again (at most the cheap per-phase job model ran);
    * ``job_full_recosts`` — the job was derived and costed from scratch (and
      the derivation stored: one memo row per from-scratch derivation).

    ``fallback_queries`` counts profile-free queries answered by the trivial
    job-count model.  ``cross_origin_hits`` counts the hits *the LRU served*
    from a row stored under another origin label than the one active at
    lookup — another experiment cell's work, or a warm-started cache.
    """

    DERIVED: ClassVar[Tuple[str, ...]] = ("effective_full_estimates", "cache_hit_rate")

    queries: int = 0
    fallback_queries: int = 0
    full_estimates: int = 0
    job_queries: int = 0
    job_cache_hits: int = 0
    job_full_recosts: int = 0
    cross_origin_hits: int = 0

    @property
    def job_dataflow_hits(self) -> int:
        # Identically 0; read by the frozen bench/common.py::cost_metrics.
        return 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of job lookups served from the memo."""
        if self.job_queries == 0:
            return 0.0
        return self.job_cache_hits / self.job_queries

    @property
    def effective_full_estimates(self) -> float:
        """Job-weighted equivalent number of full-workflow estimations.

        From-scratch job derivations divided by the mean workflow size per
        query: the amount of full-depth costing work actually done,
        expressed in units of "one cold workflow estimation".
        """
        if self.job_queries == 0 or self.queries == 0:
            return float(self.full_estimates)
        return self.job_full_recosts * self.queries / self.job_queries


class CostService(ShardedStore):
    """Memoizing façade over :class:`WhatIfEngine` for the optimizer stack.

    All cost queries of :class:`~repro.core.search.StubbySearch`,
    :class:`~repro.core.optimizer.StubbyOptimizer`, and the baseline
    optimizers go through one service instance, so cache entries are shared
    across candidate subplans, RRS samples, units, and phases — candidate
    plans are copies whose unchanged vertices are *shared objects* that
    carry their own content keys, and the content-based signatures make even
    rebound vertices cache-transparent.  The service owns its
    :class:`WhatIfEngine` (``engine``), which holds no per-vertex state.
    See :mod:`repro.common.store` for the concurrency model.

    The inherited ``_cache`` is the one memo level: dataflow signature →
    ``(JobDataflow, contributions)``.

    ``enable_cache=False`` turns the service into a pass-through that costs
    every job cold (used by tests to prove the memoized results are
    identical); queries are still counted.

    ``cache_path`` opts into persistence: the constructor warm-starts from
    the file when it exists and is valid (:attr:`last_load` records the
    outcome either way); :meth:`save_cache` writes the current store back.
    Loading never raises on a bad file — an invalid cache is worth exactly
    as much as no cache.
    """

    STATS = CostServiceStats
    FORMAT_VERSION = CACHE_FORMAT_VERSION
    FAULT_PREFIX = "costcache"
    MAX_EXPORTED = MAX_EXPORTED_ENTRIES
    PATH_ENV_VAR = CACHE_PATH_ENV_VAR
    VALUE_TYPE = tuple

    def __init__(
        self,
        cluster: ClusterSpec,
        max_cache_entries: int = DEFAULT_MAX_CACHE_ENTRIES,
        enable_cache: bool = True,
        cache_path: Optional[str] = None,
    ) -> None:
        self.engine = WhatIfEngine(cluster)
        super().__init__(cluster, max_cache_entries, enabled=enable_cache, cache_path=cache_path)

    # ------------------------------------------------------------------ API
    def overlay(
        self, workflow: Workflow, base: Optional[WorkflowCostEstimate] = None
    ) -> "OverlaySession":
        """A costing session (a context manager): many overlays on one unedited ``workflow``.

        ``base``, an estimate of ``workflow`` without an overlay, spares each
        sample the jobs the overlay cannot move and never changes an answer;
        without one, the session's first overlay-free answer becomes its base.
        A base answers for the vertices it snapshotted: once ``workflow``
        rebinds, adds or removes one it is ignored.  The session's counters
        reach the global stats and the attribution sinks when it closes, in
        one delta, whatever ends it.
        """
        return OverlaySession(self, workflow, base)

    def estimate_workflow(
        self,
        workflow: Workflow,
        configs: ConfigOverlay = None,
        base: Optional[WorkflowCostEstimate] = None,
    ) -> WorkflowCostEstimate:
        """Estimate ``workflow``, reusing memoized per-job dataflows where valid.

        ``configs`` (job name -> ``JobConfig``) asks what ``workflow`` would
        cost with those bound, without the plan copy; ``base`` is as for
        :meth:`overlay`, of which this is a one-sample session.
        """
        with self.overlay(workflow, base) as session:
            return session.estimate(configs)

    def _model_version(self) -> int:
        # This module's binding, so a test (or a later PR) moving
        # ``repro.whatif.service.COST_MODEL_VERSION`` moves the stamp.
        return COST_MODEL_VERSION


class OverlaySession:
    """One :meth:`CostService.overlay` session (``docs/costing.md``, "Costing a sample").

    A sample walks only the overlaid jobs and the base's fact readers, in the
    base's walk order: each is *carried*, *kept* (the base's dataflow under
    the job model again) or *re-derived*, and if a re-derived job's output
    sizes differ the sample starts over as a full walk.
    """

    def __init__(
        self, service: CostService, workflow: Workflow, base: Optional[WorkflowCostEstimate]
    ) -> None:
        self.service = service
        self.workflow = workflow
        self.delta = CostServiceStats()
        self._origin = current_origin()
        self._profiled = all(vertex.annotations.has_profile for vertex in workflow.jobs)
        self._base: Optional[WorkflowCostEstimate] = None
        #: The base's walk, built at the first sample: per position (level
        #: index, name, vertex, own config, has combiner, base result), and
        #: each job's position.
        self._walk: List[Tuple[int, str, JobVertex, JobConfig, bool, VertexCost]] = []
        self._rank: Dict[str, int] = {}
        self._recosted: Set[str] = set()
        self._cross_origin_hits = 0
        basis = base.basis if base is not None else None
        if basis is not None and basis.vertices == (workflow.jobs, workflow.datasets):
            self._base = base  # else none, or some vertex was rebound, added or removed since

    def __enter__(self) -> "OverlaySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.service._apply_delta(self.delta)  # whatever ends the session

    def _build_walk(self, basis: CostingBasis) -> None:
        for index, level in enumerate(basis.levels):
            for vertex in level:
                job = vertex.job
                self._rank[job.name] = len(self._walk)
                self._walk.append(
                    (index, job.name, vertex, job.config, job.has_combiner, basis.costed[job.name])
                )

    def estimate(self, configs: ConfigOverlay = None) -> WorkflowCostEstimate:
        """What the workflow costs with ``configs`` bound: ``==`` a cold estimate."""
        workflow = self.workflow
        fault_site("whatif.estimate", jobs=workflow.num_jobs)
        if configs:
            overlay = {}
            for name, config in configs.items():
                own = workflow.job(name).job.config
                if (config.num_reduce_tasks == 0) != (own.num_reduce_tasks == 0):
                    # Reconciled with the job's shape, as MapReduceJob.__post_init__ would.
                    config = config.replace(num_reduce_tasks=min(1, own.num_reduce_tasks))
                if config is not own:  # else binding it changes nothing
                    overlay[name] = config
            configs = overlay
        delta = self.delta
        if not self._profiled:
            delta.queries += 1
            delta.fallback_queries += 1
            return self.service.engine.job_count_estimate(workflow, configs)

        self._recosted = set()  # by name: a sample that starts over meets its jobs twice
        self._cross_origin_hits = 0
        base = self._base
        if base is None:
            estimate = self.service.engine.run_costing(workflow, self._cost_vertex, configs)
            if estimate.basis is not None:
                self._base = estimate
        elif not configs:
            estimate = base
        else:
            estimate = self._sample(base, configs)
        # A hit: answered without a derivation (a memo row, or the base's result).
        jobs = len(estimate.per_job)
        recosted = len(self._recosted)
        delta.queries += 1
        delta.job_queries += jobs
        delta.job_full_recosts += recosted
        delta.job_cache_hits += jobs - recosted
        if jobs == recosted:
            delta.full_estimates += 1
        delta.cross_origin_hits += self._cross_origin_hits
        return estimate

    def _sample(self, base: WorkflowCostEstimate, configs: Dict[str, JobConfig]) -> WorkflowCostEstimate:
        workflow = self.workflow
        cluster = self.service.cluster
        basis = base.basis
        fact_readers = basis.fact_readers
        sizes = base.dataset_sizes
        if not self._walk:
            self._build_walk(basis)
        walk, rank = self._walk, self._rank
        positions = {rank[name] for name in chain(configs, fact_readers)}
        moved: Dict[str, JobTimeEstimate] = {}
        touched: Dict[int, None] = {}
        # A producer's reduce-task count or chaining moved (it is walked before its readers).
        facts_moved = False
        for position in sorted(positions):
            index, name, vertex, own, has_combiner, prior = walk[position]
            config = configs.get(name)
            rederive = facts_moved and name in fact_readers
            if config is None:
                if not rederive:
                    continue  # carried
            else:
                chaining_moved = config.chained_input != own.chained_input
                if chaining_moved or config.num_reduce_tasks != own.num_reduce_tasks:
                    facts_moved = True
                rederive = rederive or chaining_moved or (
                    has_combiner and config.combiner_enabled != own.combiner_enabled
                )
            if rederive:
                costed_vertex = self._cost_vertex(vertex, workflow, sizes, configs)
                if costed_vertex.output_contributions != prior.output_contributions:
                    return self.service.engine.run_costing(workflow, self._cost_vertex, configs)
                moved[name] = costed_vertex.estimate
            else:  # kept
                moved[name] = estimate_job_time(prior.dataflow, config, cluster)
            touched[index] = None

        per_job = dict(base.per_job)
        per_job.update(moved)
        makespans = list(basis.level_makespans)
        for index in touched:
            estimates = [per_job[vertex.job.name] for vertex in basis.levels[index]]
            makespans[index] = level_makespan(estimates, cluster)
        return WorkflowCostEstimate(total_s=left_sum(makespans), per_job=per_job, dataset_sizes=sizes)

    def _cost_vertex(self, vertex, workflow, sizes, configs) -> VertexCost:
        # Cache-aware drop-in for WhatIfEngine.cost_vertex, plugged into the
        # engine's shared run_costing traversal so the service cannot drift
        # from the cold path.  Hit or miss, the job model runs on the
        # configuration asked about: nothing here is per sample.
        service = self.service
        engine = service.engine
        signature = engine.vertex_dataflow_signature(vertex, workflow, sizes, configs)
        cached = service._cache.lookup(signature) if service.enabled else None
        if cached is not None:
            derived, entry_origin = cached
            if entry_origin != self._origin:
                self._cross_origin_hits += 1
        else:
            self._recosted.add(vertex.job.name)
            derived = engine.derive_vertex_dataflow(vertex, workflow, sizes, configs)
            service._store(signature, derived, self._origin)
        dataflow, contributions = derived
        estimate = estimate_job_time(dataflow, config_of(vertex, configs), service.cluster)
        return VertexCost(estimate, contributions, dataflow)
