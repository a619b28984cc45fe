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
* an RRS sample is costed as a configuration overlay on the candidate's
  baseline estimate (``estimate_workflow(workflow, configs, base)``): no plan
  copy, and no signature or lookup for a job whose dataflow it cannot move;
* the cheap per-phase job model (``estimate_job_time``) runs on the dataflow
  of every job whose configuration is asked about, and the makespan of every
  level holding one is recomputed, so the returned
  :class:`~repro.whatif.model.WorkflowCostEstimate` is *exactly* equal to a
  cold full re-estimation.

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
from typing import ClassVar, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.common.faults import fault_site
from repro.common.store import (  # noqa: F401  (CacheLoadReport, cluster_cache_key: re-exports)
    CacheLoadReport,
    CounterStats,
    ShardedStore,
    cluster_cache_key,
    current_origin,
)
from repro.whatif.jobmodel import estimate_job_time
from repro.whatif.model import COST_MODEL_VERSION, VertexCost, WhatIfEngine, WorkflowCostEstimate
from repro.whatif.model import ConfigOverlay, config_of
from repro.workflow.graph import Workflow

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

#: Environment variable naming a persisted-cache path; consulted by
#: :meth:`CostService.ensure` when no explicit path is configured, so a whole
#: stack (harness, benchmarks, examples) can opt into warm-starting from the
#: outside.
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
    plans are copies whose unchanged vertices are *shared objects*, so their
    signatures come from the engine's identity memo, and the content-based
    keys make even rebound vertices cache-transparent.
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
        engine: Optional[WhatIfEngine] = None,
        max_cache_entries: int = DEFAULT_MAX_CACHE_ENTRIES,
        enable_cache: bool = True,
        cache_path: Optional[str] = None,
    ) -> None:
        self.engine = engine or WhatIfEngine(cluster)
        super().__init__(cluster, max_cache_entries, enabled=enable_cache, cache_path=cache_path)

    # ------------------------------------------------------------------ API
    def estimate_workflow(
        self,
        workflow: Workflow,
        configs: ConfigOverlay = None,
        base: Optional[WorkflowCostEstimate] = None,
    ) -> WorkflowCostEstimate:
        """Estimate ``workflow``, reusing memoized per-job dataflows where valid.

        ``configs`` (job name -> ``JobConfig``) asks what ``workflow`` would
        cost with those bound, without the plan copy.  ``base``, an estimate
        of the same ``workflow`` without ``configs``, spares the jobs the overlay
        cannot move (:meth:`WhatIfEngine.run_costing`) and never changes the
        answer.  It answers for the vertices it snapshotted: once ``workflow``
        rebinds, adds or removes one it is ignored — take a fresh base after
        every edit of the plan.
        """
        fault_site("whatif.estimate", jobs=workflow.num_jobs)
        delta = CostServiceStats(queries=1)
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
        if not all(vertex.annotations.has_profile for vertex in workflow.jobs):
            delta.fallback_queries = 1
            self._apply_delta(delta)
            return self.engine.job_count_estimate(workflow, configs)

        engine = self.engine
        cluster = self.cluster
        enabled = self.enabled
        origin = current_origin()
        recosted = set()  # by name: a query that starts over meets its jobs twice

        def cost_vertex(vertex, workflow, sizes, configs) -> VertexCost:
            # Cache-aware drop-in for WhatIfEngine.cost_vertex, plugged into
            # the engine's shared run_costing traversal so the service cannot
            # drift from the cold path.  Hit or miss, the job model runs on
            # the configuration asked about: nothing here is per sample.
            signature = engine.vertex_dataflow_signature(vertex, workflow, sizes, configs)
            cached = self._cache.lookup(signature) if enabled else None
            if cached is not None:
                derived, entry_origin = cached
                if entry_origin != origin:
                    delta.cross_origin_hits += 1
            else:
                recosted.add(vertex.job.name)
                derived = engine.derive_vertex_dataflow(vertex, workflow, sizes, configs)
                self._store(signature, derived, origin)
            dataflow, contributions = derived
            estimate = estimate_job_time(dataflow, config_of(vertex, configs), cluster)
            return VertexCost(estimate, contributions, dataflow)

        estimate = engine.run_costing(workflow, cost_vertex, configs, base)
        # A hit: answered without a derivation (a memo row, or the base's result).
        delta.job_queries = len(estimate.per_job)
        delta.job_full_recosts = len(recosted)
        delta.job_cache_hits = delta.job_queries - delta.job_full_recosts
        if delta.job_cache_hits == 0:
            delta.full_estimates = 1
        self._apply_delta(delta)
        return estimate

    def estimate_plan(self, plan) -> WorkflowCostEstimate:
        """Convenience: estimate a :class:`~repro.core.plan.Plan`'s workflow."""
        return self.estimate_workflow(plan.workflow)

    def _model_version(self) -> int:
        # This module's binding, so a test (or a later PR) moving
        # ``repro.whatif.service.COST_MODEL_VERSION`` moves the stamp.
        return COST_MODEL_VERSION
