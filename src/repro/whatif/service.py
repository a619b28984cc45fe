"""Incremental, memoized, concurrency-safe cost estimation over the What-if engine.

Stubby's practicality hinges on enumeration being cheap relative to what-if
costing (paper §4–§5): the search costs the *full* workflow for every RRS
sample of every candidate subplan of every optimization unit, even though one
sample only perturbs a handful of jobs.  :class:`CostService` owns every cost
query of the optimizer stack and makes them incremental:

* each job vertex is keyed by a structural cost signature
  (:meth:`~repro.whatif.model.WhatIfEngine.vertex_cost_signature`: pipelines +
  configuration + profile content + input-size vector + the producer facts the
  job model actually reads), so unchanged jobs are served from a cache;
* only the mutated jobs — and downstream jobs whose input sizes or
  producer-dependent facts actually changed — are re-costed;
* the per-level makespan combination is recomputed from the (cheap) per-job
  estimates, so the returned :class:`~repro.whatif.model.WorkflowCostEstimate`
  is *exactly* equal to a cold full re-estimation.

The service is a :class:`~repro.common.store.ShardedStore` with two levels
(estimates and dataflow derivations), so it is safe to share across the
request and experiment-cell pools (:mod:`repro.core.parallel`): locked LRU levels, atomic
stats with thread-local attribution sinks (:meth:`CostService.attribute_to`,
:func:`~repro.common.store.attributed`), and export-log / merge-on-join for
forked workers — see :mod:`repro.common.store` for the model.

The service keeps :class:`CostServiceStats` (queries, cache hits, re-costed
jobs, effectively-full estimations) that the search surfaces per candidate,
per optimization unit, and per optimizer run; the counters are the basis of
the ``whatif.service.*`` per-layer metrics of ``bench/run.py``.

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
  cluster warm-starts instead of recomputing.  Saves can **compact**:
  ``save_cache(max_entries=...)`` (or the ``STUBBY_COST_CACHE_MAX_ENTRIES``
  environment variable) writes only the most-recently-used entries,
  bounding long-lived cache files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import zip_longest
from typing import ClassVar, List, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.common.faults import fault_site
from repro.common.store import (  # noqa: F401  (CacheLoadReport, cluster_cache_key: re-exports)
    CacheLoadReport,
    CounterStats,
    ShardedLRU,
    ShardedStore,
    cluster_cache_key,
    current_origin,
)
from repro.whatif.jobmodel import estimate_job_time
from repro.whatif.model import COST_MODEL_VERSION, VertexCost, WhatIfEngine, WorkflowCostEstimate
from repro.workflow.graph import Workflow

#: Default bound on cached per-vertex estimates; old entries are evicted LRU.
DEFAULT_MAX_CACHE_ENTRIES = 200_000

#: Cap on entries a forked worker ships back on merge-on-join; beyond this
#: the freshest entries win (export logs are append-ordered).
MAX_EXPORTED_ENTRIES = 20_000

#: On-disk layout version of persisted cache files; files written under a
#: different layout are rejected wholesale.  Version 2: the cached value
#: classes (:class:`~repro.whatif.model.VertexCost`,
#: :class:`~repro.whatif.jobmodel.JobTimeEstimate`, ...) moved to
#: ``__slots__`` layouts, which version-1 pickles cannot restore into.
CACHE_FORMAT_VERSION = 2

#: Environment variable naming a persisted-cache path; consulted by
#: :meth:`CostService.ensure` when no explicit path is configured, so a whole
#: stack (harness, benchmarks, examples) can opt into warm-starting from the
#: outside.
CACHE_PATH_ENV_VAR = "STUBBY_COST_CACHE"

#: Environment variable bounding how many entries :meth:`CostService.save_cache`
#: writes when the caller passes no explicit ``max_entries`` — the compaction
#: knob that keeps long-lived ``STUBBY_COST_CACHE`` files from growing without
#: bound.  Empty/absent means "write everything".
CACHE_MAX_ENTRIES_ENV_VAR = "STUBBY_COST_CACHE_MAX_ENTRIES"


def resolve_cache_max_entries(max_entries: Optional[int]) -> Optional[int]:
    """Normalize the save-compaction bound: explicit argument, else environment.

    ``None`` consults :data:`CACHE_MAX_ENTRIES_ENV_VAR`; a missing, empty, or
    malformed value means "no bound".  Non-positive bounds are treated as
    "no bound" as well — an empty persisted cache is never useful.
    """
    if max_entries is None:
        raw = os.environ.get(CACHE_MAX_ENTRIES_ENV_VAR, "").strip()
        if not raw:
            return None
        try:
            max_entries = int(raw)
        except ValueError:
            return None
    return max_entries if max_entries > 0 else None


@dataclass
class CostServiceStats(CounterStats):
    """Counters describing how much what-if work the service performed.

    ``queries`` counts workflow-level estimate requests — exactly the number
    of full-workflow what-if computations a non-incremental engine would have
    performed.  ``full_estimates`` counts the queries that could not reuse
    *anything*: no cached job estimate and no cached dataflow derivation,
    i.e. the computations that really were full.

    Job-granularity counters: every query looks up each job once
    (``job_queries``).  A lookup is served one of three ways —

    * ``job_cache_hits`` — the final estimate itself was cached (nothing
      recomputed);
    * ``job_dataflow_hits`` — the expensive dataflow derivation was cached
      and only the cheap per-phase job model re-ran (a configuration sample
      moved job-model-only knobs such as reduce tasks or buffer sizes);
    * ``job_full_recosts`` — the job was derived and costed from scratch.

    ``fallback_queries`` counts profile-free queries answered by the trivial
    job-count model (neither cached nor worth caching).

    ``cross_origin_hits`` counts the cache hits (at either level) served by
    an entry stored under a different origin label than the one active at
    lookup time — e.g. a hit on another experiment cell's
    work, or on a warm-started persisted cache.
    """

    DERIVED: ClassVar[Tuple[str, ...]] = ("effective_full_estimates", "cache_hit_rate", "reuse_rate")

    queries: int = 0
    fallback_queries: int = 0
    full_estimates: int = 0
    job_queries: int = 0
    job_cache_hits: int = 0
    job_dataflow_hits: int = 0
    job_full_recosts: int = 0
    cross_origin_hits: int = 0

    @property
    def job_cache_misses(self) -> int:
        """Lookups whose final estimate had to be recomputed."""
        return self.job_dataflow_hits + self.job_full_recosts

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of job lookups whose estimate was served from the cache."""
        if self.job_queries == 0:
            return 0.0
        return self.job_cache_hits / self.job_queries

    @property
    def reuse_rate(self) -> float:
        """Fraction of job lookups that reused cached work at either level."""
        if self.job_queries == 0:
            return 0.0
        return (self.job_cache_hits + self.job_dataflow_hits) / self.job_queries

    @property
    def jobs_recosted(self) -> int:
        """Jobs whose estimate was recomputed (at either level)."""
        return self.job_cache_misses

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
    plans are copy-on-write clones whose unchanged vertices are *shared
    objects*, so their signatures come from the engine's identity memo, and
    the content-based keys make even privatized copies cache-transparent.
    See :mod:`repro.common.store` for the concurrency model.

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

    def __init__(
        self,
        cluster: ClusterSpec,
        engine: Optional[WhatIfEngine] = None,
        max_cache_entries: int = DEFAULT_MAX_CACHE_ENTRIES,
        enable_cache: bool = True,
        cache_path: Optional[str] = None,
    ) -> None:
        self.engine = engine or WhatIfEngine(cluster)
        #: Coarse cache: dataflow signature -> (JobDataflow, contributions);
        #: reused when only job-model config knobs moved.  (The inherited
        #: ``_cache`` is the fine one: full vertex signature -> VertexCost.)
        #: Built first: the base constructor may warm-start into it.
        self._dataflow_cache = ShardedLRU(max_cache_entries)
        super().__init__(cluster, max_cache_entries, enabled=enable_cache, cache_path=cache_path)

    # ------------------------------------------------------------------ API
    def estimate_workflow(self, workflow: Workflow) -> WorkflowCostEstimate:
        """Estimate ``workflow``, reusing cached per-job work where valid."""
        fault_site("whatif.estimate", jobs=len(workflow.jobs))
        delta = CostServiceStats(queries=1)
        if any(not vertex.annotations.has_profile for vertex in workflow.jobs):
            delta.fallback_queries = 1
            self._apply_delta(delta)
            return self.engine.job_count_estimate(workflow)

        # Per-query tallies:
        # [estimate hits, dataflow hits, full recosts, cross-origin hits].
        tallies = [0, 0, 0, 0]
        origin = current_origin()
        estimate = self.engine.run_costing(
            workflow,
            lambda vertex, wf, sizes: self._cost_vertex_cached(vertex, wf, sizes, tallies, origin),
        )

        estimate_hits, dataflow_hits, full_recosts, cross_origin = tallies
        delta.job_queries = estimate_hits + dataflow_hits + full_recosts
        delta.job_cache_hits = estimate_hits
        delta.job_dataflow_hits = dataflow_hits
        delta.job_full_recosts = full_recosts
        delta.cross_origin_hits = cross_origin
        if estimate_hits == 0 and dataflow_hits == 0:
            delta.full_estimates = 1
        self._apply_delta(delta)
        return estimate

    def _cost_vertex_cached(self, vertex, workflow, sizes, tallies, origin) -> VertexCost:
        """Cache-aware drop-in for :meth:`WhatIfEngine.cost_vertex`.

        Plugged into the engine's shared :meth:`~WhatIfEngine.run_costing`
        traversal, so the service cannot drift from the cold path.
        """
        engine = self.engine
        dataflow_sig = engine.vertex_dataflow_signature(vertex, workflow, sizes)
        full_sig = (dataflow_sig, engine.jobmodel_config_key(vertex.job.config))
        enabled = self.enabled
        cached = self._cache.lookup(full_sig) if enabled else None
        if cached is not None:
            costed, entry_origin = cached
            tallies[0] += 1
            if entry_origin != origin:
                tallies[3] += 1
            return costed
        cached = self._dataflow_cache.lookup(dataflow_sig) if enabled else None
        if cached is not None:
            derived, entry_origin = cached
            tallies[1] += 1
            if entry_origin != origin:
                tallies[3] += 1
        else:
            tallies[2] += 1
            derived = engine.derive_vertex_dataflow(vertex, workflow, sizes)
            self._store(dataflow_sig, derived, origin, self._dataflow_cache, ("dataflow",))
        dataflow, contributions = derived
        estimate = estimate_job_time(dataflow, vertex.job.config, self.cluster)
        costed = VertexCost(estimate=estimate, output_contributions=contributions)
        self._store(full_sig, costed, origin, self._cache, ("estimate",))
        return costed

    def estimate_plan(self, plan) -> WorkflowCostEstimate:
        """Convenience: estimate a :class:`~repro.core.plan.Plan`'s workflow."""
        return self.estimate_workflow(plan.workflow)

    # ------------------------------------------- two-level rows + compaction
    def _level(self, level: str) -> ShardedLRU:
        return self._cache if level == "estimate" else self._dataflow_cache

    def absorb_entries(self, entries: List[Tuple[str, Tuple, object, object]]) -> None:
        """Merge ``(level, signature, value, origin)`` rows into both levels."""
        if not self.enabled:
            return
        for level, signature, value, origin in entries:
            self._level(level).store(signature, value, origin)

    def _valid_row(self, row) -> bool:
        return (
            isinstance(row, tuple)
            and len(row) == 4
            and row[0] in ("estimate", "dataflow")
            and isinstance(row[1], tuple)
        )

    def _model_version(self) -> int:
        # This module's binding, so a test (or a later PR) moving
        # ``repro.whatif.service.COST_MODEL_VERSION`` moves the stamp.
        return COST_MODEL_VERSION

    def save_cache(
        self,
        path: Optional[str] = None,
        max_entries: Optional[int] = None,
        merge_first: bool = False,
    ) -> int:
        """Persist both cache levels; see :meth:`ShardedStore.save_cache`.

        ``max_entries`` (default: the ``STUBBY_COST_CACHE_MAX_ENTRIES``
        environment variable; unset means unbounded) **compacts on persist**:
        only the most-recently-used entries are written, so a long-lived
        cache file stops growing without bound across runs.  A compacted
        file is an ordinary cache file — loading it is just a smaller warm
        start.
        """
        return super().save_cache(
            path, merge_first, max_entries=resolve_cache_max_entries(max_entries)
        )

    def _entries_snapshot(
        self, max_entries: Optional[int] = None
    ) -> List[Tuple[str, Tuple, object, object]]:
        """Both cache levels as the plain rows :meth:`absorb_entries` accepts.

        With ``max_entries`` set, keeps only the most-recently-used rows.
        Each level keeps its own exact LRU→MRU order (an estimate hit never
        touches the dataflow level), so the bound is filled from the two MRU
        tails alternately.  Rows are returned oldest-first either way, so a
        later :meth:`absorb_entries` re-establishes the same relative recency.
        """
        levels = [
            [(level, *row) for row in self._level(level).items()]
            for level in ("estimate", "dataflow")
        ]
        if max_entries is None or sum(map(len, levels)) <= max_entries:
            return [row for rows in levels for row in rows]
        newest_first = [
            row
            for pair in zip_longest(*map(reversed, levels))
            for row in pair
            if row is not None
        ]
        kept = newest_first[:max_entries]
        kept.reverse()
        return kept

    def invalidate(self) -> None:
        """Drop every cached per-job estimate and dataflow (stats are kept)."""
        self._cache.clear()
        self._dataflow_cache.clear()
