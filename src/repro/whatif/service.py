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
* a candidate's RRS samples are configuration points costed in one
  :meth:`CostService.overlay` session, whose first answer is their base: the
  profile check, origin label, walk order and stats delta are paid once per
  candidate, and a sample walks only the jobs it overlays, the chained jobs
  whose chain source it overlays, and the *fact readers* they can reach
  (the jobs pruned on a hash-partitioned producer's output, whose partition
  count is that producer's reduce-task count) — no plan copy, and no
  signature or lookup for a job whose dataflow it cannot move; a point goes
  straight into the job model (:meth:`OverlaySession.objective`, the one
  sample entry), and ``JobConfig`` objects are built only where that walk
  re-derives a fact reader or starts over;
* each job a candidate's samples reach keeps the
  :class:`~repro.whatif.jobmodel.JobKernel` its base walk costed it with
  (:meth:`~repro.whatif.model.WhatIfEngine.job_estimate`, the job-model step
  of every walk) and gains one for its combiner-flipped dataflow, so each
  half of the job model runs once per distinct key it reads for the
  candidate's life, the base's own keys included;
* the cheap per-phase job model runs on the dataflow of every job whose
  configuration is asked about — a sample asks each kernel for the job's
  level terms (:meth:`~repro.whatif.jobmodel.JobKernel.terms`), and the
  makespan of every level holding one is summed again from the base's terms
  — so a sample's total is *exactly* the ``total_s`` of a cold full
  re-estimation (``docs/costing.md``, "Costing a sample").

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
candidate and the optimizer per run (a unit's activity is the sum over its
candidates); the counters are the basis of the ``whatif.service.*``
per-layer metrics of ``bench/run.py``.

Two features support the experiment orchestration layer
(:meth:`repro.experiments.harness.ExperimentHarness.run`):

* **origin attribution** — every cache entry is tagged with the ambient
  label (:func:`~repro.common.store.current_origin`) active when it was
  stored; a lookup served by an
  entry stored under a *different* label counts as a cross-origin hit
  (``CostServiceStats.cross_origin_hits``).  The experiment harness labels
  each (workload × optimizer) cell, so a cell's
  ``OptimizerRun.cost_stats.cross_origin_hits`` reports exactly how much it
  reaped from its neighbours or from a warm-started cache;
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
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.mapreduce.config import ConfigurationSpace, JobConfig, SettingSlots
from repro.whatif.jobmodel import JOB_MODEL_INPUTS, JobKernel, JobModelInputs, LevelTerms
from repro.whatif.model import COST_MODEL_VERSION, VertexCost, WhatIfEngine, WorkflowCostEstimate
from repro.whatif.model import ConfigOverlay
from repro.whatif.scheduling import level_makespan
from repro.workflow.graph import JobVertex, Workflow

#: An RRS sample: its values in its space's dimension order.
Point = Tuple[object, ...]

#: A job a sample's walk moved, and its level terms.
Moved = Tuple["_Job", LevelTerms]

#: Default bound on cached per-vertex dataflows; old entries are evicted LRU.
DEFAULT_MAX_CACHE_ENTRIES = 200_000

#: Cap on entries a forked worker ships back on merge-on-join; beyond this
#: the freshest entries win (export logs are append-ordered).
MAX_EXPORTED_ENTRIES = 20_000

#: On-disk layout version of persisted cache files; files written under a
#: different layout are rejected wholesale.  Version 3: one memo level — rows
#: are plain ``(dataflow signature, (JobDataflow, contributions), origin)``;
#: version-2 files held level-tagged 4-tuples.  Version 4 dropped the chained
#: map-task count (and the chaining flag) from the signature and from
#: ``JobDataflow``: it is a job-model input.
CACHE_FORMAT_VERSION = 4

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
      row, or its session's base result carried over or kept under the job
      model again (at most the cheap per-phase job model ran);
    * ``job_full_recosts`` — the job was derived and costed from scratch (and
      the derivation stored: one memo row per from-scratch derivation).

    ``fallback_queries`` counts profile-free queries answered by the trivial
    job-count model.  ``cross_origin_hits`` counts the hits *the LRU served*
    from a row stored under another origin label than the one active at
    lookup — another experiment cell's work, or a warm-started cache.
    """

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
    def overlay(self, workflow: Workflow) -> "OverlaySession":
        """A costing session (a context manager): many RRS points on one ``workflow``.

        The session's first answer (:meth:`OverlaySession.estimate`) is its
        base: it spares each later point the jobs the point cannot move and
        never changes an answer.  ``workflow`` must not be edited while the
        session is open; take a new session after an edit.  The session's
        counters reach the global stats and the attribution sinks when it
        closes, in one delta, whatever ends it.
        """
        return OverlaySession(self, workflow)

    def estimate_workflow(self, workflow: Workflow) -> WorkflowCostEstimate:
        """Estimate ``workflow``, reusing memoized per-job dataflows where valid:
        a session of one answer."""
        with self.overlay(workflow) as session:
            return session.estimate()

    def _model_version(self) -> int:
        # This module's binding, so a test (or a later PR) moving
        # ``repro.whatif.service.COST_MODEL_VERSION`` moves the stamp.
        return COST_MODEL_VERSION


class _Job:
    """One job of a session's base walk, resolved at the first sample that reaches it."""

    __slots__ = (
        "name", "vertex", "position", "level", "slot", "config", "inputs", "combiner",
        "has_combiner", "prior", "kernel", "fact_reader", "flipped",
    )

    def __init__(
        self, position: int, level: int, slot: int, vertex: JobVertex, prior: VertexCost,
        fact_reader: bool,
    ) -> None:
        job = vertex.job
        self.name = job.name
        self.vertex = vertex
        # Its index in the walk, its level's index, and its index in that level.
        self.position, self.level, self.slot = position, level, slot
        self.config = job.config
        self.combiner = job.config.combiner_enabled
        self.has_combiner = job.has_combiner
        self.prior = prior  # the base's result
        #: The base walk's job model of the base's dataflow, memoized for the
        #: session, and what it read: the job's settings, then its chained
        #: map-task count.
        self.kernel: JobKernel = prior.kernel
        self.inputs: JobModelInputs = prior.inputs
        self.fact_reader = fact_reader
        #: With its combiner flipped: ``(kernel, contributions, origin of the
        #: memo row that answered)``, once asked (``_flipped``).
        self.flipped: Optional[Tuple[JobKernel, Tuple, str]] = None


class OverlaySession:
    """One :meth:`CostService.overlay` session (``docs/costing.md``, "Costing a sample").

    :meth:`estimate` answers for the workflow as it is; its first answer is
    the session's base.  :meth:`objective` costs RRS points: a point walks
    only the jobs it overlays, the chained jobs whose count it moves and the
    base's fact readers, in the base's walk order (:meth:`_walk`): each is
    *carried*, *kept* (the base's dataflow under the job model again) or
    *re-derived*, and if a re-derived job's output sizes differ the point
    starts over as a full walk.
    """

    def __init__(self, service: CostService, workflow: Workflow) -> None:
        self.service = service
        self.workflow = workflow
        self.delta = CostServiceStats()
        self._origin = current_origin()
        self._profiled = all(vertex.annotations.has_profile for vertex in workflow.jobs)
        self._base: Optional[WorkflowCostEstimate] = None
        #: The base's walk, built at the first sample: each job's (position,
        #: level index, index in its level, vertex) by name, and the jobs
        #: resolved so far.
        self._rank: Dict[str, Tuple[int, int, int, JobVertex]] = {}
        self._jobs: Dict[str, _Job] = {}
        self._recosted: Set[str] = set()
        self._cross_origin_hits = 0

    def __enter__(self) -> "OverlaySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.service._apply_delta(self.delta)  # whatever ends the session

    def _walk_rank(self) -> Dict[str, Tuple[int, int, int, JobVertex]]:
        # The base's walk, built at the first sample.
        if not self._rank:
            for index, level in enumerate(self._base.basis.levels):
                for slot, vertex in enumerate(level):
                    self._rank[vertex.job.name] = (len(self._rank), index, slot, vertex)
        return self._rank

    def _job(self, name: str) -> _Job:
        job = self._jobs.get(name)
        if job is None:
            basis = self._base.basis
            position, level, slot, vertex = self._walk_rank()[name]
            job = self._jobs[name] = _Job(
                position, level, slot, vertex, basis.costed[name], name in basis.fact_readers
            )
        return job

    def estimate(self) -> WorkflowCostEstimate:
        """What the workflow costs: ``==`` a cold estimate."""
        fault_site("whatif.estimate", jobs=self.workflow.num_jobs)
        return self._answer({})

    def objective(
        self, space: ConfigurationSpace, tuned: Iterable[Tuple[str, Sequence[Tuple[int, str]]]]
    ) -> Callable[[Point], float]:
        """``point -> total_s`` over the points of ``space``: the RRS objective of a candidate.

        ``tuned`` names each job with the ``(dimension index, setting)`` pairs
        it reads from a point.  A point costs the ``total_s`` a cold estimate
        answers for the workflow with the overlay ``JobConfig.with_values``
        binds from it, and is counted and fault-visited as one query; only
        the total is built.  A sample takes a point's values as they are, so
        a point must lie inside ``space``, and ``space`` must be one whose
        points ``with_values`` keeps as is: a ``ValueError`` names the first
        dimension a tuned setting reads that is not (an int dimension whose
        low is below the setting's floor, or a flag setting on a non-bool
        dimension).  Without a base (no :meth:`estimate` yet, or a
        workflow that cannot give one) each point is a full walk.
        Resolved once: each tuned job's place in the base walk, its setting
        slots (a constraint-held reduce count left out), and where each of
        the job model's values comes from (the point, or the job's own
        config) — a chained job's map-task count from its chain source's
        reduce-task slot, so a chained job under a tuned source is walked
        too, tuned or not.  A sample reads those values straight into each
        job's :class:`~repro.whatif.jobmodel.JobKernel`; it builds
        ``JobConfig``\\ s only when its walk re-derives a fact reader or
        starts over.
        """
        workflow = self.workflow
        jobs = workflow.num_jobs
        tuned = [(name, workflow.job(name).job.config, pairs) for name, pairs in tuned]
        slots = {name: config.setting_slots(pairs) for name, config, pairs in tuned}
        for held in slots.values():
            for index, setting, floor in held:
                dimension = space.dimensions[index]
                if floor is None:
                    kept = dimension.kind == "bool"
                else:
                    kept = dimension.kind == "int" and dimension.low >= floor
                if not kept:
                    raise ValueError(
                        f"dimension {dimension.name!r} holds values JobConfig.with_values "
                        f"would change for {setting!r}: a sample takes a point as it is"
                    )

        if self._base is None:

            def walked(point: Point) -> float:
                fault_site("whatif.estimate", jobs=jobs)
                return self._answer(self._bind(point, slots, slots)).total_s

            return walked

        # A sample reads each walked job's kernel inputs and combiner flag from
        # ``point + own``: from its slots, or from ``own``, its values no slot sets.
        width = len(space.dimensions)
        own: List[object] = []
        at = {name: {setting: index for index, setting, _ in slots[name]} for name, _, _ in tuned}
        basis = self._base.basis
        for name in basis.chained:
            # The count is the chain source's reduce-task count: where a slot
            # sets that, the chained job is walked too, tuned or not.
            source = self.service.engine.chain_source(workflow.job(name), workflow)
            slot = None if source is None else at.get(source.name, {}).get("num_reduce_tasks")
            if slot is not None:
                at.setdefault(name, {})["chained_map_tasks"] = slot
        order = {}
        read = (*JOB_MODEL_INPUTS, "combiner_enabled")
        for name, places in at.items():
            job = self._job(name)
            for setting, value in zip(read, (*job.inputs, job.combiner)):
                if setting not in places:
                    places[setting] = width + len(own)
                    own.append(value)
            pick = itemgetter(*(places[setting] for setting in JOB_MODEL_INPUTS))
            order[name] = (job, pick, places["combiner_enabled"])
        own = tuple(own)
        for name in basis.fact_readers:
            order.setdefault(name, (self._job(name), None, None))
        order = sorted(order.values(), key=lambda entry: entry[0].position)  # walk order

        def sample(point: Point) -> float:
            fault_site("whatif.estimate", jobs=jobs)
            values = point + own
            steps = []
            for job, pick, combiner_at in order:
                if pick is not None:
                    inputs = pick(values)
                    combiner = values[combiner_at]
                    if inputs != job.inputs or combiner != job.combiner:
                        steps.append((job, inputs, combiner))
                        continue
                if job.fact_reader:
                    steps.append((job, None, None))
            self._recosted = set()
            self._cross_origin_hits = 0
            total = self._walk(
                steps, lambda: self._bind(point, slots, [step[0].name for step in steps if step[1]])
            )
            self._credit(jobs)
            return total

        return sample

    def _bind(
        self, point: Point, slots: Dict[str, SettingSlots], names: Iterable[str]
    ) -> Dict[str, JobConfig]:
        # The overlay ``point`` binds on ``names``: JobConfig.with_values, as
        # applying the point to the plan would bind it.  A name without slots
        # (a chained job walked for its source's count) binds nothing.
        configs = {}
        for name in names:
            if name not in slots:
                continue
            own = self.workflow.job(name).job.config
            config = own.with_values(point, slots[name])
            if config is not own:
                configs[name] = config
        return configs

    def _answer(self, configs: Dict[str, JobConfig]) -> WorkflowCostEstimate:
        # A full walk with ``configs`` bound (``_bind``), or the base.
        workflow = self.workflow
        if not self._profiled:
            self.delta.queries += 1
            self.delta.fallback_queries += 1
            return self.service.engine.job_count_estimate(workflow)

        self._recosted = set()  # by name: a sample that starts over meets its jobs twice
        self._cross_origin_hits = 0
        estimate = self._base
        if estimate is None or configs:
            estimate = self.service.engine.run_costing(workflow, self._cost_vertex, configs)
            if estimate.basis is not None:  # an overlay-free answer that can be one
                self._base = estimate
        self._credit(len(estimate.per_job))
        return estimate

    def _credit(self, jobs: int) -> None:
        # One query over ``jobs`` jobs; a hit is answered without a derivation
        # (a memo row, or the base's result).
        delta = self.delta
        recosted = len(self._recosted)
        delta.queries += 1
        delta.job_queries += jobs
        delta.job_full_recosts += recosted
        delta.job_cache_hits += jobs - recosted
        if jobs == recosted:
            delta.full_estimates += 1
        delta.cross_origin_hits += self._cross_origin_hits

    def _walk(
        self, steps: List[Tuple[_Job, Optional[JobModelInputs], Optional[bool]]],
        materialise: Callable[[], Dict[str, JobConfig]],
    ) -> float:
        """The one walk of a sample: its total, from the moved jobs or a full walk.

        ``steps`` are ``(job, kernel inputs, combiner flag)`` the sample
        binds, in the base's walk order; a fact reader it does not move comes
        as ``(job, None, None)``.  Only a fact reader's dataflow reads another
        job's configuration (its producer's reduce-task count), so only a
        fact reader is re-derived for what the walk met before it; a chained
        job's count is one of its kernel inputs.
        ``materialise()`` is the sample's overlay as ``JobConfig``\\ s: asked
        only to re-derive a fact reader or to start over.  A moved job's
        level terms are what :meth:`_total` sums (:data:`Moved`).
        """
        workflow = self.workflow
        sizes = self._base.dataset_sizes
        configs = None
        moved = []
        # A producer's reduce-task count moved (it is walked before its readers).
        facts_moved = False
        for job, inputs, combiner in steps:
            rederive = facts_moved and job.fact_reader
            flipped = False
            if inputs is None:
                if not rederive:
                    continue  # carried
            else:
                if inputs[0] != job.inputs[0]:
                    facts_moved = True
                flipped = job.has_combiner and combiner != job.combiner
                rederive = rederive or (flipped and job.fact_reader)
            if rederive:
                if configs is None:
                    configs = materialise()
                costed_vertex = self._cost_vertex(job.vertex, workflow, sizes, configs)
                contributions = costed_vertex.output_contributions
                terms = costed_vertex.kernel.terms(costed_vertex.inputs)
            elif flipped:
                kernel, contributions = self._flipped(job)
                terms = kernel.terms(inputs)
            else:  # kept
                moved.append((job, job.kernel.terms(inputs)))
                continue
            if contributions != job.prior.output_contributions:
                if configs is None:
                    configs = materialise()
                return self.service.engine.run_costing(workflow, self._cost_vertex, configs).total_s
            moved.append((job, terms))
        return self._total(moved)

    def _total(self, moved: List[Moved]) -> float:
        # The base's per-level makespans, those of the levels ``moved`` touched summed again.
        base = self._base
        if not moved:
            return base.total_s
        basis = base.basis
        touched: Dict[int, List[LevelTerms]] = {}
        for job, terms in moved:
            level = touched.get(job.level)
            if level is None:
                level = touched[job.level] = basis.terms[job.level].copy()
            level[job.slot] = terms
        makespans = basis.level_makespans.copy()
        for index, level in touched.items():
            makespans[index] = level_makespan(level, self.service.cluster)
        return left_sum(makespans)

    def _flipped(self, job: _Job) -> Tuple[JobKernel, Tuple[Tuple[str, float, float], ...]]:
        """The job model of ``job``'s dataflow with its combiner flipped, and its contributions.

        ``job`` is no fact reader (its dataflow reads no other job's
        configuration; a chained job's count is a kernel input) and the
        base's sizes are fixed, so within a session there is one such
        derivation: the first flip takes the signature → memo → derive step,
        and a later one is credited as that memo row answering it would be —
        a hit, cross-origin by the row's origin — and reuses its kernel.  (A
        disabled memo answers nothing: every flip derives.)
        """
        if job.flipped is not None:
            kernel, contributions, origin = job.flipped
            if origin != self._origin:
                self._cross_origin_hits += 1
            return kernel, contributions
        sizes = self._base.dataset_sizes
        configs = {job.name: job.config.replace(combiner_enabled=not job.combiner)}
        engine = self.service.engine
        signature = engine.vertex_dataflow_signature(job.vertex, self.workflow, sizes, configs)
        (dataflow, contributions), origin = self._derived(signature, job.vertex, sizes, configs)
        kernel = JobKernel(dataflow, self.service.cluster)
        if self.service.enabled:
            job.flipped = (kernel, contributions, origin)
        return kernel, contributions

    def _cost_vertex(self, vertex, workflow, sizes, configs) -> VertexCost:
        # Cache-aware drop-in for WhatIfEngine.cost_vertex, plugged into the
        # engine's shared run_costing traversal so the service cannot drift
        # from the cold path.  Hit or miss, the job model runs on the
        # configuration asked about: nothing here is per sample.
        engine = self.service.engine
        signature = engine.vertex_dataflow_signature(vertex, workflow, sizes, configs)
        (dataflow, contributions), _ = self._derived(signature, vertex, sizes, configs)
        return engine.job_estimate(vertex, workflow, dataflow, contributions, configs)

    def _derived(
        self, signature: Tuple, vertex: JobVertex, sizes, configs: ConfigOverlay
    ) -> Tuple[Tuple, str]:
        # The memo row of ``signature`` and its origin, or the derivation it
        # stands for, stored under this session's origin.
        service = self.service
        cached = service._cache.lookup(signature) if service.enabled else None
        if cached is not None:
            derived, origin = cached
            if origin != self._origin:
                self._cross_origin_hits += 1
            return derived, origin
        self._recosted.add(vertex.job.name)
        derived = service.engine.derive_vertex_dataflow(vertex, self.workflow, sizes, configs)
        service._store(signature, derived, self._origin)
        return derived, self._origin

