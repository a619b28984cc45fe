"""Harness running the paper's evaluation end to end.

For one workload the harness:

1. builds the workload (MB-scale data with paper-scale logical sizes);
2. profiles the unoptimized workflow to produce profile annotations;
3. runs every requested optimizer on the same annotated plan;
4. executes every optimized plan on the local engine, checks that its output
   is equivalent to the unoptimized plan's output, and converts the measured
   counters into the simulated "actual" cluster runtime;
5. reports speedups relative to the Baseline, plus optimizer overheads.

Figure 11 uses the {Baseline, Stubby, Vertical, Horizontal} optimizer set,
Figure 12 the {Baseline, Stubby, Starfish, YSmart, MRShare} set, Figure 13
the optimization times, and Figure 14 the per-subplan deep dive of the first
optimization unit of the Information Retrieval workload.

Two entry points cover the two evaluation styles:

* :meth:`ExperimentHarness.compare` — one workload, optimizers run one at a
  time, each from a cold cache, so the per-optimizer timings and what-if
  counters are standalone (the Figures 11–13 requirement);
* :meth:`ExperimentHarness.run` — a whole experiment at once: every
  (workload × optimizer) **cell** is dispatched through the
  :class:`~repro.experiments.scheduler.ExperimentScheduler` onto a pool
  (``run(backend=)``, a spec string, ``"serial"`` by default — the one
  fan-out level; each cell's search is serial), all cells sharing the harness's
  :class:`CostService` so cross-cell hits are reaped (surfaced as
  ``OptimizerRun.cost_stats.cross_origin_hits``), and — when a
  ``cache_path`` is configured — the signature→estimate store persists
  across runs, so a repeated experiment warm-starts instead of recomputing.

The harness is one of the two owners that persist its stores (the planning
server is the other), so it resolves the stores' ``STUBBY_*`` path
variables; the optimizers it builds read none.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines import make_optimizer
from repro.cluster import ClusterSpec
from repro.common.records import diff_record_multisets
from repro.common.store import (
    ShardedStore,
    attributed,
    current_origin,
    persist as persist_stores,
    resolve_env_path,
)
from repro.core.decision_cache import DecisionCache, DecisionCacheStats
from repro.core.optimizer import OptimizationResult, StubbyOptimizer
from repro.core.subresults import (
    SubResultCatalog,
    SubResultCatalogStats,
    register_workflow_outputs,
)
from repro.core.optimization_unit import OptimizationUnitGenerator
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.experiments.scheduler import ExperimentCell, ExperimentScheduler, build_cells
from repro.profiler import Profiler
from repro.whatif import ActualCostModel, CostService, CostServiceStats
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import WORKLOAD_ORDER, build_workload
from repro.workloads.base import Workload


@dataclass
class OptimizerRun:
    """Result of running one optimizer on one workload."""

    optimizer: str
    num_jobs: int
    actual_s: float
    estimated_s: float
    optimization_time_s: float
    output_equivalent: bool
    transformations: List[str] = field(default_factory=list)
    #: Sub-result reuse rewrites recorded in the final plan.
    subresult_reuse_applications: int = 0
    #: The optimizer run's exact delta on each shared store
    #: (:class:`~repro.core.optimizer.OptimizationResult`'s ledgers): what-if
    #: queries and memo hits for Figure 13, unit searches skipped, catalog
    #: hits and jobs eliminated.  ``cross_origin_hits`` on each counts what
    #: this cell reaped from another cell, run or persisted file.  Deliberately
    #: *not* part of :meth:`decision_fingerprint`: warmth changes counts,
    #: never plans.
    cost_stats: CostServiceStats = field(default_factory=CostServiceStats)
    decision_stats: DecisionCacheStats = field(default_factory=DecisionCacheStats)
    subresult_stats: SubResultCatalogStats = field(default_factory=SubResultCatalogStats)

    def speedup_over(self, baseline: "OptimizerRun") -> float:
        """Speedup of this run's actual runtime over the baseline's."""
        if self.actual_s <= 0:
            return 0.0
        return baseline.actual_s / self.actual_s

    def decision_fingerprint(self) -> Tuple:
        """The run's *results* as comparable plain data.

        Everything the experiment decided or measured deterministically —
        and nothing that legitimately varies between equivalent runs: wall
        clock (``optimization_time_s``) and cache-placement stats (hit
        rates change with interleaving and warmth; the *results* must not).
        The orchestration identity contract is stated over this value.
        """
        return (
            self.optimizer,
            self.num_jobs,
            self.actual_s,
            self.estimated_s,
            self.output_equivalent,
            tuple(self.transformations),
        )


@dataclass
class WorkloadComparison:
    """All optimizer runs for one workload."""

    abbreviation: str
    name: str
    paper_dataset_gb: float
    unoptimized_jobs: int
    runs: Dict[str, OptimizerRun] = field(default_factory=dict)

    @property
    def baseline(self) -> OptimizerRun:
        """The Baseline run (reference for speedups)."""
        return self.runs["Baseline"]

    def speedup(self, optimizer: str) -> float:
        """Speedup of ``optimizer`` over the Baseline."""
        return self.runs[optimizer].speedup_over(self.baseline)

    def speedups(self) -> Dict[str, float]:
        """Speedups of every optimizer over the Baseline."""
        return {name: self.speedup(name) for name in self.runs}


@dataclass
class ExperimentRunResult:
    """Outcome of one orchestrated :meth:`ExperimentHarness.run`."""

    #: Per-workload comparisons, in the requested workload order.
    comparisons: Dict[str, WorkloadComparison]
    #: Optimizer names, in the requested (and per-workload run) order.
    optimizers: Tuple[str, ...]
    #: Spec of the pool the cells ran on (e.g. "process:4").
    backend: str
    #: Wall-clock seconds of the serial preparation phase (build + profile +
    #: reference execution of every workload).
    prepare_s: float = 0.0
    #: Wall-clock seconds of the fanned-out cell phase — the part a fork
    #: pool parallelizes.
    cells_s: float = 0.0
    #: Cost-service counter delta over the whole run (all cells combined).
    cost_stats: CostServiceStats = field(default_factory=CostServiceStats)
    #: Entries the harness's service absorbed from a persisted cache at
    #: construction (0 on a cold start).  Constructor-scoped provenance: a
    #: second ``run()`` on the same harness reports the same number.
    warm_start_entries: int = 0
    #: Per-vertex estimates already cached when *this* run's cells started —
    #: in-memory warmth from any source (disk load or a previous ``run()``
    #: on the same harness).  0 means the cells really started cold.
    cache_entries_at_start: int = 0
    #: The persisted-cache path in effect, or ``None``.
    cache_path: Optional[str] = None
    #: Decision-cache counter delta over the whole run (all cells combined).
    decision_stats: DecisionCacheStats = field(default_factory=DecisionCacheStats)
    #: The persisted decision-cache path in effect, or ``None``.
    decision_cache_path: Optional[str] = None
    #: Sub-result catalog counter delta over the whole run (all cells).
    subresult_stats: SubResultCatalogStats = field(default_factory=SubResultCatalogStats)
    #: The persisted sub-result catalog path in effect, or ``None``.
    subresult_catalog_path: Optional[str] = None

    def comparison(self, abbreviation: str) -> WorkloadComparison:
        """The comparison of one workload."""
        return self.comparisons[abbreviation]

    def decision_fingerprint(self) -> Tuple:
        """Every cell's results as plain data — the identity-contract value.

        Two runs of the same experiment (any pool, any worker count, warm
        or cold cache) must produce equal fingerprints; see
        ``tests/test_experiment_orchestration.py``.
        """
        return tuple(
            (abbr, tuple(comparison.runs[name].decision_fingerprint() for name in self.optimizers))
            for abbr, comparison in self.comparisons.items()
        )

    def speedup_table(self) -> str:
        """Text table of speedups over the Baseline (one row per workload)."""
        return ExperimentHarness.format_speedup_table(
            list(self.comparisons.values()), self.optimizers
        )


class ExperimentHarness:
    """Runs workloads under several optimizers and collects the comparison."""

    FIGURE11_OPTIMIZERS = ("Baseline", "Stubby", "Vertical", "Horizontal")
    FIGURE12_OPTIMIZERS = ("Baseline", "Stubby", "Starfish", "YSmart", "MRShare")

    #: Distinguishes origin labels of successive run() calls (and of runs in
    #: other processes), so a warm-started cache's entries — stored by a
    #: previous run's cells under the *same* cell names — still register as
    #: cross-origin when this run hits them.
    _run_tokens = itertools.count(1)

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        scale: float = 0.25,
        seed: int = 42,
        cache_path: Optional[str] = None,
        decision_cache_path: Optional[str] = None,
        subresult_catalog_path: Optional[str] = None,
    ) -> None:
        self.cluster = cluster or ClusterSpec.paper_cluster()
        self.scale = scale
        self.seed = seed
        self.executor = WorkflowExecutor()
        self.actual_model = ActualCostModel(self.cluster)
        # Each store's persisted path is the explicit argument, else its
        # environment variable (STUBBY_COST_CACHE / STUBBY_DECISION_CACHE /
        # STUBBY_SUBRESULT_CATALOG), else no persistence — three separate
        # paths, so each warm start is opted into independently.  The store
        # warm-starts from it now; :meth:`run` merge-saves back.
        self.costs = CostService(
            self.cluster, cache_path=resolve_env_path(cache_path, CostService.PATH_ENV_VAR)
        )
        self.cache_path = self.costs.cache_path
        self.whatif = self.costs.engine
        #: One decision memo shared by every optimizer the harness builds —
        #: a unit solved by one cell is replayed, not re-searched, by every
        #: later cell that meets the same content (cross-origin attributed).
        self.decisions = DecisionCache(
            self.cluster,
            cache_path=resolve_env_path(decision_cache_path, DecisionCache.PATH_ENV_VAR),
        )
        self.decision_cache_path = self.decisions.cache_path
        #: One sub-result catalog shared by every Stubby-variant optimizer the
        #: harness builds — an intermediate registered by (or for) one cell is
        #: reusable by every later cell that meets the same producing-subgraph
        #: content, with origin-tagged attribution like the cost service's.
        #: Empty unless something registers (see
        #: :meth:`register_workload_subresults`), so default harness behaviour
        #: is byte-identical to a harness without a catalog.
        self.subresults = SubResultCatalog(
            self.cluster,
            cache_path=resolve_env_path(subresult_catalog_path, SubResultCatalog.PATH_ENV_VAR),
        )
        self.subresult_catalog_path = self.subresults.cache_path
        #: The shared stores; cells run attributed over all of them, ride one
        #: pool session and persist together.
        self.stores: Tuple[ShardedStore, ...] = (self.costs, self.decisions, self.subresults)
        #: Dispatch accounting of the most recent :meth:`run` (None before).
        self.last_dispatch_stats = None

    # ----------------------------------------------------------- optimizers
    def make_optimizer(self, name: str, seed: Optional[int] = None):
        """:func:`~repro.baselines.make_optimizer` over the harness's shared stores.

        Exact per-vertex estimates are thus reused across the optimizers (and
        workloads) of one comparison, while each ``optimize()`` still reports
        its own counter delta.  :meth:`run` passes each cell's derived seed.
        """
        return make_optimizer(
            name,
            self.cluster,
            seed=seed,
            cost_service=self.costs,
            decision_cache=self.decisions,
            subresult_catalog=self.subresults,
        )

    # ------------------------------------------------------------- workload
    def prepare_workload(self, abbreviation: str) -> Workload:
        """Build and profile a workload (profiles attached to its workflow)."""
        workload = build_workload(abbreviation, scale=self.scale, seed=self.seed)
        profiler = Profiler(seed=self.seed)
        profiler.profile_workflow(workload.workflow, workload.base_datasets)
        return workload

    def compare(
        self,
        abbreviation: str,
        optimizers: Sequence[str] = FIGURE11_OPTIMIZERS,
        workload: Optional[Workload] = None,
    ) -> WorkloadComparison:
        """Run the requested optimizers on one workload and compare them."""
        workload = workload or self.prepare_workload(abbreviation)
        reference_outputs = self._reference_outputs(workload)

        comparison = WorkloadComparison(
            abbreviation=workload.abbreviation,
            name=workload.name,
            paper_dataset_gb=workload.paper_dataset_gb,
            unoptimized_jobs=workload.num_jobs,
        )
        for optimizer_name in optimizers:
            optimizer = self.make_optimizer(optimizer_name)
            # Each timed run starts cold so the reported optimization time
            # and what-if counters are standalone (order-independent) —
            # Figure 13 must not depend on which optimizer ran first.
            self.costs.invalidate()
            self.decisions.invalidate()
            result = optimizer.optimize(workload.plan)
            comparison.runs[optimizer_name] = self._evaluate(result, workload, reference_outputs)
        return comparison

    # ------------------------------------------------------- orchestrated run
    def run(
        self,
        workloads: Optional[Sequence[str]] = None,
        optimizers: Sequence[str] = FIGURE11_OPTIMIZERS,
        backend: str = "serial",
        persist: bool = True,
    ) -> ExperimentRunResult:
        """Run a whole experiment — every (workload × optimizer) cell — at once.

        Unlike :meth:`compare` (cold cache per optimizer, for standalone
        Figure 11–13 timings), the cells of one ``run`` share the harness's
        warm :class:`CostService`: structurally identical job signatures met
        by several cells are costed once (each cell's
        ``OptimizerRun.cost_stats.cross_origin_hits`` counts what it reaped
        from the others).  Cells are dispatched
        through the :class:`~repro.experiments.scheduler.ExperimentScheduler`
        onto the pool ``backend`` names (``"serial"`` or ``"process:N"``);
        results are identical on every pool at any worker count, by the
        scheduler's determinism contract.

        With a ``cache_path`` configured the run warm-starts from the
        persisted store (done at harness construction) and — unless
        ``persist=False`` — saves the store back when the cells finish, so
        the next run's estimates start hot.
        """
        abbreviations = tuple(workloads) if workloads is not None else tuple(WORKLOAD_ORDER)
        optimizer_names = tuple(optimizers)
        scheduler = ExperimentScheduler(backend)

        # Serial, deterministic preparation: workloads are built, profiled,
        # and reference-executed before any fan-out, so forked cell workers
        # inherit them (workflow operators are closures — unpicklable).
        prepare_started = time.perf_counter()
        prepared: Dict[str, Tuple[Workload, Dict[str, list]]] = {}
        for abbr in abbreviations:
            workload = self.prepare_workload(abbr)
            prepared[abbr] = (workload, self._reference_outputs(workload))
        prepare_s = time.perf_counter() - prepare_started

        cells = build_cells(abbreviations, optimizer_names, self.seed)
        run_token = f"{os.getpid()}.{next(self._run_tokens)}"
        cache_entries_at_start = self.costs.cache_size

        def run_cell(cell: ExperimentCell) -> OptimizerRun:
            workload, reference_outputs = prepared[cell.workload]
            return self._run_cell(cell, workload, reference_outputs, run_token)

        with attributed(self.stores, current_origin()) as run_sinks:
            cells_started = time.perf_counter()
            runs = scheduler.map_cells(cells, run_cell, self.stores)
            cells_s = time.perf_counter() - cells_started
        cost_stats, decision_stats, subresult_stats = run_sinks
        self.last_dispatch_stats = scheduler.last_dispatch_stats

        comparisons: Dict[str, WorkloadComparison] = {}
        for cell, run in zip(cells, runs):
            workload, _ = prepared[cell.workload]
            comparison = comparisons.get(cell.workload)
            if comparison is None:
                comparison = comparisons[cell.workload] = WorkloadComparison(
                    abbreviation=workload.abbreviation,
                    name=workload.name,
                    paper_dataset_gb=workload.paper_dataset_gb,
                    unoptimized_jobs=workload.num_jobs,
                )
            comparison.runs[cell.optimizer] = run

        if persist:
            persist_stores(self.stores)

        return ExperimentRunResult(
            comparisons=comparisons,
            optimizers=optimizer_names,
            backend=scheduler.spec,
            prepare_s=prepare_s,
            cells_s=cells_s,
            cost_stats=cost_stats,
            warm_start_entries=(
                self.costs.last_load.entries
                if self.costs.last_load and self.costs.last_load.loaded
                else 0
            ),
            cache_entries_at_start=cache_entries_at_start,
            cache_path=self.cache_path,
            decision_stats=decision_stats,
            decision_cache_path=self.decision_cache_path,
            subresult_stats=subresult_stats,
            subresult_catalog_path=self.subresult_catalog_path,
        )

    def _run_cell(
        self,
        cell: ExperimentCell,
        workload: Workload,
        reference_outputs: Dict[str, list],
        run_token: str,
    ) -> OptimizerRun:
        """Execute one cell: optimize under the cell's origin label, evaluate.

        Runs on whatever worker the pool chose; everything
        here must therefore be deterministic given the cell alone.  What the
        cell stores is labelled with it, so other cells' reuse of it is
        measurable; its exact activity is the result's own ledgers.
        """
        optimizer = self.make_optimizer(cell.optimizer, seed=cell.seed)
        with attributed((), f"{run_token}:{cell.label}"):
            result = optimizer.optimize(workload.plan)
        return self._evaluate(result, workload, reference_outputs)

    def register_workload_subresults(
        self,
        abbreviation: Optional[str] = None,
        workload: Optional[Workload] = None,
        origin: Optional[str] = None,
    ) -> int:
        """Execute a workload unoptimized and register its intermediates.

        This is the explicit ReStore-style warm-up: the workload's
        *unoptimized* workflow runs once with per-job output collection, and
        every intermediate dataset (produced **and** consumed inside the
        workflow) lands in the harness's shared :class:`SubResultCatalog`
        under its producing-subgraph content signature.  Later
        :meth:`compare`/:meth:`run` cells whose workflows contain a
        signature-equal subgraph are then free to reuse the stored bytes
        instead of recomputing — arbitrated by the cost model like every
        other transformation.  Registration is deliberately opt-in:
        reference executions never register implicitly, so existing
        experiment numbers are untouched unless a caller asks for reuse.

        Returns the number of catalog entries registered.
        """
        workload = workload or self.prepare_workload(abbreviation)
        execution, _ = self.executor.execute(
            workload.workflow.copy(),
            base_datasets=workload.base_datasets,
            collect_outputs=True,
        )
        outputs: Dict[str, list] = {}
        for job_outputs in execution.job_outputs.values():
            outputs.update(job_outputs)
        return register_workflow_outputs(
            self.subresults,
            workload.workflow,
            outputs,
            origin=origin or f"warmup:{workload.abbreviation}",
        )

    def _reference_outputs(self, workload: Workload) -> Dict[str, list]:
        execution, filesystem = self.executor.execute(
            workload.workflow.copy(), base_datasets=workload.base_datasets
        )
        outputs = {}
        for dataset_vertex in workload.workflow.terminal_datasets():
            if filesystem.exists(dataset_vertex.name):
                outputs[dataset_vertex.name] = filesystem.get(dataset_vertex.name).all_records()
        return outputs

    def _evaluate(
        self,
        result: OptimizationResult,
        workload: Workload,
        reference_outputs: Dict[str, list],
    ) -> OptimizerRun:
        execution, filesystem = self.executor.execute(
            result.plan.workflow, base_datasets=workload.base_datasets
        )
        actual = self.actual_model.workflow_cost(result.plan.workflow, execution, filesystem)
        # The differential battery's tolerance-aware comparison, so a plan
        # whose float sums straddle a rounding boundary is judged alike here.
        equivalent = all(
            filesystem.exists(name)
            and diff_record_multisets(reference, filesystem.get(name).all_records()) == ([], [])
            for name, reference in reference_outputs.items()
        )
        return OptimizerRun(
            optimizer=result.optimizer,
            num_jobs=result.num_jobs,
            actual_s=actual.total_s,
            estimated_s=result.estimated_cost_s,
            optimization_time_s=result.optimization_time_s,
            output_equivalent=equivalent,
            transformations=[t for t in result.transformations_applied if t != "configuration"],
            subresult_reuse_applications=result.subresult_reuse_applications,
            cost_stats=result.cost_stats,
            decision_stats=result.decision_stats,
            subresult_stats=result.subresult_stats,
        )

    # ---------------------------------------------------------- deep dives
    def unit_deep_dive(
        self,
        abbreviation: str = "IR",
        workload: Optional[Workload] = None,
    ) -> List[Tuple[Tuple[str, ...], float, float]]:
        """Figure 14: (transformations, estimated, actual) per subplan of the first unit.

        Every subplan enumerated for the workload's first optimization unit is
        configured with its best RRS settings, executed, and costed both ways.
        The search is a fresh optimizer's (fresh stores, default seed and RRS):
        its empty sub-result catalog makes the reuse rewrite propose nothing.
        """
        workload = workload or self.prepare_workload(abbreviation)
        plan = workload.plan
        search = StubbyOptimizer(self.cluster).search
        generator = OptimizationUnitGenerator()
        unit = generator.next_unit(plan)
        if unit is None:
            return []
        _, report = search.optimize_unit(plan, unit, search.vertical_transformations, phase="vertical")

        results: List[Tuple[Tuple[str, ...], float, float]] = []
        for record in report.subplans:
            candidate = record.plan.copy()
            if record.best_settings:
                ConfigurationTransformation.apply_settings_in_place(candidate, record.best_settings)
            execution, filesystem = self.executor.execute(
                candidate.workflow, base_datasets=workload.base_datasets
            )
            actual = self.actual_model.workflow_cost(candidate.workflow, execution, filesystem)
            results.append((record.transformations, record.estimated_cost, actual.total_s))
        return results

    # -------------------------------------------------------------- reports
    @staticmethod
    def format_speedup_table(
        comparisons: Sequence[WorkloadComparison],
        optimizers: Sequence[str],
    ) -> str:
        """Text table of speedups over the Baseline (one row per workload)."""
        header = "workload  " + "  ".join(f"{name:>10}" for name in optimizers)
        lines = [header]
        for comparison in comparisons:
            cells = []
            for name in optimizers:
                if name in comparison.runs:
                    cells.append(f"{comparison.speedup(name):>10.2f}")
                else:
                    cells.append(f"{'-':>10}")
            lines.append(f"{comparison.abbreviation:<9} " + "  ".join(cells))
        return "\n".join(lines)

    @staticmethod
    def format_overhead_table(comparisons: Sequence[WorkloadComparison]) -> str:
        """Text table of Stubby's optimization overhead (Figure 13)."""
        lines = [
            "workload  optimization_s  baseline_runtime_s  overhead_pct  whatif_q  hit_rate"
        ]
        for comparison in comparisons:
            stubby = comparison.runs.get("Stubby")
            baseline = comparison.runs.get("Baseline")
            if stubby is None or baseline is None:
                continue
            pct = 100.0 * stubby.optimization_time_s / max(1e-9, baseline.actual_s)
            lines.append(
                f"{comparison.abbreviation:<9} {stubby.optimization_time_s:>14.2f} "
                f"{baseline.actual_s:>19.1f} {pct:>13.3f} {stubby.cost_stats.queries:>9d} "
                f"{stubby.cost_stats.cache_hit_rate:>9.2f}"
            )
        return "\n".join(lines)
