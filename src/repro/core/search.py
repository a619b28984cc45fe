"""Stubby's two-phase greedy enumeration and search strategy (paper §4).

The search traverses the workflow graph twice.  In the first phase the
Vertical-group transformations (intra- and inter-job vertical packing, plus
the partition-function transformation) are applied within dynamically
generated optimization units; in the second phase the Horizontal-group
transformations are applied the same way.  Within each unit:

1. the unit is split into *independent sub-units* — connected components of
   jobs sharing dataset vertices
   (:meth:`~repro.core.optimization_unit.OptimizationUnitGenerator.independent_subunits`)
   — whose candidate subplans rewrite disjoint parts of the graph;
2. all combinations of the (non-configuration) transformations applicable to
   each sub-unit's jobs are enumerated exhaustively, producing the sub-unit's
   candidate subplans ``p1..pn`` (Figure 10);
3. Recursive Random Search finds the best configuration transformation for
   every candidate subplan, using the shared cost service to cost each
   sampled configuration;
4. per sub-unit, the candidate with the lowest estimated cost is retained
   (ties broken by candidate index); the chosen rewrites are composed in
   sub-unit order and the search moves to the next unit.

The search itself is straight-line code: candidates are costed one after
another in enumeration order, in the process that called ``run()``.  Work
fans out one level up — whole requests on the planning server's pool, whole
(workload, optimizer) cells on the experiment harness's — and those pools
return bit-identical decisions wherever a search lands because nothing here
depends on placement: every candidate derives its RNG from a stable key,
candidates are consumed in enumeration order with index tie-breaks, and the
cost service guarantees estimates identical with or without cache reuse.
See ``docs/search.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec
from repro.common.faults import fault_site
from repro.common.rng import DeterministicRNG
from repro.common.store import cluster_cache_key
from repro.core.budget import UNBOUNDED, TimeBudget
from repro.core.decision_cache import (
    DecisionCache,
    DecisionKey,
    SubunitChoice,
    UnitDecision,
    rrs_search_key,
    transformation_key,
)
from repro.core.optimization_unit import OptimizationUnit, OptimizationUnitGenerator
from repro.core.subresults import SubResultUnavailableError
from repro.core.plan import Plan
from repro.core.rrs import Point, RecursiveRandomSearch
from repro.core.transformations.base import Transformation, TransformationApplication
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.mapreduce.config import ConfigDimension, ConfigurationSpace
from repro.whatif import model as whatif_model
from repro.whatif.service import CostService, CostServiceStats

#: Caps keeping the exhaustive enumeration inside a unit bounded; in practice
#: (paper §4.2) the number of unique subplans per unit is small.
MAX_SUBPLANS_PER_UNIT = 24
MAX_ENUMERATION_DEPTH = 6
#: Cap on the composed cross-product combinations scored when a unit was
#: split into several independent sub-units.
MAX_COMPOSED_COMBINATIONS = 64

#: Job -> the ``(dimension index, setting)`` pairs of its RRS dimensions.
TunedJobs = Dict[str, Tuple[Tuple[int, str], ...]]


def plan_decision_fingerprint(plan: Plan) -> Tuple:
    """The canonical identity of an optimizer's decision for one plan.

    ``plan.signature()`` captures structure only; the fingerprint adds every
    job's whole configuration (``JobConfig.key``: the searched settings and
    the two constraint fields), so two plans compare equal exactly when the
    optimizer made byte-identical decisions.  This is the value the
    determinism contract is stated in — replay verification, the experiment
    orchestration tests, and the planning service's bit-identity battery all
    compare it.
    """
    return (
        plan.signature(),
        tuple(sorted((vertex.name, vertex.job.config.key) for vertex in plan.workflow.jobs)),
    )


@dataclass
class SubplanRecord:
    """One candidate subplan enumerated inside an optimization unit."""

    plan: Plan
    transformations: Tuple[str, ...]
    #: The exact application chain that produced this candidate from the
    #: unit's input plan; the search replays it when composing the chosen
    #: rewrites of several independent sub-units.
    applications: Tuple[TransformationApplication, ...] = ()
    estimated_cost: float = float("inf")
    best_settings: Dict[str, Mapping[str, object]] = field(default_factory=dict)
    rrs_evaluations: int = 0
    #: Exact cost-service activity of costing *this* candidate (queries, job
    #: memo hits, from-scratch derivations), captured through a per-candidate
    #: attribution sink — correct even when candidates run concurrently.
    cost_stats: CostServiceStats = field(default_factory=CostServiceStats)


@dataclass
class UnitReport:
    """Everything the search did inside one optimization (sub-)unit."""

    unit: OptimizationUnit
    phase: str
    subplans: List[SubplanRecord] = field(default_factory=list)
    chosen_index: int = -1
    #: What-if queries spent scoring composed sub-unit combinations (set on
    #: the first report of a split unit; zero for unsplit units).
    composition_queries: int = 0
    #: Composed index-vector combinations considered for a split unit (set
    #: on the first report, like ``composition_queries``).  Content-identical
    #: compositions are costed once, so ``composition_queries`` can be lower.
    composition_combinations: int = 0
    #: Decision-cache activity of this unit (set on the first report of the
    #: unit's group): 1 hit when the whole unit search was skipped and the
    #: recorded decision replayed, 1 miss when the search ran (and its
    #: outcome was recorded), 0/0 when the decision cache is disabled.
    unit_decision_hits: int = 0
    unit_decision_misses: int = 0
    #: Hits served by a decision another origin recorded (a different
    #: experiment cell or a warm-started persisted decision file).
    cross_origin_decision_hits: int = 0
    #: The full plan before and after this unit was optimized.  The
    #: differential-verification harness replays ``plan_after`` to bisect an
    #: output divergence down to the single unit — and therefore the single
    #: set of transformation applications — that introduced it.
    #: ``plan_before`` is a *reference* (the search never mutates a plan in
    #: place, so no copy is needed); ``plan_after`` is an isolated copy.
    plan_before: Optional[Plan] = None
    plan_after: Optional[Plan] = None

    @property
    def chosen(self) -> Optional[SubplanRecord]:
        """The subplan that was retained for this unit."""
        if 0 <= self.chosen_index < len(self.subplans):
            return self.subplans[self.chosen_index]
        return None


class StubbySearch:
    """Greedy, unit-by-unit plan search over the transformation space."""

    def __init__(
        self,
        cluster: ClusterSpec,
        vertical_transformations: Sequence[Transformation],
        horizontal_transformations: Sequence[Transformation],
        rrs: Optional[RecursiveRandomSearch] = None,
        seed: int = 17,
        optimize_configurations: bool = True,
        cost_service: Optional[CostService] = None,
        decision_cache: Optional[DecisionCache] = None,
    ) -> None:
        self.cluster = cluster
        #: All cost queries go through the shared (memoizing) service; the
        #: underlying engine stays reachable for cold/diagnostic estimates.
        self.costs = CostService.ensure(cluster, cost_service)
        self.whatif = self.costs.engine
        self.vertical_transformations = list(vertical_transformations)
        self.horizontal_transformations = list(horizontal_transformations)
        self.rrs = rrs or RecursiveRandomSearch(
            exploration_samples=10, exploitation_samples=8, restarts=1, seed=seed
        )
        self.optimize_configurations = optimize_configurations
        self.seed = seed
        self._rng = DeterministicRNG(seed)
        #: Memoized unit decisions (:mod:`repro.core.decision_cache`): a unit
        #: whose content key was solved before replays its recorded rewrite
        #: chain instead of searching.  Shared in by the optimizer/harness
        #: for cross-run and cross-cell reuse; a fresh in-memory one otherwise.
        self.decisions = DecisionCache.ensure(cluster, decision_cache)
        self._cluster_key = cluster_cache_key(cluster)
        #: Cooperative deadline for the *current* ``run()``; checked between
        #: candidate evaluations (never mid-rewrite).  Per-run state — like
        #: the RNG, one search instance serves one run at a time.
        self._budget: TimeBudget = UNBOUNDED
        #: Serving-ladder rung 1: replay memoized decisions only.  A unit
        #: whose content key has a recorded decision replays it exactly; a
        #: unit without one is left untouched — no enumeration, no RRS, and
        #: crucially no decision store (a skipped search must never record
        #: the no-op as that unit's optimal decision).
        self.replay_only = False
        #: ``{phase: (transformations, knob part of the key)}`` during ``run()``.
        self._run_knobs: Optional[Dict[str, Tuple[Sequence[Transformation], Tuple]]] = None

    # ------------------------------------------------------------------ API
    def run(
        self,
        plan: Plan,
        phases: Sequence[str] = ("vertical", "horizontal"),
        budget: Optional[TimeBudget] = None,
    ) -> Tuple[Plan, List[UnitReport]]:
        """Run the requested phases over the plan; returns the optimized plan.

        ``budget`` bounds this run cooperatively: the search raises
        :class:`~repro.common.errors.DeadlineExceeded` at the next check
        point after expiry, leaving every already-composed rewrite valid.
        """
        previous = self._budget, self._run_knobs
        self._budget = budget if budget is not None else UNBOUNDED
        self._run_knobs = {}
        try:
            reports: List[UnitReport] = []
            current = plan
            for phase in phases:
                transformations = (
                    self.vertical_transformations if phase == "vertical" else self.horizontal_transformations
                )
                current, phase_reports = self._run_phase(current, transformations, phase)
                reports.extend(phase_reports)
            return current, reports
        finally:
            self._budget, self._run_knobs = previous

    # ---------------------------------------------------------------- phase
    def _run_phase(
        self,
        plan: Plan,
        transformations: Sequence[Transformation],
        phase: str,
    ) -> Tuple[Plan, List[UnitReport]]:
        generator = OptimizationUnitGenerator()
        reports: List[UnitReport] = []
        current = plan
        while True:
            self._budget.check("search.unit")
            unit = generator.next_unit(current)
            if unit is None:
                break
            subunits = generator.independent_subunits(current, unit)
            current, unit_reports = self.optimize_units(current, subunits, transformations, phase)
            reports.extend(unit_reports)
            generator.mark_handled(current, unit)
        return current, reports

    # ----------------------------------------------------------------- unit
    def optimize_unit(
        self,
        plan: Plan,
        unit: OptimizationUnit,
        transformations: Sequence[Transformation],
        phase: str = "vertical",
    ) -> Tuple[Plan, UnitReport]:
        """Enumerate, cost, and pick the best subplan for one unit.

        Single-unit convenience over :meth:`optimize_units` (no sub-unit
        splitting), used by the Figure 14 deep dive and the unit-level tests.
        """
        optimized, reports = self.optimize_units(plan, [unit], transformations, phase)
        return optimized, reports[0]

    def optimize_units(
        self,
        plan: Plan,
        subunits: Sequence[OptimizationUnit],
        transformations: Sequence[Transformation],
        phase: str = "vertical",
    ) -> Tuple[Plan, List[UnitReport]]:
        """Optimize one unit's independent sub-units: memoized search.

        With the decision cache enabled, the unit's content key is looked up
        first: a hit **replays** the recorded rewrite chain through
        :meth:`_apply_candidate` — no enumeration, no RRS, no costing — and
        is bit-identical to a fresh search by the key's construction
        (``verify_hits`` mode asserts it on every hit).  A miss runs the
        full search (:meth:`_search_units`) and records the winning
        per-sub-unit chains.
        """
        decisions = self.decisions
        key = None
        if decisions is not None and decisions.enabled:
            key = self._decision_key(plan, subunits, transformations, phase)
            # Counted once the replay settles: a decision that cannot be
            # replayed is a miss in the ledger, as it is in the reports.
            hit = decisions.lookup(key, deferred=True)
            if hit is not None:
                decision, cross_origin = hit
                replayed = None
                if len(decision.choices) == len(subunits):
                    try:
                        replayed = self._replay_decision(
                            plan, subunits, decision, transformations, phase
                        )
                    except SubResultUnavailableError:
                        # The recorded chain substitutes a stored sub-result
                        # that is no longer available (evicted, or its backing
                        # records were deleted).  Drop the stale decision and
                        # fall through to a full search — recomputation,
                        # never a failed plan.
                        decisions.invalidate_key(key)
                if replayed is None:
                    decisions.count_miss()
                else:
                    decisions.count_hit(decision, cross_origin)
                    replayed[1][0].unit_decision_hits = 1
                    if cross_origin:
                        replayed[1][0].cross_origin_decision_hits = 1
                    if decisions.verify_hits:
                        self._verify_replay(plan, subunits, transformations, phase, replayed[0])
                    return replayed

        if self.replay_only:
            # Rung-1 serving mode: no memoized decision for this unit, so it
            # is served untouched.  Nothing is stored — the unit was never
            # searched, and recording a no-op here would poison later full
            # searches of the same content key.
            reports = []
            for subunit in subunits:
                report = UnitReport(unit=subunit, phase=phase, plan_before=plan)
                report.plan_after = plan.copy()
                reports.append(report)
            if key is not None:
                reports[0].unit_decision_misses = 1
            return plan, reports

        optimized, reports = self._search_units(plan, subunits, transformations, phase)
        if key is not None:
            reports[0].unit_decision_misses = 1
            decisions.store(key, self._record_decision(reports))
        return optimized, reports

    def _search_units(
        self,
        plan: Plan,
        subunits: Sequence[OptimizationUnit],
        transformations: Sequence[Transformation],
        phase: str = "vertical",
    ) -> Tuple[Plan, List[UnitReport]]:
        """Enumerate, cost, choose, and compose over independent sub-units.

        Every sub-unit is enumerated first, then every candidate is costed
        in enumeration order.  A lone sub-unit keeps the classic choice
        (cheapest candidate, ties by index); a split unit makes a *joint*
        choice over composed candidate combinations
        (:meth:`_choose_composed`) and then composes the winning rewrites in
        sub-unit order by replaying each chosen candidate's application chain
        (the sub-units touch disjoint vertices, so replay order cannot change
        any individual rewrite).
        """
        per_subunit = [
            self.enumerate_subplans(plan, subunit, transformations) for subunit in subunits
        ]
        for subunit, candidates in zip(subunits, per_subunit):
            for candidate_index, record in enumerate(candidates):
                # The candidate's stable identity within the unit — the basis
                # of its forked RNG stream, so the stream depends on neither
                # the process nor the order the candidate is costed in.
                rng_key = f"{phase}/{'|'.join(subunit.producers)}/candidate-{candidate_index}"
                self._cost_candidate(record, record_unit_jobs(record, subunit), rng_key)

        if len(subunits) == 1:
            return self._choose_single(plan, subunits[0], per_subunit[0], phase)
        return self._choose_composed(plan, subunits, per_subunit, transformations, phase)

    # ----------------------------------------------------- decision memoization
    def _decision_key(
        self,
        plan: Plan,
        subunits: Sequence[OptimizationUnit],
        transformations: Sequence[Transformation],
        phase: str,
    ) -> DecisionKey:
        """Everything that determines this unit's argmin, as a hashable tuple.

        Workflow cost is a per-level makespan — a *max* — so a unit's best
        rewrite can depend on jobs outside the unit; the key therefore pins
        the **whole plan's** content (every job's
        :attr:`~repro.workflow.graph.JobVertex.key`, every dataset's
        :attr:`~repro.workflow.graph.DatasetVertex.key`, merge lineage), the
        unit decomposition, and every search knob (RRS parameters including
        the seed, the transformation set with its options, the enumeration
        caps, the cost-model version, the cluster).  The job keys in
        insertion order fix the plan's structure: each starts with its job's
        name and shape.  Equal keys are decision-equivalent by construction;
        any input change produces a miss, never a stale hit.  A job key is
        built once per vertex (``docs/search.md``, "What building it costs");
        per unit the key reads the dataset statistics, the cost-model version
        and the cluster, and inside ``run()`` the other knobs are built once
        per phase.  The key is hashed once, when it is built.
        """
        workflow = plan.workflow
        return DecisionKey((
            ("unit", tuple((subunit.producers, subunit.consumers) for subunit in subunits)),
            ("jobs", tuple(vertex.key for vertex in workflow.jobs)),
            ("datasets", tuple((vertex.name, vertex.key) for vertex in workflow.datasets)),
            ("lineage", tuple(sorted(plan.merge_lineage.items()))),
            # Read through the module so a version bump (or a test
            # monkeypatching it) invalidates in-memory keys too.
            self._knobs(transformations, phase)
            + (whatif_model.COST_MODEL_VERSION, self._cluster_key),
        ))

    def _knobs(self, transformations: Sequence[Transformation], phase: str) -> Tuple:
        """The search-knob part of a decision key: once per phase of a ``run()``,
        once per call outside one (where the knobs may change between calls)."""
        memo = self._run_knobs if self._run_knobs is not None else {}
        if phase not in memo or memo[phase][0] is not transformations:
            memo[phase] = transformations, (
                "knobs", phase, self.seed, self.optimize_configurations, rrs_search_key(self.rrs),
                tuple(transformation_key(t) for t in transformations),
                (MAX_SUBPLANS_PER_UNIT, MAX_ENUMERATION_DEPTH, MAX_COMPOSED_COMBINATIONS),
            )
        return memo[phase][1]

    def _replay_decision(
        self,
        plan: Plan,
        subunits: Sequence[OptimizationUnit],
        decision: UnitDecision,
        transformations: Sequence[Transformation],
        phase: str,
    ) -> Tuple[Plan, List[UnitReport]]:
        """Reproduce a recorded decision without searching.

        Each sub-unit's stored chain is replayed through the same
        :meth:`_apply_candidate` the composed search path uses, so the
        resulting plan — structure, configurations, recorded application
        history — is bit-identical to the one the original search returned.
        The reports carry one synthetic :class:`SubplanRecord` (the chosen
        one) each; counters that measure search work stay zero, because no
        search work happened.
        """
        current = plan
        reports: List[UnitReport] = []
        for subunit, choice in zip(subunits, decision.choices):
            report = UnitReport(unit=subunit, phase=phase, plan_before=current)
            record = SubplanRecord(
                plan=current,
                transformations=choice.transformations,
                applications=choice.applications,
                estimated_cost=choice.estimated_cost,
                best_settings=choice.settings_dict(),
            )
            current = self._apply_candidate(current, record, transformations)
            report.subplans = [record]
            report.chosen_index = 0
            report.plan_after = current.copy()
            reports.append(report)
        return current, reports

    @staticmethod
    def _record_decision(reports: Sequence[UnitReport]) -> UnitDecision:
        """The searched outcome as a storable decision: one choice per report.

        Both choice paths emit exactly one report per sub-unit, in sub-unit
        order; a report that retained nothing stores the no-op choice.
        """
        choices = []
        for report in reports:
            chosen = report.chosen
            if chosen is None:
                choices.append(SubunitChoice.no_op())
            else:
                choices.append(SubunitChoice.from_record(chosen))
        return UnitDecision(choices=tuple(choices))

    def _verify_replay(
        self,
        plan: Plan,
        subunits: Sequence[OptimizationUnit],
        transformations: Sequence[Transformation],
        phase: str,
        replayed: Plan,
    ) -> None:
        """Debug mode: re-run the full search and assert replay identity.

        The extra search pollutes wall-clock and cost counters (that is the
        point of a debug mode); decisions must not diverge, or the key is
        missing an input — a bug worth crashing on.
        """
        searched, _reports = self._search_units(plan, subunits, transformations, phase)
        if plan_decision_fingerprint(searched) != plan_decision_fingerprint(replayed):
            raise RuntimeError(
                "decision cache replay diverged from a fresh search for unit "
                f"{[s.producers for s in subunits]!r} in phase {phase!r}; "
                "the decision key is missing an input that affects the argmin"
            )

    def _choose_single(
        self,
        plan: Plan,
        unit: OptimizationUnit,
        candidates: List[SubplanRecord],
        phase: str,
    ) -> Tuple[Plan, List[UnitReport]]:
        """The unsplit-unit choice: lowest estimated cost, ties by index."""
        report = UnitReport(unit=unit, phase=phase, plan_before=plan)
        best_index = -1
        best_cost = float("inf")
        for index, record in enumerate(candidates):
            report.subplans.append(record)
            if record.estimated_cost < best_cost:
                best_cost = record.estimated_cost
                best_index = index

        report.chosen_index = best_index
        if best_index < 0:
            report.plan_after = plan
            return plan, [report]

        chosen = report.subplans[best_index]
        optimized = chosen.plan.copy()
        self._apply_chosen_settings(optimized, chosen)
        report.plan_after = optimized.copy()
        return optimized, [report]

    def _choose_composed(
        self,
        plan: Plan,
        subunits: Sequence[OptimizationUnit],
        per_subunit: List[List[SubplanRecord]],
        transformations: Sequence[Transformation],
        phase: str,
    ) -> Tuple[Plan, List[UnitReport]]:
        """Joint choice over a split unit's sub-unit candidates.

        Workflow cost is a per-level makespan — a *max*, not a sum — so the
        best candidate of one sub-unit can depend on what the others chose
        (a rewrite may look cost-neutral at the base plan simply because a
        neighbouring sub-unit's job dominates the level).  Choosing each
        sub-unit independently would discard such rewrites, so instead the
        (bounded, deterministic) cross-product of per-sub-unit candidates
        is composed onto the plan and re-scored with single what-if
        estimates — cheap against the warm incremental cache, since the
        expensive per-candidate RRS tuning already ran above.
        Ties prefer the lexicographically smallest index vector.

        Content-identical compositions are costed once: different index
        vectors can denote the same composed plan (two candidates of one
        sub-unit may share a structural signature and chosen settings), so
        each combination's *content key* — the per-candidate
        ``(plan.signature(), settings)`` pairs — memoizes its cost within
        the unit.  Duplicates reuse the memoized cost and, comparing with
        strict ``<``, can never displace the (earlier, lexicographically
        smaller) first occurrence — the argmin is unchanged.
        """
        combos = self._candidate_combinations(per_subunit)
        candidate_keys = [
            [
                (
                    record.plan.signature(),
                    tuple(
                        (job, tuple(sorted(settings.items())))
                        for job, settings in sorted(record.best_settings.items())
                    ),
                )
                for record in candidates
            ]
            for candidates in per_subunit
        ]
        composition_stats = CostServiceStats()
        best_combo = combos[0]
        best_cost = float("inf")
        combo_costs: Dict[Tuple, float] = {}
        with self.costs.attribute_to(composition_stats):
            for combo in combos:
                self._budget.check("search.compose")
                content = tuple(
                    candidate_keys[subunit_index][candidate_index]
                    for subunit_index, candidate_index in enumerate(combo)
                )
                cost = combo_costs.get(content)
                if cost is None:
                    composed = plan
                    for subunit_index, candidate_index in enumerate(combo):
                        composed = self._apply_candidate(
                            composed, per_subunit[subunit_index][candidate_index], transformations
                        )
                    cost = self.costs.estimate_workflow(composed.workflow).total_s
                    combo_costs[content] = cost
                if cost < best_cost:
                    best_cost = cost
                    best_combo = combo

        current = plan
        reports: List[UnitReport] = []
        for subunit_index, subunit in enumerate(subunits):
            report = UnitReport(unit=subunit, phase=phase, plan_before=current)
            report.subplans = list(per_subunit[subunit_index])
            report.chosen_index = best_combo[subunit_index]
            chosen = report.subplans[report.chosen_index]
            current = self._apply_candidate(current, chosen, transformations)
            report.plan_after = current.copy()
            reports.append(report)
        reports[0].composition_queries = composition_stats.queries
        reports[0].composition_combinations = len(combos)
        return current, reports

    def _apply_candidate(
        self,
        plan: Plan,
        record: SubplanRecord,
        transformations: Sequence[Transformation],
    ) -> Plan:
        """Apply one candidate's rewrite chain and settings onto ``plan``.

        Never mutates ``plan``: replay produces fresh plans, and a
        settings-only candidate is applied to a copy.  A candidate with
        neither applications nor settings returns ``plan`` unchanged.
        """
        if record.applications:
            out = self._replay_applications(plan, record.applications, transformations)
        elif record.best_settings:
            out = plan.copy()
        else:
            return plan
        self._apply_chosen_settings(out, record)
        return out

    @staticmethod
    def _apply_chosen_settings(optimized: Plan, chosen: SubplanRecord) -> None:
        if not chosen.best_settings:
            return
        ConfigurationTransformation.apply_settings_in_place(optimized, chosen.best_settings)
        for job_name, settings in chosen.best_settings.items():
            optimized.record(ConfigurationTransformation.applied_for(job_name, settings))

    @staticmethod
    def _candidate_combinations(per_subunit: List[List[SubplanRecord]]) -> List[Tuple[int, ...]]:
        """Index vectors to score, in lexicographic order, bounded.

        The full cross-product is used when it fits under
        :data:`MAX_COMPOSED_COMBINATIONS`; otherwise shortlists are shrunk
        deterministically by dropping the worst at-base candidate (highest
        estimated cost, ties by highest index — never the untransformed
        index 0) from the largest shortlist until the product fits.
        """
        shortlists = [list(range(len(candidates))) for candidates in per_subunit]

        def product_size() -> int:
            size = 1
            for shortlist in shortlists:
                size *= len(shortlist)
            return size

        while product_size() > MAX_COMPOSED_COMBINATIONS:
            largest = max(range(len(shortlists)), key=lambda i: len(shortlists[i]))
            droppable = [
                index for index in shortlists[largest] if index != 0
            ]
            worst = max(
                droppable,
                key=lambda index: (per_subunit[largest][index].estimated_cost, index),
            )
            shortlists[largest].remove(worst)

        combos: List[Tuple[int, ...]] = [()]
        for shortlist in shortlists:
            combos = [combo + (index,) for combo in combos for index in shortlist]
        return combos

    # ------------------------------------------------------------ candidates
    def _cost_candidate(
        self, record: SubplanRecord, unit_jobs: Tuple[str, ...], rng_key: str
    ) -> None:
        """Cost one candidate (baseline estimate + RRS configuration search).

        Cost, settings, evaluation count and the candidate's exact
        cost-service delta are written onto ``record``.
        """
        self._budget.check("search.candidate")
        fault_site("search.candidate", rng_key=rng_key)
        with self.costs.attribute_to(record.cost_stats):
            record.estimated_cost, record.best_settings, record.rrs_evaluations = (
                self._cost_with_configurations(record.plan, unit_jobs, rng_key)
            )

    # ----------------------------------------------------------- enumeration
    def enumerate_subplans(
        self,
        plan: Plan,
        unit: OptimizationUnit,
        transformations: Sequence[Transformation],
    ) -> List[SubplanRecord]:
        """Exhaustively enumerate the unit's subplans (configuration excluded).

        Candidate plans are copies sharing their vertices: each application
        rebinds only the vertices its rewrite touches, so enumerating (and later
        re-costing) a candidate costs O(vertices touched), not O(workflow).
        """
        structural = [t for t in transformations if t.name != ConfigurationTransformation.name]
        initial = SubplanRecord(plan=plan.copy(), transformations=())
        seen = {plan.signature()}
        results: List[SubplanRecord] = [initial]
        frontier: List[Tuple[SubplanRecord, Tuple[str, ...]]] = [(initial, unit.jobs)]
        depth = 0

        while frontier and depth < MAX_ENUMERATION_DEPTH and len(results) < MAX_SUBPLANS_PER_UNIT:
            self._budget.check("search.enumerate")
            next_frontier: List[Tuple[SubplanRecord, Tuple[str, ...]]] = []
            for record, unit_jobs in frontier:
                for transformation in structural:
                    for application in transformation.find_applications(record.plan, unit_jobs):
                        try:
                            new_plan = transformation.apply(record.plan, application)
                        except SubResultUnavailableError:
                            # A concurrent eviction can retract a stored
                            # sub-result between find_applications and apply;
                            # the candidate simply disappears and the
                            # recompute plan stays in the pool.
                            continue
                        signature = new_plan.signature()
                        if signature in seen:
                            continue
                        seen.add(signature)
                        new_unit_jobs = self._updated_unit_jobs(record.plan, new_plan, unit_jobs)
                        new_record = SubplanRecord(
                            plan=new_plan,
                            transformations=record.transformations + (transformation.name,),
                            applications=record.applications + (application,),
                        )
                        results.append(new_record)
                        next_frontier.append((new_record, new_unit_jobs))
                        if len(results) >= MAX_SUBPLANS_PER_UNIT:
                            break
                    if len(results) >= MAX_SUBPLANS_PER_UNIT:
                        break
                if len(results) >= MAX_SUBPLANS_PER_UNIT:
                    break
            frontier = next_frontier
            depth += 1
        return results

    @staticmethod
    def _updated_unit_jobs(old_plan: Plan, new_plan: Plan, unit_jobs: Tuple[str, ...]) -> Tuple[str, ...]:
        old_names = set(old_plan.workflow.job_names)
        new_names = set(new_plan.workflow.job_names)
        created = [name for name in new_plan.workflow.job_names if name not in old_names]
        surviving = [name for name in unit_jobs if name in new_names]
        return tuple(surviving + [name for name in created if name not in surviving])

    # ----------------------------------------------------------- composition
    @staticmethod
    def _replay_applications(
        plan: Plan,
        applications: Sequence[TransformationApplication],
        transformations: Sequence[Transformation],
    ) -> Plan:
        """Re-apply a chosen candidate's application chain onto ``plan``.

        Used when several independent sub-units each chose a rewrite: the
        chains target disjoint vertex sets, so replaying them sequentially
        reproduces each sub-unit's chosen subplan exactly.
        """
        registry = {t.name: t for t in transformations}
        current = plan
        for application in applications:
            transformation = registry.get(application.transformation)
            if transformation is None:
                raise KeyError(
                    f"cannot replay application of unknown transformation "
                    f"{application.transformation!r}"
                )
            current = transformation.apply(current, application)
        return current

    # ------------------------------------------------------------- costing
    def _cost_with_configurations(
        self, plan: Plan, unit_jobs: Tuple[str, ...], rng_key: str
    ) -> Tuple[float, Dict[str, Mapping[str, object]], int]:
        workflow = plan.workflow
        # One session for the baseline and every sample: its first answer is their base.
        with self.costs.overlay(workflow) as session:
            baseline_estimate = session.estimate()
            if baseline_estimate.cost_basis != "whatif" or not self.optimize_configurations:
                return baseline_estimate.total_s, {}, 0

            jobs_to_tune = [name for name in unit_jobs if workflow.has_job(name)]
            if not jobs_to_tune:
                return baseline_estimate.total_s, {}, 0

            space, initial, tuned = self._joint_space(plan, jobs_to_tune)
            if not space.dimensions:
                return baseline_estimate.total_s, {}, 0

            rng = self._rng.fork(f"{rng_key}/{','.join(sorted(jobs_to_tune))}")
            cost = session.objective(space, tuned.items())
            check = self._budget.check

            def objective(point: Point) -> float:
                # The hottest loop of the whole search; also its finest-grained
                # deadline check (an unbounded budget costs one attribute read).
                check("search.rrs_point")
                return cost(point)

            result = self.rrs.search(space, objective, initial_point=initial, rng=rng)
        best_settings = self._settings_by_job(tuned, space.names, result.best_point)
        best_cost = min(result.best_value, baseline_estimate.total_s)
        if result.best_value > baseline_estimate.total_s:
            best_settings = {}
        return best_cost, best_settings, result.evaluations

    def _joint_space(
        self, plan: Plan, job_names: Sequence[str]
    ) -> Tuple[ConfigurationSpace, Dict[str, object], TunedJobs]:
        """The jobs' joint space (dimensions ``job::setting``), its initial point, and the way back."""
        dimensions: List[ConfigDimension] = []
        initial: Dict[str, object] = {}
        tuned: TunedJobs = {}
        for job_name in job_names:
            job_space = ConfigurationTransformation.space_for_job(plan, job_name, self.cluster)
            config = plan.workflow.job(job_name).job.config
            current = config.as_dict()
            dims = []
            for dim in job_space.dimensions:
                name = f"{job_name}::{dim.name}"
                dims.append((len(dimensions), dim.name))
                dimensions.append(ConfigDimension(name, dim.kind, dim.low, dim.high))
                initial[name] = current[dim.name]
            tuned[job_name] = tuple(dims)
        return ConfigurationSpace(dimensions=dimensions), initial, tuned

    @staticmethod
    def _settings_by_job(
        tuned: TunedJobs, names: Sequence[str], point: Mapping[str, object]
    ) -> Dict[str, Dict[str, object]]:
        """The best point split per job: ``{job: {setting: value}}``."""
        return {
            job_name: {setting: point[names[index]] for index, setting in dims}
            for job_name, dims in tuned.items()
        }


def record_unit_jobs(record: SubplanRecord, unit: OptimizationUnit) -> Tuple[str, ...]:
    """Unit job names that still exist in a candidate subplan, plus merges.

    Merged jobs are resolved through the plan's explicit merge provenance
    (:meth:`~repro.core.plan.Plan.merge_sources`, recorded by the packing
    transformations): any job of the candidate plan that absorbed a unit job
    keeps the unit's configuration search focused on the right jobs — no
    job-name parsing involved.
    """
    names = set(record.plan.workflow.job_names)
    surviving = [name for name in unit.jobs if name in names]
    # Unit jobs may themselves be merges from an earlier phase, so membership
    # is checked at the granularity of original job names on both sides.
    unit_sources = set()
    for name in unit.jobs:
        unit_sources.update(record.plan.merge_sources(name))
    for name in record.plan.workflow.job_names:
        if name in surviving:
            continue
        sources = record.plan.merge_sources(name)
        if len(sources) > 1 and any(source in unit_sources for source in sources):
            surviving.append(name)
    return tuple(surviving)
