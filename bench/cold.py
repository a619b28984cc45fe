"""``cold_canned`` and ``cold_wide``: cold serial ``optimize()`` calls.

One *operation* is one ``StubbyOptimizer(cluster, backend="serial").optimize(plan)``
with a fresh optimizer — a fresh ``CostService``, ``DecisionCache`` and
``SubResultCatalog`` — so nothing is warm.  One *round* is one sweep over the
workload's plans.  Round ``r`` of ``--seed S`` always gets the same inputs:
``cold_canned`` keeps the eight profiled Table-1 plans and draws one optimizer
seed per plan and round, so a run covers a hundred searches and its centres
are steady across ``--seed`` values although a single search is not (the
what-if queries of one ``optimize()`` move by +-10 % with its seed);
``cold_wide`` keeps three fixed DAGs and the default optimizer seed, and draws
the order within the round.

Counts are those of round 0, which repeat exactly for one ``--seed``.
"""

from __future__ import annotations

import cProfile
import statistics
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.core.optimizer import OptimizationResult, StubbyOptimizer
from repro.whatif.service import CostServiceStats
from repro.workflow.graph import COPY_COUNTERS, TOPOLOGY_COUNTERS

from bench.common import (
    PLAN_LABELS,
    REFERENCE_SHARE,
    Outcome,
    PlanInput,
    Settings,
    build_canned,
    build_wide,
    centre,
    cost_metrics,
    derived_rng,
    differential_failure,
    geomean,
    latency_percentiles,
    layer_times,
    ms,
    peak_rss_mb,
    plan_centres,
    quartiles,
    span_counts,
)
from bench.reference import HostProbe
from bench.tracing import Tracer, sum_records

#: Set-up is repeated and its median reported; it takes a fraction of a second.
SETUP_REPEATS = 5

#: Per-layer metrics only the serving workloads exercise: 0 on ``cold_*``.
SERVICE_ZEROS = dict.fromkeys(
    (
        "service.admission.queue_wait_p50_ms",
        "service.admission.queue_wait_p90_ms",
        "service.admission.peak_depth",
        "service.admission.rejected",
        "service.admission.shed_expired",
        "service.server.service_p50_ms",
        "service.server.overhead_p50_ms",
        "service.server.overhead_p90_ms",
        "service.server.latency_p99_ms",
        "service.server.batch_size_mean",
        "service.degradation.degraded_share",
        "service.degradation.breaker_trips",
        "core.parallel.steals",
        "core.parallel.idle_cost_units",
        "core.parallel.worker_deaths",
        "core.parallel.retried_tasks",
        "whatif.service.save_cache_ms",
        "whatif.service.load_cache_ms",
    ),
    0.0,
)


@dataclass
class _Op:
    """One timed ``optimize()`` call (``perf_counter`` clock)."""

    label: str
    seed: int
    start: float
    end: float
    speedup: float
    fingerprint: tuple


@dataclass
class _Round:
    """One sweep over the workload's plans."""

    ops: List[_Op]
    #: Layer counters of this sweep, from the layers' own public counters.
    counters: Dict[str, float]
    cost_stats: CostServiceStats
    results: List[OptimizationResult]


class ColdRun:
    def __init__(self, settings: Settings) -> None:
        self.settings = settings
        self.cluster = ClusterSpec.paper_cluster()
        self.outcome = Outcome()
        self.probe = HostProbe()

    # ---------------------------------------------------------------- inputs
    def _build(self) -> Tuple[List[PlanInput], float, float]:
        """Build and profile the workload's plans: (inputs, build s, profile s)."""
        if self.settings.workload == "cold_wide":
            return build_wide(self.cluster, self.settings.quick)
        return build_canned(self.cluster, self.settings.quick)

    def _round_inputs(self, plans: List[PlanInput], round_index: int) -> List[PlanInput]:
        """Inputs of one round: the same for the same (seed, round)."""
        rng = derived_rng(self.settings.seed, round_index)
        if self.settings.workload == "cold_wide":
            # Fixed DAGs and optimizer seed (bench/common.py, WIDE_DAG_SEED);
            # --seed draws the order they are optimized in.
            return rng.sample(plans, len(plans))
        # The same profiled plans every round; the optimizer seed is what varies.
        return [replace(item, seed=rng.randrange(1, 2**31)) for item in plans]

    # ----------------------------------------------------------------- sweep
    def _sweep(self, window: str, inputs: List[PlanInput], keep_results: bool = False) -> _Round:
        probe = self.probe
        outcome = self.outcome
        copies_before = COPY_COUNTERS.snapshot()
        topology_before = TOPOLOGY_COUNTERS.snapshot()
        ops: List[_Op] = []
        results: List[OptimizationResult] = []
        cost_stats = CostServiceStats()
        counters = dict.fromkeys(
            (
                "core.search.units",
                "core.search.subplans",
                "core.search.composition_queries",
                "whatif.model.signature_derivations",
                "signature_memo_hits",
                "decision_hits",
                "decision_lookups",
                "core.decision_cache.stores",
                "core.decision_cache.replayed_subunits",
                "core.subresults.probes",
            ),
            0,
        )
        probe.sample_for(0.0)
        for item in inputs:
            outcome.attempted += 1
            start = perf_counter()
            try:
                optimizer = StubbyOptimizer(self.cluster, backend="serial", seed=item.seed)
                result = optimizer.optimize(item.plan)
            except Exception as exc:  # an operation that fails is counted, not fatal
                outcome.fail((window, outcome.attempted), f"optimize({item.label}): {exc!r}")
                continue
            end = perf_counter()
            probe.sample_after(end - start)
            ops.append(
                _Op(
                    label=item.label,
                    seed=item.seed,
                    start=start,
                    end=end,
                    speedup=item.base_cost_s / result.estimated_cost_s,
                    fingerprint=result.decision_fingerprint(),
                )
            )
            cost_stats.accumulate(result.cost_stats)
            decisions = optimizer.decisions.stats_snapshot()
            counters["core.search.units"] += len(result.unit_reports)
            counters["core.search.subplans"] += sum(len(r.subplans) for r in result.unit_reports)
            counters["core.search.composition_queries"] += sum(
                r.composition_queries for r in result.unit_reports
            )
            counters["whatif.model.signature_derivations"] += optimizer.whatif.signature_derivations
            counters["signature_memo_hits"] += optimizer.whatif.signature_memo_hits
            counters["decision_hits"] += decisions.decision_hits
            counters["decision_lookups"] += decisions.lookups
            counters["core.decision_cache.stores"] += decisions.stores
            counters["core.decision_cache.replayed_subunits"] += decisions.replayed_subunits
            counters["core.subresults.probes"] += optimizer.subresults.stats_snapshot().lookups
            if keep_results:
                results.append(result)
            # Torn down here, or the next call's timing pays for freeing this
            # one's caches: +18 % on a 31-job search after the 100-job one.
            del optimizer, result
        copies = COPY_COUNTERS.snapshot()
        topology = TOPOLOGY_COUNTERS.snapshot()
        for name in ("workflow_copies", "vertex_copies", "vertex_shell_copies"):
            counters[f"workflow.graph.{name}"] = copies[name] - copies_before[name]
        for name in ("index_copies", "toposort_builds"):
            counters[f"workflow.graph.{name}"] = topology[name] - topology_before[name]
        return _Round(ops, counters, cost_stats, results)

    def _rounds_until(
        self, window: str, plans: List[PlanInput], deadline: float, tracer: Optional[Tracer] = None
    ) -> Tuple[List[_Round], List[List[dict]]]:
        """Sweep round 0, 1, ... until ``deadline``; at least one round."""
        rounds: List[_Round] = []
        records: List[List[dict]] = []
        while True:
            started = perf_counter()
            rounds.append(self._sweep(window, self._round_inputs(plans, len(rounds))))
            if tracer is not None:
                records.append(tracer.take_requests())
            # Stop where the next round would end further past the deadline
            # than this one ended before it.
            now = perf_counter()
            if self.settings.quick or now + (now - started) / 2 > deadline:
                return rounds, records

    # ------------------------------------------------------------------- run
    def run(self) -> Outcome:
        settings = self.settings
        outcome = self.outcome
        metrics = outcome.metrics
        probe = self.probe

        began = perf_counter()
        setups = []
        for _ in range(1 if settings.quick else SETUP_REPEATS):
            probe.sample_for(0.05)
            started = perf_counter()
            plans, build_s, profile_s = self._build()
            setups.append((started, perf_counter()))
            probe.sample_for(0.05)
        metrics["setup_s"] = statistics.median(probe.scaled(*setup) for setup in setups)
        outcome.detail["setup_raw_s"] = [end - start for start, end in setups]

        # Discarded for timing (imports, allocator, code caches); kept for the
        # checks: each plan's optimized result, and a second fingerprint of it.
        set_up = perf_counter()
        inputs = self._round_inputs(plans, 0)
        warm_up = self._sweep("warm-up", inputs, keep_results=True)
        outcome.attempted = 0

        started = perf_counter()
        if not settings.traced:
            rounds, _ = self._rounds_until("timed", plans, started + settings.seconds)
            self._end_to_end(rounds)
        else:
            reference, _ = self._rounds_until(
                "reference", plans, started + settings.seconds * REFERENCE_SHARE
            )
            calls_per_query, calls_by_layer = self._profile_calls(inputs)
            tracer = Tracer(settings.work_dir)
            with tracer:
                rounds, records = self._rounds_until(
                    "traced", plans, started + settings.seconds, tracer
                )
            self._per_layer(reference, rounds, records, tracer)
            metrics["core.optimizer.py_calls_per_query"] = calls_per_query
            outcome.detail["py_calls_per_query_by_plan_and_layer"] = calls_by_layer
            if settings.out_dir is not None:
                tracer.write_spans(settings.out_dir / f"spans-{settings.workload}.jsonl")
            rounds = reference + rounds

        measured = perf_counter()
        verify_s = self._verify(inputs, warm_up, rounds)
        outcome.detail["wall_s"] = {
            "set-up": set_up - began,
            "warm-up": started - set_up,
            "measuring": measured - started,
            "checking": perf_counter() - measured,
        }
        metrics["workloads.build_ms"] = ms(build_s)
        metrics["profiler.profile_ms"] = ms(profile_s)
        metrics["verification.differential_ms"] = ms(verify_s)
        outcome.detail["rounds"] = len(rounds)
        outcome.detail["optimize_calls"] = outcome.attempted
        outcome.detail["host"] = probe.summary()
        return outcome

    def _scaled(self, op: _Op) -> float:
        return self.probe.scaled(op.start, op.end)

    def _plan_centres(self, rounds: List[_Round], scaled: bool = True) -> Dict[str, float]:
        """Per plan, the centre over ``rounds`` of one ``optimize()`` call's seconds."""
        samples: Dict[str, List[float]] = {}
        for round_ in rounds:
            for op in round_.ops:
                seconds = self._scaled(op) if scaled else op.end - op.start
                samples.setdefault(op.label, []).append(seconds)
        return plan_centres(samples)

    @staticmethod
    def _times(centres: Dict[str, float]) -> Dict[str, float]:
        """The time metrics of a sweep in which every plan takes its centre.

        Centres per plan first, because the host's slow spells come in bursts:
        a burst spoils one sample of one plan, but the whole sum of the sweep
        it falls into.
        """
        sweep_s = sum(centres.values())
        return {
            "optimize_sweep_s": sweep_s,
            # One serial caller: it completes a call every mean latency.
            "throughput_rps": len(centres) / sweep_s,
            **latency_percentiles(centres),
        }

    def _end_to_end(self, rounds: List[_Round]) -> None:
        metrics = self.outcome.metrics
        detail = self.outcome.detail
        ops = [op for round_ in rounds for op in round_.ops]
        metrics.update(self._times(self._plan_centres(rounds)))
        # Round 0 alone: its inputs hang on --seed, not on how many rounds fit.
        metrics["plan_speedup_x"] = geomean([op.speedup for op in rounds[0].ops])
        metrics["peak_rss_mb"] = peak_rss_mb()
        detail["optimize_sweep_s_quartiles"] = quartiles(
            [sum(self._scaled(op) for op in round_.ops) for round_ in rounds]
        )
        detail["samples_per_plan"] = len(rounds)
        detail["raw"] = self._times(self._plan_centres(rounds, scaled=False))
        detail["ops"] = [
            [op.label, op.start, op.end, self.probe.factor(op.start, op.end)] for op in ops
        ]
        detail["kernel"] = self.probe.samples

    def _per_layer(
        self,
        reference: List[_Round],
        rounds: List[_Round],
        records: List[List[dict]],
        tracer: Tracer,
    ) -> None:
        metrics = self.outcome.metrics
        detail = self.outcome.detail
        metrics.update(SERVICE_ZEROS)

        # Times: per plan and layer, the centre over traced rounds of the
        # layer's self time (scaled by the host factor of the optimize() call
        # it ran in), summed over the plans like the sweep itself.
        samples: Dict[Tuple[str, str], List[float]] = {}
        for round_, round_records in zip(rounds, records):
            for op, record in zip(round_.ops, round_records):
                factor = self.probe.factor(op.start, op.end)
                for key, seconds in record["self_s"].items():
                    samples.setdefault((op.label, key), []).append(seconds / factor)
        self_s: Dict[str, float] = {}
        by_plan: Dict[str, Dict[str, float]] = {}
        for (label, key), values in samples.items():
            typical = centre(values)
            self_s[key] = self_s.get(key, 0.0) + typical
            by_plan.setdefault(label, {})[key] = ms(typical)
        metrics.update(layer_times(self_s, 1.0))
        detail["self_ms_by_plan_and_layer"] = by_plan
        # Per plan: the untraced reference rounds of this run.
        reference_centres = self._plan_centres(reference)
        for label in PLAN_LABELS:
            metrics[f"core.optimizer.optimize_ms.{label}"] = ms(reference_centres.get(label, 0.0))

        # Counts: the first traced round, whose inputs depend on --seed alone.
        first = rounds[0]
        _self_s, calls, counts = sum_records(records[0])
        metrics.update(span_counts(calls, counts, 1.0))
        metrics.update(cost_metrics(first.cost_stats, 1.0))
        counters = first.counters
        for name, value in counters.items():
            if "." in name:
                metrics[name] = float(value)
        signatures = counters["whatif.model.signature_derivations"] + counters["signature_memo_hits"]
        metrics["whatif.model.signature_memo_hit_rate"] = counters["signature_memo_hits"] / max(
            signatures, 1
        )
        metrics["core.decision_cache.hit_rate"] = counters["decision_hits"] / max(
            counters["decision_lookups"], 1
        )

        # Spans against the bench's own clock: every traced second of a sweep
        # is some span's self time, except the optimizer constructor.
        traced_s = sum(sum(sum_records(r)[0].values()) for r in records)
        sweep_s = sum(op.end - op.start for round_ in rounds for op in round_.ops)
        traced = sum(self._plan_centres(rounds).values())
        metrics["bench.trace_overhead_share"] = traced / sum(reference_centres.values()) - 1.0
        metrics["bench.span_count"] = float(sum(sum(sum_records(r)[1].values()) for r in records))
        detail["span_reconciliation_error"] = abs(sweep_s - traced_s) / sweep_s
        detail["spans_kept"] = len(tracer.spans)
        detail["traced_rounds"] = len(rounds)
        detail["reference_rounds"] = len(reference)

    def _profile_calls(self, inputs: List[PlanInput]) -> Tuple[float, Dict[str, Dict[str, float]]]:
        """One untraced profiled pass: calls per what-if query, by plan and layer."""
        by_plan: Dict[str, Dict[str, float]] = {}
        total_calls = total_queries = 0
        for item in inputs:
            profile = cProfile.Profile()
            profile.enable()
            try:
                result = StubbyOptimizer(self.cluster, backend="serial", seed=item.seed).optimize(
                    item.plan
                )
            finally:
                profile.disable()
            queries = max(result.whatif_queries, 1)
            layers: Dict[str, float] = {}
            for entry in profile.getstats():
                layer = _layer_of(entry.code)
                layers[layer] = layers.get(layer, 0.0) + entry.callcount / queries
                total_calls += entry.callcount
            total_queries += queries
            layers["total"] = sum(layers.values())
            layers["whatif_queries"] = float(result.whatif_queries)
            by_plan[item.label] = layers
        return total_calls / total_queries, by_plan

    def _verify(self, inputs: List[PlanInput], warm_up: _Round, rounds: List[_Round]) -> float:
        """Optimizes of the same plan and seed chose alike, and each round-0
        plan's optimized outputs equal the unoptimized plan's."""
        outcome = self.outcome
        fingerprints: Dict[Tuple[str, int], tuple] = {}
        for index, round_ in enumerate([warm_up] + rounds):
            for position, op in enumerate(round_.ops):
                first = fingerprints.setdefault((op.label, op.seed), op.fingerprint)
                if op.fingerprint != first:
                    outcome.fail(
                        (f"round {index - 1}", position),
                        f"{op.label}: two optimizes of the same plan and seed differ",
                    )
        verify_s = 0.0
        for position, (item, result) in enumerate(zip(inputs, warm_up.results)):
            failure, seconds = differential_failure(item, result)
            if failure is not None:
                outcome.fail(("warm-up", position), f"optimize({item.label}): {failure}")
            verify_s += seconds
        return verify_s


def _layer_of(code) -> str:
    """``src/repro`` module of a profiled function, as ``package.module``."""
    if isinstance(code, str):
        return "builtins"
    filename = code.co_filename
    index = filename.rfind("/repro/")
    if index < 0:
        return "stdlib" if "/bench/" not in filename else "bench"
    parts = filename[index + len("/repro/") : -len(".py")].split("/")
    return ".".join(parts[:2])
