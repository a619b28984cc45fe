"""What the cold and the serving workloads share: inputs, outcome, layer tables."""

from __future__ import annotations

import math
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster import ClusterSpec
from repro.core.optimizer import OptimizationResult
from repro.core.plan import Plan
from repro.profiler import Profiler
from repro.verification import DifferentialExecutor, RandomWorkflowGenerator
from repro.whatif.service import CostService, CostServiceStats
from repro.workflow.graph import Workflow
from repro.workloads import WORKLOAD_ORDER, build_workload

from bench.tracing import OPTIMIZE_ROOT

CANNED_SCALE = 0.15
CANNED_DATA_SEED = 42
#: (plan label, generator method, shape arguments): 32 / 31 / 100 jobs.
WIDE_SHAPES = (
    ("fanout32", "wide_fanout", {"num_jobs": 32}),
    ("rollup31", "telemetry_rollup", {"num_channels": 26, "fanin": 8}),
    ("rollup100", "telemetry_rollup", {"num_channels": 88, "fanin": 8}),
)
#: The wide DAGs are generated from this seed, ``+1`` and ``+2``, whatever
#: ``--seed`` is.  A run holds five rounds of the 100-job search, and the
#: what-if queries of one such search move by +-7 % with its DAG or optimizer
#: seed: drawn from ``--seed``, that alone spread ``optimize_sweep_s`` by
#: 10 % between runs (bench/README.md, "Steadiness").
WIDE_DAG_SEED = 1
PLAN_LABELS = tuple(WORKLOAD_ORDER) + tuple(shape[0] for shape in WIDE_SHAPES)
#: ``--quick`` keeps every metric name but shrinks the inputs to a smoke test.
QUICK_CANNED = ("IR", "WG", "PJ")
QUICK_WIDE_SHAPES = (
    ("fanout32", "wide_fanout", {"num_jobs": 6}),
    ("rollup31", "telemetry_rollup", {"num_channels": 5, "fanin": 3}),
    ("rollup100", "telemetry_rollup", {"num_channels": 10, "fanin": 4}),
)
DEFAULT_REQUEST_SEED = 17
#: Share of a traced run spent untraced, as the overhead reference.
REFERENCE_SHARE = 0.25


@dataclass
class Settings:
    workload: str
    seed: int
    seconds: float
    traced: bool
    quick: bool
    #: Scratch directory of this run (cache files, worker span records).
    work_dir: Path
    #: Where the raw spans go; ``None`` keeps them in memory only.
    out_dir: Optional[Path]


@dataclass
class PlanInput:
    """One plan to optimize: the profiled workflow and its unoptimized cost."""

    label: str
    plan: Plan
    workflow: Workflow
    base_datasets: dict
    base_cost_s: float
    seed: int = DEFAULT_REQUEST_SEED


@dataclass
class Outcome:
    """What one run of one workload measured."""

    #: Operations in the measured windows: ``optimize()`` calls or requests.
    attempted: int = 0
    #: Operations that failed a check, by ``(window, position)``.
    failed_operations: Set[Tuple] = field(default_factory=set)
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Raw seconds, host factors, sample counts and quartiles for the record.
    detail: Dict[str, object] = field(default_factory=dict)

    def fail(self, operation: Tuple, message: str) -> None:
        self.failed_operations.add(operation)
        self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failed_operations)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def derived_rng(seed: int, stream: int) -> random.Random:
    return random.Random(seed * 1_000_003 + stream)


def build_canned(cluster: ClusterSpec, quick: bool) -> Tuple[List[PlanInput], float, float]:
    """Build and profile the Table-1 workflows; returns (inputs, build s, profile s)."""
    build_s = profile_s = 0.0
    inputs = []
    for label in QUICK_CANNED if quick else WORKLOAD_ORDER:
        started = time.perf_counter()
        workload = build_workload(label, scale=CANNED_SCALE, seed=CANNED_DATA_SEED)
        built = time.perf_counter()
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        profile_s += time.perf_counter() - built
        build_s += built - started
        inputs.append(_plan_input(cluster, label, workload.workflow, workload.base_datasets))
    return inputs, build_s, profile_s


def build_wide(cluster: ClusterSpec, quick: bool) -> Tuple[List[PlanInput], float, float]:
    """Generate and profile the three wide DAGs; returns (inputs, build s, profile s)."""
    generator = RandomWorkflowGenerator().with_config(records_per_dataset=60, profile=False)
    build_s = profile_s = 0.0
    inputs = []
    for offset, (label, method, shape) in enumerate(QUICK_WIDE_SHAPES if quick else WIDE_SHAPES):
        started = time.perf_counter()
        generated = getattr(generator, method)(WIDE_DAG_SEED + offset, **shape)
        built = time.perf_counter()
        Profiler().profile_workflow(generated.workflow, generated.base_datasets)
        profile_s += time.perf_counter() - built
        build_s += built - started
        inputs.append(_plan_input(cluster, label, generated.workflow, generated.base_datasets))
    return inputs, build_s, profile_s


def _plan_input(cluster: ClusterSpec, label: str, workflow: Workflow, base_datasets) -> PlanInput:
    return PlanInput(
        label=label,
        plan=Plan(workflow.copy()),
        workflow=workflow,
        base_datasets=base_datasets,
        base_cost_s=CostService(cluster).estimate_workflow(workflow).total_s,
    )


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def ms(seconds: float) -> float:
    return seconds * 1e3


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolated between the two nearest ranks."""
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> List[float]:
    return [quantile(values, q) for q in (25, 50, 75)]


def centre(samples: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of the samples.

    A median that averages.  Under ``serve_churn`` close to half of a plan's
    requests are slowed by a collection in a pool worker, so the plain median
    sits where the clean and the slowed samples meet and jumps with the count
    of either: over ten runs of the same code the geometric mean over plans of
    the medians spread by 6.8 %, that of these centres by 4.3 %.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def plan_centres(samples_by_plan: Dict[str, List[float]]) -> Dict[str, float]:
    return {label: centre(samples) for label, samples in samples_by_plan.items()}


def latency_percentiles(centres: Dict[str, float]) -> Dict[str, float]:
    """The latency metrics, from the :func:`centre` of each plan's latency in seconds.

    Both are taken over the workload's plans, not over pooled samples.  A
    workload's plans differ tenfold in cost, so pooled latencies form one
    cluster per plan, and a pooled median lands between two clusters, where it
    follows whichever is noisier (20 % between runs of the same code on
    ``serve_churn``).  The 50th is the geometric mean of the plans' centres —
    the centre of a typical plan; one plan's centre alone, the nearest-rank
    median over plans, spread by 13-28 % there.  The 90th is by nearest rank:
    the slowest plan's centre.
    """
    ordered = sorted(centres.values())
    ninetieth = ordered[max(math.ceil(0.9 * len(ordered)), 1) - 1]
    return {"latency_p50_ms": ms(geomean(ordered)), "latency_p90_ms": ms(ninetieth)}


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def differential_failure(item: PlanInput, result: OptimizationResult) -> Tuple[Optional[str], float]:
    """Unoptimized against optimized plan on the local engine: (failure, seconds).

    The reference is the unoptimized workflow's output, never the optimizer.
    """
    started = time.perf_counter()
    report = DifferentialExecutor().verify_result(item.workflow, item.base_datasets, result)
    elapsed = time.perf_counter() - started
    return (None if report.equivalent else report.describe()), elapsed


# ---------------------------------------------------------------------------
# Span sums and layer counters -> per-layer metric names
# ---------------------------------------------------------------------------

#: Per-layer time metric -> the span keys (bench/tracing.py) it sums.
LAYER_TIMES = {
    "core.optimizer.unattributed_ms": (OPTIMIZE_ROOT,),
    "core.search.self_ms": ("core.search",),
    "core.optimization_unit.self_ms": ("core.optimization_unit",),
    "core.transformations.find_ms": ("core.transformations.find",),
    "core.transformations.apply_ms": ("core.transformations.apply",),
    "core.rrs.self_ms": ("core.rrs",),
    "mapreduce.job.with_config_ms": ("mapreduce.job.with_config",),
    "workflow.graph.copy_ms": ("workflow.graph.copy",),
    "whatif.service.estimate_self_ms": ("whatif.service.estimate",),
    "whatif.model.signature_ms": ("whatif.model.signature",),
    "whatif.model.derive_dataflow_ms": ("whatif.model.derive_dataflow",),
    "whatif.jobmodel.estimate_job_time_ms": ("whatif.jobmodel.estimate_job_time",),
    "whatif.scheduling.makespan_ms": ("whatif.scheduling.makespan",),
    "core.decision_cache.lookup_ms": ("core.decision_cache.lookup",),
}


def layer_times(self_s: Dict[str, float], per: float) -> Dict[str, float]:
    """Span self seconds -> the per-layer ``*_ms`` metrics, divided by ``per``."""
    return {
        name: ms(sum(self_s.get(key, 0.0) for key in keys)) / per
        for name, keys in LAYER_TIMES.items()
    }


def span_counts(calls: Dict[str, float], counts: Dict[str, float], per: float) -> Dict[str, float]:
    return {
        "core.transformations.applications": calls.get("core.transformations.apply", 0) / per,
        "core.rrs.evaluations": counts.get("core.rrs.evaluations", 0) / per,
        "core.rrs.duplicate_points": counts.get("core.rrs.duplicate_points", 0) / per,
        "mapreduce.job.with_config_calls": calls.get("mapreduce.job.with_config", 0) / per,
        "whatif.jobmodel.calls": calls.get("whatif.jobmodel.estimate_job_time", 0) / per,
        "whatif.scheduling.calls": calls.get("whatif.scheduling.makespan", 0) / per,
    }


def cost_metrics(stats: CostServiceStats, per: float) -> Dict[str, float]:
    job_queries = max(stats.job_queries, 1)
    return {
        "whatif.service.queries": stats.queries / per,
        "whatif.service.job_queries": stats.job_queries / per,
        "whatif.service.job_cache_hit_rate": stats.job_cache_hits / job_queries,
        "whatif.service.job_dataflow_hit_rate": stats.job_dataflow_hits / job_queries,
        "whatif.service.full_recost_share": stats.job_full_recosts / job_queries,
        "whatif.service.cross_origin_hits": stats.cross_origin_hits / per,
    }
