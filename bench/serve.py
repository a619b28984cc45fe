"""``serve_warm`` and ``serve_churn``: a ``PlanningServer`` under two clients.

Closed loop, two clients, pool ``process:2``: a caller is a workflow
generator that blocks on its plan before it submits jobs, so a client sends
its next request when the last one returned.  One *operation* is one request.
One *cycle* is one pass of one client over the eight registered plans in
Table-1 order, from a starting plan drawn from ``--seed``; the second client
runs :data:`CLIENT_STRIDE` plans ahead of the first.  The host-speed kernel
(bench/reference.py) runs between cycles, while no request is in flight.

The server resolves a batch's responses when the whole batch is done, so two
closed-loop clients fall into step: their requests pair up, and a request's
latency is the longer service time of its pair.  Left to run free they also
fall out of step at random — the dispatcher picks up one client's request
before the other's has arrived — and then alternate: each request waits in
the queue for the other's one-request batch, which runs inline in the server
process.  Which of the two modes a run spent its time in moved a plan's median
latency by 2x between runs of the same code.  So the clients run in
**lockstep**: both send their k-th request of a cycle together, once both
(k-1)-th responses returned.  The stride is half the cycle, so a plan has the
same partner whichever client sends it, the same four pairs form in every
run, and a plan's latencies are samples of one quantity.

``serve_warm`` sends the default request seed, which set-up pre-filled: every
request is a decision-cache replay.  ``serve_churn`` draws a fresh request
seed per request: every decision lookup misses and stores.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.service import (
    PlanRequest,
    PlanResponse,
    PlanningServer,
    cold_optimize,
    oracle_fingerprint,
)
from repro.whatif.service import CostServiceStats

from bench.common import (
    DEFAULT_REQUEST_SEED,
    PLAN_LABELS,
    REFERENCE_SHARE,
    Outcome,
    PlanInput,
    Settings,
    build_canned,
    cost_metrics,
    derived_rng,
    differential_failure,
    geomean,
    latency_percentiles,
    layer_times,
    ms,
    peak_rss_mb,
    plan_centres,
    quantile,
    quartiles,
    span_counts,
)
from bench.reference import HostProbe
from bench.tracing import SERVE_ROOT, Tracer, sum_records

POOL = "process:2"
CLIENTS = 2
#: Plans the second client runs ahead of the first: half a cycle (module
#: docstring).
CLIENT_STRIDE = 4
#: Cycles after which peak memory is read: the caches grow with every fresh
#: seed, so memory at the end of a fixed time would rise with the request rate.
RSS_CYCLES = {"serve_warm": 120, "serve_churn": 4}
#: Set-up (build, start, pre-fill, persist, restart) is repeated and its
#: median reported.
SETUP_REPEATS = 3
#: ``serve_churn`` checks the first client's first cycle — each plan once —
#: against the cold oracle, which costs as much as the request it checks.
CHURN_ORACLE_CYCLES = 1


@dataclass
class _Sent:
    """One answered request (``perf_counter`` clock)."""

    start: float
    end: float
    response: PlanResponse


@dataclass
class _Phase:
    """One closed-loop measurement window."""

    name: str
    #: Per client, per cycle, in submission order.
    cycles: List[List[List[_Sent]]]
    #: ``(start, end)`` of each span in which both clients ran one cycle.
    spans: List[Tuple[float, float]]
    dispatch: Dict[str, float]
    admission: Dict[str, float]

    @property
    def sent(self) -> List[_Sent]:
        return [sent for client in self.cycles for cycle in client for sent in cycle]


class ServeRun:
    def __init__(self, settings: Settings) -> None:
        self.settings = settings
        self.cluster = ClusterSpec.paper_cluster()
        self.outcome = Outcome()
        # Forked here, before asyncio and the server start any thread.
        self.probe = HostProbe(helpers=CLIENTS)
        self.churn = settings.workload == "serve_churn"
        self.inputs: Dict[str, PlanInput] = {}
        self.server: Optional[PlanningServer] = None
        self._phases = 0
        self._oracles: Dict[Tuple[str, int], tuple] = {}
        self._peak_rss_mb: Optional[float] = None

    # ---------------------------------------------------------------- set-up
    async def _set_up(self, index: int) -> Tuple[float, float]:
        """Build + profile the plans, start the server, pre-fill, persist + restart."""
        inputs, build_s, profile_s = build_canned(self.cluster, self.settings.quick)
        self.inputs = {item.label: item for item in inputs}
        cache_dir = self.settings.work_dir / f"caches-{index}"
        cache_dir.mkdir()
        server = PlanningServer(
            self.cluster,
            pool=POOL,
            cache_path=str(cache_dir / "cost.pkl"),
            decision_cache_path=str(cache_dir / "decisions.pkl"),
        )
        for item in inputs:
            server.register_workload(item.label, item.plan)
        await server.start()
        self.server = server
        await asyncio.gather(
            *(server.submit(PlanRequest(tenant="prefill", workload=label)) for label in self.inputs)
        )
        # Workers fork warm after this; it also exercises save_cache/load_cache.
        await server.restart()
        return build_s, profile_s

    # ----------------------------------------------------------------- phase
    async def _phase(self, name: str, seconds: float) -> _Phase:
        """Both clients run cycle after cycle, in lockstep, for ``seconds``."""
        settings = self.settings
        server = self.server
        probe = self.probe
        labels = list(self.inputs)
        cycles: List[List[List[_Sent]]] = [[] for _ in range(CLIENTS)]
        spans: List[Tuple[float, float]] = []
        self._phases += 1
        first = derived_rng(settings.seed, self._phases).randrange(len(labels))
        # One stream per client: which request gets which seed must not hang
        # on how the two coroutines interleave.
        rngs = [
            derived_rng(settings.seed, 1000 * self._phases + index + 1) for index in range(CLIENTS)
        ]
        dispatch_before = server.dispatch_stats()
        admission_before = server.admission.stats.as_dict()

        async def send(index: int, step: int) -> _Sent:
            label = labels[(first + index * CLIENT_STRIDE + step) % len(labels)]
            seed = rngs[index].randrange(1, 2**31) if self.churn else DEFAULT_REQUEST_SEED
            request = PlanRequest(tenant=f"client{index}", workload=label, seed=seed)
            start = perf_counter()
            response = await server.submit(request)
            return _Sent(start, perf_counter(), response)

        async def cycle() -> None:
            sent: List[List[_Sent]] = [[] for _ in range(CLIENTS)]
            for step in range(len(labels)):
                # In lockstep (module docstring): the clients' requests of one
                # step go out together, once both of the last step returned.
                pair = await asyncio.gather(*(send(index, step) for index in range(CLIENTS)))
                for index, item in enumerate(pair):
                    sent[index].append(item)
            for index in range(CLIENTS):
                cycles[index].append(sent[index])

        deadline = perf_counter() + seconds
        probe.sample_for(0.0)
        while True:
            start = perf_counter()
            await cycle()
            end = perf_counter()
            spans.append((start, end))
            # Nothing is in flight: the kernel runs beside no request.
            probe.sample_after(end - start)
            if len(spans) == RSS_CYCLES[settings.workload] and self._peak_rss_mb is None:
                self._peak_rss_mb = self._read_peak_rss_mb()
            now = perf_counter()
            if settings.quick or now + (now - start) / 2 > deadline:
                break
        if self._peak_rss_mb is None:
            self._peak_rss_mb = self._read_peak_rss_mb()

        dispatch = server.dispatch_stats()
        loads = [
            after - before
            for after, before in zip(
                dispatch.load_per_worker,
                dispatch_before.load_per_worker + [0.0] * len(dispatch.load_per_worker),
            )
        ]
        admission = server.admission.stats.as_dict()
        return _Phase(
            name=name,
            cycles=cycles,
            spans=spans,
            dispatch={
                "runs": dispatch.runs - dispatch_before.runs,
                "tasks": dispatch.tasks - dispatch_before.tasks,
                "steals": dispatch.steals - dispatch_before.steals,
                "worker_deaths": dispatch.worker_deaths - dispatch_before.worker_deaths,
                "retried_tasks": dispatch.retried_tasks - dispatch_before.retried_tasks,
                "idle_cost_units": max(loads) * len(loads) - sum(loads) if loads else 0.0,
            },
            admission={
                # peak_depth is a high-water mark, not a counter.
                key: value if key == "peak_depth" else value - admission_before[key]
                for key, value in admission.items()
            },
        )

    def _read_peak_rss_mb(self) -> float:
        """Peak resident set of this interpreter plus its largest pool worker."""
        workers = [0.0]
        for pid in self.server.worker_pids():
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        workers.append(int(line.split()[1]) / 1024.0)
        return peak_rss_mb() + max(workers)

    # ------------------------------------------------------------------- run
    async def run(self) -> Outcome:
        """Measure; whatever happens, leave no server or helper process behind."""
        try:
            return await self._run()
        finally:
            if self.server is not None:
                await self.server.stop(persist=False)
            self.probe.close()

    async def _run(self) -> Outcome:
        settings = self.settings
        outcome = self.outcome
        metrics = outcome.metrics
        probe = self.probe

        began = perf_counter()
        setups = []
        for index in range(1 if settings.quick else SETUP_REPEATS):
            if self.server is not None:
                await self.server.stop(persist=False)
            probe.sample_for(0.1)
            started = perf_counter()
            build_s, profile_s = await self._set_up(index)
            setups.append((started, perf_counter()))
            probe.sample_for(0.1)
        metrics["setup_s"] = statistics.median(probe.scaled(*setup) for setup in setups)
        outcome.detail["setup_raw_s"] = [end - start for start, end in setups]
        server = self.server

        started = perf_counter()
        if not settings.traced:
            phase = await self._phase("timed", settings.seconds)
            self._end_to_end(phase)
            phases = [phase]
        else:
            self._time_persistence()
            # Untraced before and after the traced phase: a churned server
            # slows as it runs (a cycle takes half as long again after eight),
            # and the mean of the two sits where the traced phase does.
            share = settings.seconds * REFERENCE_SHARE / 2
            before = await self._phase("reference-before", share)
            tracer = Tracer(settings.work_dir)
            with tracer:
                # Re-fork so the pool workers carry the wrappers too.
                await server.restart(persist=False)
                phase = await self._phase("traced", settings.seconds * (1.0 - REFERENCE_SHARE))
            await server.restart(persist=False)
            after = await self._phase("reference-after", share)
            await server.stop(persist=False)
            self._per_layer([before, after], phase, tracer)
            if settings.out_dir is not None:
                tracer.write_spans(settings.out_dir / f"spans-{settings.workload}.jsonl")
            phases = [before, phase, after]

        measured = perf_counter()
        verify_s = 0.0
        for phase in phases:
            outcome.attempted += len(phase.sent)
            verify_s += self._verify(phase)
        outcome.detail["wall_s"] = {
            "set-up": started - began,
            "measuring": measured - started,
            "checking": perf_counter() - measured,
        }
        metrics["workloads.build_ms"] = ms(build_s)
        metrics["profiler.profile_ms"] = ms(profile_s)
        metrics["verification.differential_ms"] = ms(verify_s)
        outcome.detail["requests"] = outcome.attempted
        outcome.detail["clients"] = CLIENTS
        outcome.detail["pool"] = POOL
        outcome.detail["host"] = probe.summary()
        return outcome

    def _time_persistence(self) -> None:
        """Save and load the cost cache as set-up's ``restart()`` just did.

        Timed by direct calls, on the store set-up persisted, because tracing
        is installed only after set-up.
        """
        costs = self.server.costs
        started = perf_counter()
        costs.save_cache(merge_first=True)
        saved = perf_counter()
        costs.load_cache()
        loaded = perf_counter()
        self.outcome.metrics["whatif.service.save_cache_ms"] = ms(saved - started)
        self.outcome.metrics["whatif.service.load_cache_ms"] = ms(loaded - saved)

    def _end_to_end(self, phase: _Phase) -> None:
        metrics = self.outcome.metrics
        detail = self.outcome.detail
        probe = self.probe
        sent = phase.sent
        # One factor per span: the kernel ran right before and right after it.
        factors = [probe.factor(start, end) for start, end in phase.spans]
        by_plan: Dict[str, List[float]] = {}
        raw_by_plan: Dict[str, List[float]] = {}
        for client in phase.cycles:
            for cycle, factor in zip(client, factors):
                for item in cycle:
                    label = item.response.workload
                    by_plan.setdefault(label, []).append(item.response.latency_s / factor)
                    raw_by_plan.setdefault(label, []).append(item.response.latency_s)
        cycles = [
            (cycle[-1].end - cycle[0].start) / factor
            for client in phase.cycles
            for cycle, factor in zip(client, factors)
        ]
        spans = [(end - start) / factor for (start, end), factor in zip(phase.spans, factors)]
        # As on cold_*: one client's pass in which every plan takes its centre.
        # The median over the cycles themselves spread wider on serve_churn
        # (7.8 and 10.5 % against 4.2 and 8.1 %): one slowed request slows its
        # whole cycle.
        centres = plan_centres(by_plan)
        metrics["optimize_sweep_s"] = sum(centres.values())
        metrics.update(latency_percentiles(centres))
        metrics["throughput_rps"] = len(sent) / sum(spans)
        # The first cycles alone: their requests hang on --seed, not on how
        # many cycles fit.
        metrics["plan_speedup_x"] = geomean(
            [
                self.inputs[item.response.workload].base_cost_s / item.response.estimated_cost_s
                for client in phase.cycles
                for item in client[0]
                if item.response.ok and item.response.estimated_cost_s > 0
            ]
        )
        metrics["peak_rss_mb"] = self._peak_rss_mb
        detail["cycle_s_quartiles"] = quartiles(cycles)
        detail["cycles"] = len(cycles)
        detail["latency_samples_per_plan"] = min(len(samples) for samples in by_plan.values())
        raw_centres = plan_centres(raw_by_plan)
        detail["raw"] = {
            "optimize_sweep_s": sum(raw_centres.values()),
            "throughput_rps": len(sent) / sum(end - start for start, end in phase.spans),
            **latency_percentiles(raw_centres),
        }
        detail["ops"] = [
            [item.response.workload, item.start, item.end, item.response.latency_s] for item in sent
        ]
        detail["spans"] = phase.spans
        detail["kernel"] = probe.samples

    def _per_layer(self, references: List[_Phase], phase: _Phase, tracer: Tracer) -> None:
        metrics = self.outcome.metrics
        detail = self.outcome.detail
        responses = [item.response for item in phase.sent]
        count = float(len(responses))
        # One factor for the traced phase: worker-side records carry no clock.
        factor = self.probe.factor(phase.spans[0][0], phase.spans[-1][1])

        # Span sums: every served request of the traced phase, whichever
        # process ran it (pool workers hand theirs over through files).
        records = [
            record
            for record in tracer.take_requests() + tracer.worker_requests()
            if record["root"] == SERVE_ROOT
        ]
        self_s, calls, counts = sum_records(records)
        traced = float(max(len(records), 1))
        metrics.update(layer_times(self_s, traced * factor))
        metrics.update(span_counts(calls, counts, traced))
        metrics["core.optimizer.py_calls_per_query"] = 0.0  # not profiled across the fork

        service_by_plan: Dict[str, List[float]] = {label: [] for label in PLAN_LABELS}
        cost_stats = CostServiceStats()
        decision_hits = decision_lookups = stores = replayed = probes = 0
        for response in responses:
            cost_stats.accumulate(response.cost_stats)
            decision_hits += response.decision_stats.decision_hits
            decision_lookups += response.decision_stats.lookups
            stores += response.decision_stats.stores
            replayed += response.decision_stats.replayed_subunits
            probes += response.subresult_stats.lookups
        # Per plan: service time in the untraced reference phases of this run.
        for reference in references:
            reference_factor = self.probe.factor(reference.spans[0][0], reference.spans[-1][1])
            for item in reference.sent:
                service_by_plan[item.response.workload].append(
                    item.response.service_s / reference_factor
                )
        for label, samples in service_by_plan.items():
            metrics[f"core.optimizer.optimize_ms.{label}"] = (
                ms(statistics.median(samples)) if samples else 0.0
            )
        metrics.update(cost_metrics(cost_stats, count))
        metrics["core.decision_cache.hit_rate"] = decision_hits / max(decision_lookups, 1)
        metrics["core.decision_cache.stores"] = stores / count
        metrics["core.decision_cache.replayed_subunits"] = replayed / count
        metrics["core.subresults.probes"] = probes / count
        # In-worker engines and graph counters are not visible from here.
        for name in (
            "core.search.units",
            "core.search.subplans",
            "core.search.composition_queries",
            "whatif.model.signature_derivations",
            "whatif.model.signature_memo_hit_rate",
            "workflow.graph.workflow_copies",
            "workflow.graph.vertex_copies",
            "workflow.graph.vertex_shell_copies",
            "workflow.graph.index_copies",
            "workflow.graph.toposort_builds",
        ):
            metrics[name] = 0.0

        def scaled_ms(samples: List[float], q: float) -> float:
            return ms(quantile(samples, q)) / factor

        waits = [response.queue_wait_s for response in responses]
        services = [response.service_s for response in responses]
        overheads = [
            response.latency_s - response.queue_wait_s - response.service_s
            for response in responses
        ]
        metrics["service.admission.queue_wait_p50_ms"] = scaled_ms(waits, 50)
        metrics["service.admission.queue_wait_p90_ms"] = scaled_ms(waits, 90)
        metrics["service.admission.peak_depth"] = float(phase.admission["peak_depth"])
        metrics["service.admission.rejected"] = float(phase.admission["rejected"])
        metrics["service.admission.shed_expired"] = float(phase.admission["shed_expired"])
        metrics["service.server.service_p50_ms"] = scaled_ms(services, 50)
        metrics["service.server.overhead_p50_ms"] = scaled_ms(overheads, 50)
        metrics["service.server.overhead_p90_ms"] = scaled_ms(overheads, 90)
        metrics["service.server.latency_p99_ms"] = scaled_ms(
            [response.latency_s for response in responses], 99
        )
        metrics["service.server.batch_size_mean"] = phase.dispatch["tasks"] / max(
            phase.dispatch["runs"], 1
        )
        metrics["service.degradation.degraded_share"] = (
            sum(1 for response in responses if response.degradation_level != 0) / count
        )
        metrics["service.degradation.breaker_trips"] = float(
            sum(tenant.breaker_trips for tenant in self.server.stats.tenants.values())
        )
        for name in ("steals", "idle_cost_units", "worker_deaths", "retried_tasks"):
            metrics[f"core.parallel.{name}"] = float(phase.dispatch[name])

        # Overhead where the wrappers run: service time, plan by plan.
        traced_by_plan: Dict[str, List[float]] = {}
        for response in responses:
            traced_by_plan.setdefault(response.workload, []).append(response.service_s)
        metrics["bench.trace_overhead_share"] = statistics.median(
            statistics.median(traced_by_plan[label]) / factor / statistics.median(samples) - 1.0
            for label, samples in service_by_plan.items()
            if samples and label in traced_by_plan
        )
        metrics["bench.span_count"] = float(sum(calls.values()))
        service_s = sum(services)
        detail["span_reconciliation_error"] = abs(service_s - sum(self_s.values())) / service_s
        detail["spans_kept"] = len(tracer.spans)
        detail["traced_requests"] = len(records)
        detail["reference_requests"] = sum(len(reference.sent) for reference in references)
        detail["latency_p99_samples_beyond"] = int(len(responses) * 0.01)

    # ---------------------------------------------------------------- verify
    def _verify(self, phase: _Phase) -> float:
        """Every response is full-rung and ok.  Those of ``serve_warm``, and
        one cycle of ``serve_churn``, also equal the cold oracle, whose
        optimized plan passes differential execution."""
        outcome = self.outcome
        verify_s = 0.0
        oracles = self._oracles
        for index, client in enumerate(phase.cycles):
            for number, cycle in enumerate(client):
                for position, item in enumerate(cycle):
                    response = item.response
                    operation = (phase.name, index, number, position)
                    context = (
                        f"{phase.name} client{index} cycle {number} request {position} "
                        f"({response.workload}, seed {response.seed})"
                    )
                    if not response.ok or response.shed or response.degradation_level != 0:
                        outcome.fail(
                            operation,
                            f"{context}: ok={response.ok} shed={response.shed} "
                            f"degradation={response.degradation} {response.error}",
                        )
                        continue
                    if self.churn and (
                        phase.name.startswith("reference")
                        or index > 0
                        or number >= CHURN_ORACLE_CYCLES
                    ):
                        continue
                    key = (response.workload, response.seed)
                    if key not in oracles:
                        plan_input = self.inputs[response.workload]
                        result = cold_optimize(
                            self.cluster, plan_input.plan, response.optimizer, response.seed
                        )
                        oracles[key] = oracle_fingerprint(result)
                        failure, seconds = differential_failure(plan_input, result)
                        if failure is not None:
                            outcome.fail(operation, f"{context}: {failure}")
                        verify_s += seconds
                    if response.identity() != oracles[key]:
                        outcome.fail(operation, f"{context}: differs from the cold oracle")
        return verify_s
