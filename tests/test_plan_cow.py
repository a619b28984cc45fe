"""Plan copies share immutable vertices: sharing, rebinding, and aliasing hazards.

``Plan.copy`` / ``Workflow.copy`` duplicate the name→vertex dicts only; the
vertices, jobs, pipelines and annotations under them are frozen values, so
the clone and the original hold the *same* objects until an edit rebinds a
name (``update_job`` / ``annotate_job`` / ``set_job_config`` /
``replace_job`` / ``add_dataset``).  These tests pin the contract from both
sides:

* the *sharing* side — copying copies no vertex, unchanged vertices stay
  identical objects, and the copy counters record it;
* the *isolation* side — editing a candidate plan (through any of the five
  transformation kinds, and through every rebinding entry point) never
  changes its parent's structural signature, configurations, merge lineage,
  or history, and every in-place write raises.

The property sweep runs every transformation over seeded random workflows —
the same generator the differential-equivalence battery replays — so any
leak shows up as a parent-fingerprint diff with the guilty seed attached.
"""

import collections
import dataclasses

import pytest

from repro.cluster import ClusterSpec
from repro.common.faults import active_plan, set_active_plan
from repro.common.hashing import stable_hash
from repro.core import search as search_module
from repro.core.decision_cache import DecisionCache
from repro.core.optimization_unit import OptimizationUnitGenerator
from repro.core.optimizer import StubbyOptimizer
from repro.core.plan import Plan
from repro.core.search import SubplanRecord
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
)
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.dfs import dataset as dataset_module
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import PartitionFunction
from repro.mapreduce.pipeline import Pipeline
from repro.profiler import Profiler
from repro.verification import RandomWorkflowGenerator
from repro.whatif.dataflow import JobDataflow
from repro.whatif import jobmodel
from repro.whatif.jobmodel import JobKernel, JobTimeEstimate
from repro.whatif.model import WhatIfEngine
from repro.whatif.service import CostService, OverlaySession
from repro.workflow.annotations import DatasetAnnotation, JobAnnotations, ProfileAnnotation
from repro.workflow.graph import COPY_COUNTERS, DatasetVertex, JobVertex, Workflow
from repro.workloads import build_workload
from tests import golden_digests as golden, key_oracle

STRUCTURAL_TRANSFORMATIONS = [
    IntraJobVerticalPacking(),
    InterJobVerticalPacking(),
    PartitionFunctionTransformation(),
    HorizontalPacking(),
]

#: Seeds for the random-workflow aliasing sweep (distinct from the
#: equivalence battery's band so the two explore different regions).
PROPERTY_SEEDS = [7100 + i for i in range(10)]


def _profiled_plan(abbr="IR", scale=0.15):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload, workload.plan


def _plan_fingerprint(plan):
    """Everything about a plan that a CoW leak could corrupt, as plain data.

    Beyond the structural :meth:`Plan.signature` (pipelines, partitioners,
    pruning filters, chaining), this captures per-job configurations, the
    identity of every annotation object (annotations are immutable, so a
    leak must rebind them), condition flags, and the plan-level history and
    merge lineage.
    """
    per_job = {}
    for vertex in plan.workflow.jobs:
        annotations = vertex.annotations
        per_job[vertex.name] = (
            tuple(sorted(vertex.job.config.as_dict().items())),
            id(annotations.profile),
            id(annotations.schema),
            id(annotations.partition_constraint),
            tuple(sorted((k, str(v)) for k, v in annotations.conditions.items())),
            tuple(
                tuple(sorted(p.input_partition_filter.items())) for p in vertex.job.pipelines
            ),
        )
    return (
        plan.signature(),
        tuple(sorted(per_job.items())),
        tuple(plan.history),
        tuple(sorted(plan.merge_lineage.items())),
    )


def _workflow_hash(plan):
    """Stable content hash of the plan's structural signature."""
    return stable_hash((plan.signature(),))


def _vandalize(candidate):
    """Edit a candidate plan through every public mutation channel.

    Each in-place write must raise on the candidate; the same edit is then
    made through the rebinding entry points.
    """
    workflow = candidate.workflow
    for name in list(workflow.job_names):
        vertex = workflow.job(name)
        candidate.set_job_config(
            name, vertex.job.config.replace(io_sort_mb=vertex.job.config.io_sort_mb + 32)
        )
        vertex = workflow.job(name)
        with pytest.raises(TypeError):
            vertex.annotations.conditions["vandalized"] = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            vertex.annotations.profile = None
        for pipeline in vertex.job.pipelines:
            with pytest.raises(TypeError):
                pipeline.input_partition_filter["bogus-dataset"] = (0,)
        workflow.annotate_job(
            name, conditions={**vertex.annotations.conditions, "vandalized": True}, profile=None
        )
        workflow.update_job(
            name,
            lambda job: dataclasses.replace(
                job,
                pipelines=[p.with_partition_filter("bogus-dataset", (0,)) for p in job.pipelines],
            ),
        )
    candidate.record_merge("bogus+merge", tuple(candidate.workflow.job_names)[:1])
    candidate.record(
        ConfigurationTransformation.application_for("bogus", {"io_sort_mb": 1}).as_applied()
    )


class TestStructuralSharing:
    def test_copy_shares_vertex_objects_and_copies_nothing(self):
        _, plan = _profiled_plan()
        COPY_COUNTERS.reset()
        clone = plan.copy()
        assert COPY_COUNTERS.snapshot() == {
            "workflow_copies": 1, "vertex_copies": 0, "vertex_shell_copies": 0
        }
        for name in plan.workflow.job_names:
            assert clone.workflow.job(name) is plan.workflow.job(name)
        for vertex in plan.workflow.datasets:
            assert clone.workflow.dataset(vertex.name) is vertex

    def test_set_job_config_privatizes_only_the_touched_vertex(self):
        _, plan = _profiled_plan()
        clone = plan.copy()
        target = plan.workflow.job_names[0]
        before = plan.workflow.job(target)
        old_config = before.job.config
        clone.set_job_config(target, old_config.replace(num_reduce_tasks=77))
        assert clone.workflow.job(target) is not before
        assert plan.workflow.job(target) is before
        assert plan.workflow.job(target).job.config == old_config
        # The clone rebound one name; every other value — and the rebound
        # vertex's annotations and pipelines — is the same object on both sides.
        assert clone.workflow.job(target).annotations is before.annotations
        assert clone.workflow.job(target).job.pipelines is before.job.pipelines
        dirty = {
            name
            for name in plan.workflow.job_names
            if clone.workflow.job(name) is not plan.workflow.job(name)
        }
        assert dirty == {target}

    def test_config_only_rebind_keeps_the_shared_index_and_compares_no_edges(self, monkeypatch):
        """Same pipelines tuple, same edges: no dataset-name tuple is built to find that out."""
        _, plan = _profiled_plan()
        plan.workflow.topological_levels()  # builds the index the clone will share
        clone = plan.copy()
        target = plan.workflow.job_names[0]
        config = plan.workflow.job(target).job.config

        def forbidden(job):
            raise AssertionError(f"edge comparison on a config-only rebind of {job.name!r}")

        with monkeypatch.context() as patched:
            patched.setattr(MapReduceJob, "input_datasets", property(forbidden))
            patched.setattr(MapReduceJob, "output_datasets", property(forbidden))
            clone.set_job_config(target, config.replace(io_sort_mb=config.io_sort_mb + 1))
            clone.workflow.update_job(
                target, lambda job: job.with_partitioner(job.effective_partitioner)
            )
        assert clone.workflow.job(target) is not plan.workflow.job(target)
        assert clone.workflow._topo_index is plan.workflow._topo_index

    def test_mutation_on_the_parent_side_also_cows(self):
        """After a copy, an edit on the *original* rebinds there and nowhere else."""
        _, plan = _profiled_plan()
        clone = plan.copy()
        target = plan.workflow.job_names[0]
        clone_fingerprint = _plan_fingerprint(clone)
        clone_vertices = list(clone.workflow.jobs)
        plan.set_job_config(
            target, plan.workflow.job(target).job.config.replace(num_reduce_tasks=63)
        )
        assert _plan_fingerprint(clone) == clone_fingerprint
        assert all(a is b for a, b in zip(clone.workflow.jobs, clone_vertices, strict=True))
        assert [
            name for name in plan.workflow.job_names
            if plan.workflow.job(name) is not clone.workflow.job(name)
        ] == [target]

    def test_add_dataset_cows_shared_dataset_vertices(self):
        workload, plan = _profiled_plan()
        clone = plan.copy()
        name = workload.workflow.base_datasets()[0].name
        shared = plan.workflow.dataset(name)
        clone.workflow.add_dataset(name, annotation=None, dataset=workload.base_datasets[name])
        # Enriching with data privatized the clone's vertex, not the parent's.
        assert clone.workflow.dataset(name) is not shared or shared.dataset is not None
        assert plan.workflow.dataset(name) is shared

    def test_profiler_attach_does_not_leak_into_shared_ancestor(self):
        workload = build_workload("IR", scale=0.15)
        pristine = workload.workflow.copy()
        assert all(not v.annotations.has_profile for v in pristine.jobs)
        Profiler().profile_workflow(pristine, workload.base_datasets)
        assert all(v.annotations.has_profile for v in pristine.jobs)
        # The workload's own workflow (the shared ancestor) stayed pristine.
        assert all(not v.annotations.has_profile for v in workload.workflow.jobs)


class TestColdOptimizeBounds:
    """What sharing leaves behind over a whole cold search, as absolute bounds.

    Counters, not wall clocks, so they hold on every host; the time they buy
    is ``workflow.graph.vertex_copies`` / ``whatif.model.signature_memo_hit_rate``
    next to ``optimize_sweep_s`` on ``cold_canned`` (``bench/README.md``).
    """

    #: Full vertex copies allowed per cold optimize() (measured 0 / 1 / 0 on
    #: IR / LA / BR).
    MAX_VERTEX_COPIES = 2
    #: Signature requests allowed to pay a derivation walk per cold optimize()
    #: (measured 3 / 1 / 8).  Absolute: an RRS sample is an overlay on the
    #: candidate's baseline estimate and requests no signature for a job it
    #: cannot move, so a share of all requests would loosen as requests fall.
    MAX_SIGNATURE_DERIVATIONS = {"IR": 8, "LA": 8, "BR": 20}

    # The paper trio covering vertical packing (IR), filter/partition
    # pruning (LA), and a wider DAG (BR).
    @pytest.mark.parametrize("abbr", ("IR", "LA", "BR"))
    def test_cold_optimize_copies_and_rederives_almost_nothing(self, abbr):
        _, plan = _profiled_plan(abbr)
        optimizer = StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17)
        COPY_COUNTERS.reset()
        optimizer.optimize(plan)
        assert COPY_COUNTERS.workflow_copies > 0
        assert COPY_COUNTERS.vertex_copies <= self.MAX_VERTEX_COPIES, (
            f"{COPY_COUNTERS.vertex_copies} full vertex copies over "
            f"{COPY_COUNTERS.workflow_copies} plan clones"
        )
        engine = optimizer.search.costs.engine
        assert 0 < engine.signature_derivations <= self.MAX_SIGNATURE_DERIVATIONS[abbr]

    @pytest.mark.parametrize("label", ("rollup31", "BR"))
    def test_a_sample_builds_configs_and_signatures_only_where_its_walk_needs_them(
        self, label, monkeypatch
    ):
        """An RRS point goes straight into the job model: ``JobConfig.with_values``
        runs only for the moved jobs of a sample that re-derives a fact reader
        or starts over (``OverlaySession._bind``), plus the configs the search
        binds (``with_settings``); a signature beyond a full walk is a fact
        reader's re-derivation in such a sample, or a combiner flip — at most
        two per (candidate, combiner job)."""
        counts = collections.Counter()
        inside_walks = []

        def counting(target, attribute, label):
            original = getattr(target, attribute)

            def counted(self, *args):
                counts[label()] += 1
                return original(self, *args)

            monkeypatch.setattr(target, attribute, counted)

        counting(JobConfig, "with_values", lambda: "with_values")
        counting(JobConfig, "with_settings", lambda: "bound configs")
        counting(
            WhatIfEngine, "vertex_dataflow_signature",
            lambda: "walked" if inside_walks else "signatures",
        )
        run_costing = WhatIfEngine.run_costing

        def full_walk(engine, *args):
            inside_walks.append(None)
            try:
                return run_costing(engine, *args)
            finally:
                inside_walks.pop()

        monkeypatch.setattr(WhatIfEngine, "run_costing", full_walk)

        bind = getattr(OverlaySession, "_bind", None)  # a sample's overlay as JobConfigs

        def binding(session, point, slots, names):
            names = list(names)
            counts["moved jobs bound"] += len(names)
            # Each of the candidate's fact readers is re-derived at most once in such a sample.
            counts["fact reader re-derivations"] += len(session._base.basis.fact_readers)
            return bind(session, point, slots, names)

        if bind is not None:
            monkeypatch.setattr(OverlaySession, "_bind", binding)

        optimizer = StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17)
        result = optimizer.optimize(golden.plan_of(label))
        combiner_jobs = sum(
            vertex.job.has_combiner
            for report in result.unit_reports
            for record in report.subplans
            for vertex in record.plan.workflow.jobs
        )
        bound = counts["moved jobs bound"] + counts["bound configs"]
        assert counts["with_values"] <= bound, counts
        assert counts["signatures"] <= 2 * combiner_jobs + counts["fact reader re-derivations"], counts
        assert counts["walked"] > 0 and counts["bound configs"] > 0

    @pytest.mark.parametrize("label", ("rollup31", "BR"))
    def test_a_job_model_half_runs_once_per_key_per_candidate_job(self, label, monkeypatch):
        """A candidate's samples ask each job's kernel for its level terms:
        the kernel the session's base walk costed the job with
        (``WhatIfEngine.job_estimate``), or the one of its combiner-flipped
        dataflow.  So each half runs at most once per distinct key per
        (candidate, job), the base walk's own runs included, and fewer times
        than the samples ask the kernels.  A walk a sample starts over, or a
        re-derivation, costs its jobs with fresh kernels and is not counted."""
        halves = collections.Counter()
        sessions, sampling, cold = [], [], []
        kernel_calls = [0]

        def track_sessions(attribute, change):
            original = getattr(OverlaySession, attribute)

            def tracked(session, *args):
                change(session)
                return original(session, *args)

            monkeypatch.setattr(OverlaySession, attribute, tracked)

        # The candidate is the open session (kept alive by the counter's keys).
        track_sessions("__enter__", sessions.append)
        track_sessions("__exit__", lambda session: sessions.pop())

        def within(stack, function):
            def run(*args):
                stack.append(None)
                try:
                    return function(*args)
                finally:
                    stack.pop()

            return run

        objective = OverlaySession.objective
        monkeypatch.setattr(
            OverlaySession, "objective",
            lambda session, *args: within(sampling, objective(session, *args)),
        )
        job_estimate = WhatIfEngine.job_estimate
        monkeypatch.setattr(
            WhatIfEngine, "job_estimate",
            lambda engine, *args: (within(cold, job_estimate) if sampling else job_estimate)(
                engine, *args
            ),
        )

        for name in ("_map_half", "_reduce_half"):
            half = getattr(jobmodel, name)

            def counted(dataflow, cluster, *key, half=half, name=name):
                if sessions and not cold:
                    # The job is the dataflow its kernel holds, by identity.
                    halves[(sessions[-1], id(dataflow), name, key)] += 1
                return half(dataflow, cluster, *key)

            monkeypatch.setattr(jobmodel, name, counted)

        # A sample enters the job model through a kernel's level terms.
        terms = JobKernel.terms

        def counted_terms(kernel, inputs):
            if sampling and not cold:
                kernel_calls[0] += 1
            return terms(kernel, inputs)

        monkeypatch.setattr(JobKernel, "terms", counted_terms)

        StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17).optimize(golden.plan_of(label))
        repeated = {key: runs for key, runs in halves.items() if runs > 1}
        assert not repeated, repeated
        reduce_halves = sum(1 for key in halves if key[2] == "_reduce_half")
        map_halves = len(halves) - reduce_halves
        assert 0 < reduce_halves < kernel_calls[0], (reduce_halves, kernel_calls)
        assert 0 < map_halves < kernel_calls[0], (map_halves, kernel_calls)

    @pytest.mark.parametrize("label", ("BR", "rollup31"))
    def test_a_session_asks_the_kernels_its_base_walk_built(self, label, monkeypatch):
        """One ``JobKernel`` per vertex a walk costs (``WhatIfEngine.job_estimate``,
        the job-model step of every walk) plus one per job's first combiner
        flip, and none anywhere else: a job a sample first reaches keeps the
        kernel and inputs of the base walk's cost of it."""
        steps = []  # the open step: [kernels built under it]
        counts = collections.Counter()
        flipped = set()

        init = JobKernel.__init__

        def counted_init(kernel, *args):
            assert steps, "a JobKernel built outside a walk's vertex and a first flip"
            steps[-1][0] += 1
            init(kernel, *args)

        monkeypatch.setattr(JobKernel, "__init__", counted_init)

        def step(owner, attribute, label, before=None):
            original = getattr(owner, attribute)

            def stepped(this, *args):
                if before is not None:
                    before(*args)
                steps.append([0])
                try:
                    return original(this, *args)
                finally:
                    built = steps.pop()[0]
                    counts[label] += 1
                    counts[f"{label} kernels"] += built

            monkeypatch.setattr(owner, attribute, stepped)

        step(WhatIfEngine, "job_estimate", "vertex")
        step(OverlaySession, "_flipped", "flip", lambda job: flipped.add(job))

        resolve = OverlaySession._job

        def resolved(session, name):
            job = resolve(session, name)
            assert job.kernel is job.prior.kernel and job.inputs is job.prior.inputs, name
            counts["jobs"] += 1
            return job

        monkeypatch.setattr(OverlaySession, "_job", resolved)

        StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17).optimize(golden.plan_of(label))
        assert counts["vertex kernels"] == counts["vertex"] > 0, counts
        assert counts["flip kernels"] == len(flipped) <= counts["flip"], counts
        assert counts["jobs"] > 0 and (label != "rollup31" or flipped), counts

    @pytest.mark.parametrize("abbr", ("IR", "BR"))
    def test_costing_a_candidate_copies_no_plan_and_rebinds_no_vertex(self, abbr):
        """Baseline estimate + the whole RRS run: every sample is an overlay."""
        _, plan = _profiled_plan(abbr)
        search = StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17).search
        record = SubplanRecord(plan=plan, transformations=())
        COPY_COUNTERS.reset()
        search._cost_candidate(record, tuple(plan.workflow.job_names), "vertical/test/candidate-0")
        assert record.rrs_evaluations > 50 and record.cost_stats.queries == record.rrs_evaluations + 1
        assert COPY_COUNTERS.snapshot() == {
            "workflow_copies": 0, "vertex_copies": 0, "vertex_shell_copies": 0
        }

    @pytest.mark.parametrize("abbr", ("IR", "LA", "BR"))
    def test_nothing_is_folded_per_sample(self, abbr, monkeypatch):
        """One costing session per candidate: the cost service folds a stats
        delta per candidate, per composition query and for the final
        estimate — never one per RRS sample."""
        _, plan = _profiled_plan(abbr)
        folded = []
        apply_delta = CostService._apply_delta

        def counting(service, delta):
            folded.append(delta.queries)
            apply_delta(service, delta)

        monkeypatch.setattr(CostService, "_apply_delta", counting)
        result = StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17).optimize(plan)
        reports = result.unit_reports
        subplans = sum(len(report.subplans) for report in reports)
        compositions = sum(report.composition_queries for report in reports)
        assert len(folded) <= subplans + compositions + 1 < result.cost_stats.queries
        assert sum(folded) == result.cost_stats.queries

    @pytest.mark.parametrize("abbr", ("IR", "LA", "BR"))
    def test_every_query_visits_the_estimate_fault_site_once(self, abbr):
        """The chaos plans address ``whatif.estimate`` by hit ordinal."""

        class Visits:
            def __init__(self):
                self.estimates = 0

            def visit(self, site, info):
                self.estimates += site == "whatif.estimate"

        _, plan = _profiled_plan(abbr)
        visits, previous = Visits(), active_plan()
        set_active_plan(visits)
        try:
            result = StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17).optimize(plan)
        finally:
            set_active_plan(previous)
        assert visits.estimates == result.cost_stats.queries > 0

    def test_hot_value_objects_carry_no_instance_dict(self):
        _, plan = _profiled_plan()
        estimate = CostService(ClusterSpec.paper_cluster()).estimate_workflow(plan.workflow)
        sample = next(iter(estimate.per_job.values()))
        assert isinstance(sample, JobTimeEstimate) and not hasattr(sample, "__dict__")
        assert not hasattr(JobDataflow(*[1] * 9), "__dict__")
        # The eight phase fields and nothing else: every cold job estimate builds one.
        assert JobTimeEstimate.__slots__ == (
            "map_phase_s", "shuffle_s", "reduce_phase_s", "startup_s",
            "num_map_tasks", "num_reduce_tasks", "map_task_s", "reduce_task_s",
        )


class _HashCounter:
    """A key part that counts how often a hash walks through it."""

    def __init__(self, value, counts):
        self.value, self.counts = value, counts

    def __hash__(self):
        self.counts["hash"] += 1
        return hash(self.value)

    def __eq__(self, other):
        return isinstance(other, _HashCounter) and self.value == other.value


class TestWarmReplayBounds:
    """What a decision replay touches, as absolute bounds (the warm twin of
    :class:`TestColdOptimizeBounds`).

    A warm ``optimize()`` rebuilds the unit decision key once per unit; the
    time that costs is ``core.search.self_ms`` next to ``latency_p50_ms`` on
    ``serve_warm`` (``bench/README.md``).  It must be what the replay
    touched — no record, and no key part of a value that was keyed before.
    """

    #: The memoised parts of a decision key: (owner, cached property, builds
    #: allowed per vertex the replay creates — a job vertex can bring a new
    #: effective partitioner *and* a new partition constraint; pipelines
    #: measured at most 2 per 13 new vertices, on IR).
    PARTS = (
        (MapReduceJob, "shape_key", 1),
        (MapReduceJob, "effective_partitioner", 1),
        (JobAnnotations, "key", 1),
        (JobConfig, "key", 1),
        (PartitionFunction, "key", 2),
        (DatasetAnnotation, "key", 1),
        (JobVertex, "content_key", 1),
        (JobVertex, "key", 1),
        (Pipeline, "content_key", 1),
        (ProfileAnnotation, "key", 1),
    )

    @pytest.fixture(scope="class")
    def plans(self):
        return dict(golden._plans())

    @staticmethod
    def _count_calls(monkeypatch, counts, label, target, attribute):
        original = getattr(target, attribute)

        def counting(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(target, attribute, counting)

    # The eight canned plans and the widest generated one.
    @pytest.mark.parametrize("label", [*golden.GOLDEN][:8] + ["rollup100"])
    def test_warm_optimize_sizes_no_record_and_keys_only_what_the_replay_made(
        self, label, plans, monkeypatch
    ):
        plan = plans[label]
        cluster = ClusterSpec.paper_cluster()
        optimizer = StubbyOptimizer(
            cluster, seed=17, decision_cache=DecisionCache(cluster, enabled=True)
        )
        cold = optimizer.optimize(plan)
        engine = optimizer.search.costs.engine
        walks_before = engine.signature_derivations

        def no_sizing(records):
            raise AssertionError("a warm optimize() sized a record")

        monkeypatch.setattr(dataset_module, "records_size_bytes", no_sizing)
        counts = collections.Counter()
        for owner, name, _ in self.PARTS:
            # A cached_property calls its ``func`` only for a value not built yet.
            self._count_calls(monkeypatch, counts, (owner, name), owner.__dict__[name], "func")
        for vertex_class in (JobVertex, DatasetVertex):
            self._count_calls(monkeypatch, counts, vertex_class, vertex_class, "__init__")

        warm = optimizer.optimize(plan)
        # What optimize() built; the fingerprints below key the final configs themselves.
        counts = collections.Counter(counts)
        units = cold.decision_stats.decision_misses
        assert warm.decision_stats.decision_hits == units > 0
        assert warm.decision_stats.decision_misses == 0
        assert warm.decision_fingerprint() == cold.decision_fingerprint()

        for owner, name, per_vertex in self.PARTS:
            made = counts[DatasetVertex if owner is DatasetAnnotation else JobVertex]
            assert counts[owner, name] <= per_vertex * made, (owner.__name__, name, counts)
        assert engine.signature_derivations - walks_before <= counts[JobVertex]

    @staticmethod
    def _optimizer():
        cluster = ClusterSpec.paper_cluster()
        return StubbyOptimizer(cluster, seed=17, decision_cache=DecisionCache(cluster, enabled=True))

    @pytest.mark.parametrize("label", ["IR", "BR", "rollup100"])
    def test_the_knob_part_is_built_once_per_phase(self, label, plans, monkeypatch):
        optimizer = self._optimizer()
        optimizer.optimize(plans[label])
        counts = collections.Counter()
        for name in ("transformation_key", "rrs_search_key"):
            self._count_calls(monkeypatch, counts, name, search_module, name)

        warm = optimizer.optimize(plans[label])
        search = optimizer.search
        # More units than phases, or the bound could not tell.
        assert warm.decision_stats.decision_hits > 2
        assert counts["rrs_search_key"] <= 2
        assert counts["transformation_key"] <= len(search.vertical_transformations) + len(
            search.horizontal_transformations
        )

    @pytest.mark.parametrize("label", ["IR", "BR"])
    def test_a_decision_key_is_hashed_once_per_lookup_or_store(self, label, plans):
        optimizer = self._optimizer()
        hashes = collections.Counter()
        # Every key holds this part once, so it counts the hashes of whole keys.
        optimizer.search._cluster_key = _HashCounter(optimizer.search._cluster_key, hashes)

        cold = optimizer.optimize(plans[label])
        stats = cold.decision_stats
        assert stats.decision_misses == stats.stores > 0
        assert hashes["hash"] == stats.lookups

        hashes.clear()
        warm = optimizer.optimize(plans[label])
        assert warm.decision_stats.decision_hits == stats.lookups
        assert hashes["hash"] == warm.decision_stats.lookups

    def test_a_replay_rebinds_only_the_jobs_it_reconfigures(self, plans, monkeypatch):
        applied = changed = rebound = 0
        with_settings = JobConfig.with_settings
        apply_settings = ConfigurationTransformation.apply_settings_in_place

        def counting_with_settings(config, settings):
            nonlocal applied, changed
            derived = with_settings(config, settings)
            applied += 1
            changed += derived is not config
            return derived

        def counting_apply(plan, settings_by_job):
            nonlocal rebound
            before = COPY_COUNTERS.vertex_shell_copies
            with monkeypatch.context() as inner:
                inner.setattr(JobConfig, "with_settings", counting_with_settings)
                apply_settings(plan, settings_by_job)
            rebound += COPY_COUNTERS.vertex_shell_copies - before

        for label in [*golden.GOLDEN][:8]:
            optimizer = self._optimizer()
            cold = optimizer.optimize(plans[label])
            monkeypatch.setattr(
                ConfigurationTransformation, "apply_settings_in_place", staticmethod(counting_apply)
            )
            warm = optimizer.optimize(plans[label])
            monkeypatch.undo()
            assert warm.decision_fingerprint() == cold.decision_fingerprint()
            assert warm.transformations_applied == cold.transformations_applied
            assert rebound == changed, label
        # Some recorded settings are no-ops on the canned plans, or the test shows nothing.
        assert changed < applied

    def test_a_replayed_unit_reads_one_adjacency_table_per_index(self, plans, monkeypatch):
        """Unit generation reads the plan's job adjacency table, built at
        most once per topology index, and asks the graph for no dataset's
        producer or consumers."""
        generating = False
        graph_walks = 0
        built = []  # the index each table was built for

        def recording(build):
            def wrapped(workflow, index):
                built.append(index)
                return build(workflow, index)

            return wrapped

        def generation(method):
            def wrapped(*args):
                nonlocal generating
                generating = True
                try:
                    return method(*args)
                finally:
                    generating = False

            return wrapped

        def counting(walk):
            def wrapped(*args):
                nonlocal graph_walks
                graph_walks += generating
                return walk(*args)

            return wrapped

        for label in [*golden.GOLDEN][:8]:
            optimizer = self._optimizer()
            cold = optimizer.optimize(plans[label])
            with monkeypatch.context() as inner:
                inner.setattr(Workflow, "_build_adjacency", recording(Workflow._build_adjacency))
                for name in ("producer_of", "consumers_of"):
                    inner.setattr(Workflow, name, counting(getattr(Workflow, name)))
                for name in ("next_unit", "independent_subunits", "mark_handled"):
                    method = getattr(OptimizationUnitGenerator, name)
                    inner.setattr(OptimizationUnitGenerator, name, generation(method))
                warm = optimizer.optimize(plans[label])
            assert warm.decision_stats.decision_hits == cold.decision_stats.decision_misses > 0
            assert graph_walks == 0, label
        assert built and all(a is not b for i, a in enumerate(built) for b in built[:i])

    def test_a_warm_canned_request_builds_few_content_keys(self, plans, monkeypatch):
        """A replay's config edits that keep the pipelines, the partitioner and
        the two flags the vertex key reads hand the old vertex's key over
        (7.88 builds per request when every rebound vertex rebuilt its own)."""
        cluster = ClusterSpec.paper_cluster()
        costs, decisions = CostService(cluster), DecisionCache(cluster)
        canned = [plans[label] for label in [*golden.GOLDEN][:8]]

        def request_sweep():
            for plan in canned:
                optimizer = StubbyOptimizer(
                    cluster, seed=17, cost_service=costs, decision_cache=decisions
                )
                optimizer.optimize(plan.copy())

        request_sweep()
        hits_before = decisions.stats_snapshot().decision_hits
        counts = collections.Counter()
        self._count_calls(monkeypatch, counts, "content_key", JobVertex.__dict__["content_key"], "func")
        request_sweep()
        stats = decisions.stats_snapshot()
        assert stats.decision_hits - hits_before > len(canned)
        assert counts["content_key"] / len(canned) <= 2.5, counts

    @pytest.mark.parametrize("hash_seed", golden.HASH_SEEDS)
    def test_every_unit_key_equals_the_from_scratch_builder(self, hash_seed):
        """8 canned + 3 wide plans, cold and warm, in a fresh interpreter."""
        compared = golden.run_script_under(hash_seed, key_oracle.__file__)
        assert [line.split()[0] for line in compared.splitlines()] == [*golden.GOLDEN]


class TestRecordMergeAliasing:
    def test_record_merge_on_clone_does_not_alias_parent_dict(self):
        _, plan = _profiled_plan()
        plan.record_merge("seed+merge", tuple(plan.workflow.job_names[:2]))
        clone = plan.copy()
        clone.record_merge("clone+merge", tuple(clone.workflow.job_names[:1]))
        assert "clone+merge" not in plan.merge_lineage
        assert "seed+merge" in clone.merge_lineage
        plan.record_merge("parent+merge", tuple(plan.workflow.job_names[:1]))
        assert "parent+merge" not in clone.merge_lineage

    def test_history_append_on_clone_does_not_alias_parent_list(self):
        _, plan = _profiled_plan()
        clone = plan.copy()
        clone.record(
            ConfigurationTransformation.application_for("x", {"io_sort_mb": 1}).as_applied()
        )
        assert plan.history == []


class TestAliasingProperty:
    """Mutating any candidate never changes its parent (all five kinds)."""

    @pytest.mark.parametrize("transformation", STRUCTURAL_TRANSFORMATIONS, ids=lambda t: t.name)
    def test_structural_candidates_never_touch_parent(self, transformation):
        generator = RandomWorkflowGenerator()
        # Random workflows plus the canned workloads whose annotations admit
        # every rewrite (partition-function pruning needs the US/LA filter
        # annotations; intra-job packing fires on IR).
        plans = [generator.generate(seed).plan for seed in PROPERTY_SEEDS]
        plans.extend(_profiled_plan(abbr)[1] for abbr in ("IR", "US", "LA"))
        applied = 0
        for index, plan in enumerate(plans):
            applications = transformation.find_applications(
                plan, tuple(plan.workflow.job_names)
            )
            before = _plan_fingerprint(plan)
            before_hash = _workflow_hash(plan)
            for application in applications:
                candidate = transformation.apply(plan, application)
                _vandalize(candidate)
                applied += 1
            assert _plan_fingerprint(plan) == before, (
                f"plan #{index}: {transformation.name} candidate mutated its parent"
            )
            assert _workflow_hash(plan) == before_hash, index
        assert applied > 0, f"{transformation.name} never applied in the sweep"

    def test_configuration_candidates_never_touch_parent(self):
        generator = RandomWorkflowGenerator()
        for seed in PROPERTY_SEEDS[:5]:
            plan = generator.generate(seed).plan
            before = _plan_fingerprint(plan)
            for name in list(plan.workflow.job_names):
                application = ConfigurationTransformation.application_for(
                    name, {"io_sort_mb": 256}
                )
                candidate = ConfigurationTransformation().apply(
                    plan,
                    type(application)(
                        transformation=application.transformation,
                        target_jobs=application.target_jobs,
                        details={"job": name, "settings": {"io_sort_mb": 256}},
                    ),
                )
                _vandalize(candidate)
            assert _plan_fingerprint(plan) == before, seed

    def test_chosen_settings_replay_never_touches_candidate_record(self):
        """The search's settings replay copies before mutating (CoW-cheap)."""
        _, plan = _profiled_plan("IR")
        record_plan = plan.copy()
        before = _plan_fingerprint(record_plan)
        optimized = record_plan.copy()
        ConfigurationTransformation.apply_settings_in_place(
            optimized, {plan.workflow.job_names[0]: {"io_sort_mb": 512}}
        )
        assert _plan_fingerprint(record_plan) == before
        assert _plan_fingerprint(optimized) != before
