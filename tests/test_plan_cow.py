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
from repro.core.decision_cache import DecisionCache
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
from repro.profiler import Profiler
from repro.verification import RandomWorkflowGenerator
from repro.whatif.dataflow import JobDataflow
from repro.whatif.jobmodel import JobTimeEstimate
from repro.whatif.service import CostService
from repro.workflow.annotations import DatasetAnnotation, JobAnnotations
from repro.workflow.graph import COPY_COUNTERS, DatasetVertex, JobVertex
from repro.workloads import build_workload
from tests import key_oracle, test_golden_fingerprints as golden

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
        for name in plan.job_names:
            assert clone.workflow.job(name) is plan.workflow.job(name)
        for vertex in plan.workflow.datasets:
            assert clone.workflow.dataset(vertex.name) is vertex

    def test_set_job_config_privatizes_only_the_touched_vertex(self):
        _, plan = _profiled_plan()
        clone = plan.copy()
        target = plan.job_names[0]
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
            for name in plan.job_names
            if clone.workflow.job(name) is not plan.workflow.job(name)
        }
        assert dirty == {target}

    def test_config_only_rebind_keeps_the_shared_index_and_compares_no_edges(self, monkeypatch):
        """Same pipelines tuple, same edges: no dataset-name tuple is built to find that out."""
        _, plan = _profiled_plan()
        plan.workflow.topological_levels()  # builds the index the clone will share
        clone = plan.copy()
        target = plan.job_names[0]
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
        target = plan.job_names[0]
        clone_fingerprint = _plan_fingerprint(clone)
        clone_vertices = list(clone.workflow.jobs)
        plan.set_job_config(
            target, plan.workflow.job(target).job.config.replace(num_reduce_tasks=63)
        )
        assert _plan_fingerprint(clone) == clone_fingerprint
        assert all(a is b for a, b in zip(clone.workflow.jobs, clone_vertices, strict=True))
        assert [
            name for name in plan.job_names
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
    #: (measured 6 / 5 / 15).  Absolute: an RRS sample is an overlay on the
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

    @pytest.mark.parametrize("abbr", ("IR", "BR"))
    def test_costing_a_candidate_copies_no_plan_and_rebinds_no_vertex(self, abbr):
        """Baseline estimate + the whole RRS run: every sample is an overlay."""
        _, plan = _profiled_plan(abbr)
        search = StubbyOptimizer(ClusterSpec.paper_cluster(), seed=17).search
        record = SubplanRecord(plan=plan, transformations=())
        COPY_COUNTERS.reset()
        search._cost_candidate(record, tuple(plan.job_names), "vertical/test/candidate-0")
        assert record.rrs_evaluations > 50 and record.cost_stats.queries == record.rrs_evaluations + 1
        assert COPY_COUNTERS.snapshot() == {
            "workflow_copies": 0, "vertex_copies": 0, "vertex_shell_copies": 0
        }

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
    #: effective partitioner *and* a new partition constraint).
    PARTS = (
        (MapReduceJob, "shape_key", 1),
        (MapReduceJob, "effective_partitioner", 1),
        (JobAnnotations, "key", 1),
        (JobConfig, "key", 1),
        (PartitionFunction, "key", 2),
        (DatasetAnnotation, "key", 1),
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

        def no_sizing(record):
            raise AssertionError("a warm optimize() sized a record")

        monkeypatch.setattr(dataset_module, "record_size_bytes", no_sizing)
        counts = collections.Counter()
        for owner, name, _ in self.PARTS:
            # A cached_property calls its ``func`` only for a value not built yet.
            self._count_calls(monkeypatch, counts, (owner, name), owner.__dict__[name], "func")
        for vertex_class in (JobVertex, DatasetVertex):
            self._count_calls(monkeypatch, counts, vertex_class, vertex_class, "__init__")

        warm = optimizer.optimize(plan)
        units = cold.unit_decision_misses
        assert warm.unit_decision_hits == units > 0 and warm.unit_decision_misses == 0
        assert warm.decision_fingerprint() == cold.decision_fingerprint()

        for owner, name, per_vertex in self.PARTS:
            made = counts[DatasetVertex if owner is DatasetAnnotation else JobVertex]
            assert counts[owner, name] <= per_vertex * made, (owner.__name__, name, counts)
        assert engine.signature_derivations - walks_before <= counts[JobVertex]

    @pytest.mark.parametrize("hash_seed", golden.HASH_SEEDS)
    def test_every_unit_key_equals_the_from_scratch_builder(self, hash_seed):
        """8 canned + 3 wide plans, cold and warm, in a fresh interpreter."""
        compared = golden.run_script_under(hash_seed, key_oracle.__file__)
        assert [line.split()[0] for line in compared.splitlines()] == [*golden.GOLDEN]


class TestRecordMergeAliasing:
    def test_record_merge_on_clone_does_not_alias_parent_dict(self):
        _, plan = _profiled_plan()
        plan.record_merge("seed+merge", tuple(plan.job_names[:2]))
        clone = plan.copy()
        clone.record_merge("clone+merge", tuple(clone.job_names[:1]))
        assert "clone+merge" not in plan.merge_lineage
        assert "seed+merge" in clone.merge_lineage
        plan.record_merge("parent+merge", tuple(plan.job_names[:1]))
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
            optimized, {plan.job_names[0]: {"io_sort_mb": 512}}
        )
        assert _plan_fingerprint(record_plan) == before
        assert _plan_fingerprint(optimized) != before
