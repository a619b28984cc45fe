"""The differential-execution equivalence battery (``-m equivalence``).

Every Stubby transformation must be a semantics-preserving rewrite: an
optimized plan executed on the same inputs must produce the same output
multisets as the unoptimized workflow.  This battery proves it three ways:

* a seeded sweep of random workflows (>= 25 seeds, scaled up via
  ``EQUIVALENCE_SEEDS``) through all three optimizer variants, and Stubby
  once more with its decision cache disabled;
* every transformation applied *in isolation* — bypassing the cost-based
  search, so e.g. horizontal packings that the optimizer would decline on
  cost grounds are still executed and checked;
* every canned evaluation workload through the same variants.

The same seeded workflows also carry the key-integrity sweep: a replayed
decision is only as right as the key it was found under, so at every unit —
on the plan going in and the plan coming out, cold and warm — the memoised
decision key must equal the from-scratch builder (``tests/key_oracle.py``),
and every materialised dataset's statistics a recount of its records.

A deliberately broken transformation (mutated in-test to drop records) must
be *caught*, with the divergence bisected to the guilty unit and reported at
job/record granularity — the harness is only trustworthy if it fails loudly.

Reproducing a failure: every assertion message embeds ``report.describe()``
and the workflow name carries the seed (``rand-<seed>``);
``RandomWorkflowGenerator().generate(<seed>)`` rebuilds the exact workflow
and datasets.  See ``docs/verification.md``.
"""

from dataclasses import replace as dataclass_replace

import pytest

from repro.common.hashing import stable_hash
from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
)
from repro.profiler import Profiler
from repro.workloads import WORKLOAD_ORDER, build_workload
from tests import key_oracle
from tests.conftest import equivalence_seeds

SEEDS = equivalence_seeds()

VARIANTS = (
    ("Stubby", lambda cluster: StubbyOptimizer(cluster)),
    ("Vertical", StubbyOptimizer.vertical_only),
    ("Horizontal", StubbyOptimizer.horizontal_only),
    (
        "Stubby, decision cache off",
        lambda cluster: StubbyOptimizer(
            cluster, decision_cache=DecisionCache(cluster, enabled=False)
        ),
    ),
)

TRANSFORMATIONS = (
    IntraJobVerticalPacking(),
    InterJobVerticalPacking(),
    PartitionFunctionTransformation(),
    HorizontalPacking(),
)


def _profiled_workload(abbr, scale=0.12):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload


# ---------------------------------------------------------------------------
# Random-workflow sweep: every variant on every seed
# ---------------------------------------------------------------------------


@pytest.mark.equivalence
@pytest.mark.parametrize("seed", SEEDS)
def test_random_workflow_equivalence(seed, cluster, workflow_generator, differential):
    generated = workflow_generator.generate(seed)
    for variant_name, factory in VARIANTS:
        result = factory(cluster).optimize(generated.plan)
        report = differential.verify_result(
            generated.workflow, generated.base_datasets, result
        )
        assert report.equivalent, f"[seed={seed}, {variant_name}]\n{report.describe()}"


#: The generator's fixed shapes, small; each seed of the sweep takes the next.
KEYED_SHAPES = (
    lambda generator, seed: generator.diamond_shared_sink(seed),
    lambda generator, seed: generator.wide_fanout(seed, num_jobs=9),
    lambda generator, seed: generator.telemetry_rollup(seed, num_channels=7, fanin=3),
    lambda generator, seed: generator.shared_prefix_pair(seed)[seed % 2],
)


@pytest.mark.equivalence
@pytest.mark.parametrize("decisions", (True, False), ids=("decisions-on", "decisions-off"))
@pytest.mark.parametrize("seed", SEEDS)
def test_unit_keys_and_dataset_statistics_equal_their_reference_builders(
    seed, decisions, cluster, workflow_generator
):
    """Random DAG + one fixed shape per seed, with the decision cache on and
    off: keys are compared whether or not the search looks them up."""
    shape = KEYED_SHAPES[seed % len(KEYED_SHAPES)]
    for generated in (workflow_generator.generate(seed), shape(workflow_generator, seed)):
        plan = generated.plan
        optimizer = StubbyOptimizer(
            cluster, decision_cache=DecisionCache(cluster, enabled=decisions)
        )
        cold, compared = key_oracle.optimize_checking_keys(optimizer, plan)
        warm, compared_warm = key_oracle.optimize_checking_keys(optimizer, plan)
        assert compared == compared_warm > 0, generated.workflow.name
        assert warm.decision_fingerprint() == cold.decision_fingerprint()
        replayed = compared // 2 if decisions else 0
        assert warm.unit_decision_hits == cold.unit_decision_misses == replayed
        datasets = [v.dataset for v in warm.plan.workflow.datasets if v.dataset is not None]
        assert datasets
        for dataset in datasets:
            key_oracle.assert_statistics_match_a_recount(dataset)
            dataset.load(dataset.all_records()[::2])
            key_oracle.assert_statistics_match_a_recount(dataset)


@pytest.mark.equivalence
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_diamond_shared_sink_equivalence(seed, cluster, workflow_generator, differential):
    """The fixed diamond-fan-in / shared-scan-sink shape stays equivalent.

    The shape combines a multi-input (fan-in) pipeline, two shared-scan
    packing opportunities at different depths, and vertical chains around
    the fan-in — corners the random DAGs rarely hit all at once.
    """
    generated = workflow_generator.diamond_shared_sink(seed)
    assert generated.workflow.num_jobs == 5
    for variant_name, factory in VARIANTS:
        result = factory(cluster).optimize(generated.plan)
        report = differential.verify_result(
            generated.workflow, generated.base_datasets, result
        )
        assert report.equivalent, f"[diamond seed={seed}, {variant_name}]\n{report.describe()}"


@pytest.mark.equivalence
def test_diamond_shared_sink_is_deterministic(workflow_generator):
    first = workflow_generator.diamond_shared_sink(SEEDS[0])
    second = workflow_generator.diamond_shared_sink(SEEDS[0])
    assert [v.name for v in first.workflow.jobs] == [v.name for v in second.workflow.jobs]
    for name, dataset in first.base_datasets.items():
        assert dataset.all_records() == second.base_datasets[name].all_records()
    # The fan-in job really reads both diamond branches through one pipeline.
    fan_in = first.workflow.job(f"D{SEEDS[0]}_J2")
    assert len(fan_in.job.pipelines) == 1
    assert len(fan_in.job.pipelines[0].input_datasets) == 2


@pytest.mark.equivalence
def test_generator_is_deterministic(workflow_generator):
    first = workflow_generator.generate(SEEDS[0])
    second = workflow_generator.generate(SEEDS[0])
    assert [v.name for v in first.workflow.jobs] == [v.name for v in second.workflow.jobs]
    for name, dataset in first.base_datasets.items():
        assert dataset.all_records() == second.base_datasets[name].all_records()


@pytest.mark.equivalence
def test_generator_respects_structure_knobs(workflow_generator):
    shallow = workflow_generator.with_config(
        max_jobs=3, max_depth=1, annotation_density=0.5, profile=False
    )
    for seed in SEEDS[:5]:
        generated = shallow.generate(seed)
        assert generated.workflow.num_jobs <= 3
        # depth 1: every job reads a base dataset directly
        for vertex in generated.workflow.jobs:
            for name in vertex.job.input_datasets:
                assert name in generated.base_datasets


# ---------------------------------------------------------------------------
# Each transformation in isolation (bypassing the cost-based search)
# ---------------------------------------------------------------------------


@pytest.mark.equivalence
@pytest.mark.parametrize(
    "transformation", TRANSFORMATIONS, ids=lambda t: t.name
)
@pytest.mark.parametrize("seed", SEEDS[:8])
def test_single_transformation_equivalence(seed, transformation, workflow_generator, differential):
    generated = workflow_generator.generate(seed)
    plan = generated.plan
    applications = transformation.find_applications(plan, tuple(plan.job_names))
    for application in applications[:4]:
        transformed = transformation.apply(plan, application)
        report = differential.compare(
            generated.workflow, transformed, generated.base_datasets
        )
        assert report.equivalent, (
            f"[seed={seed}, {transformation.name} on {application.target_jobs}]\n"
            f"{report.describe()}"
        )


@pytest.mark.equivalence
@pytest.mark.parametrize(
    "transformation", TRANSFORMATIONS, ids=lambda t: t.name
)
def test_single_transformation_equivalence_on_ir(transformation, differential):
    workload = _profiled_workload("IR")
    plan = workload.plan
    applications = transformation.find_applications(plan, tuple(plan.job_names))
    for application in applications:
        transformed = transformation.apply(plan, application)
        report = differential.compare(workload.workflow, transformed, workload.base_datasets)
        assert report.equivalent, (
            f"[IR, {transformation.name} on {application.target_jobs}]\n{report.describe()}"
        )


# ---------------------------------------------------------------------------
# Canned evaluation workloads through every variant
# ---------------------------------------------------------------------------


@pytest.mark.equivalence
@pytest.mark.parametrize("abbr", WORKLOAD_ORDER)
def test_canned_workload_equivalence(abbr, cluster, differential):
    workload = _profiled_workload(abbr)
    for variant_name, factory in VARIANTS:
        result = factory(cluster).optimize(workload.plan)
        report = differential.verify_result(
            workload.workflow, workload.base_datasets, result
        )
        assert report.equivalent, f"[{abbr}, {variant_name}]\n{report.describe()}"


# ---------------------------------------------------------------------------
# The harness must catch a broken transformation, with diagnostics
# ---------------------------------------------------------------------------


class _LossyIntraJobPacking(IntraJobVerticalPacking):
    """Intra-job packing deliberately broken to drop ~20% of packed records."""

    def apply(self, plan, application):
        new_plan = super().apply(plan, application)
        consumer_name = application.target_jobs[-1]
        pipeline = new_plan.workflow.job(consumer_name).job.pipelines[0]
        first = pipeline.map_ops[0]
        inner = first.fn

        def lossy(key, value, _inner=inner):
            for out_key, out_value in _inner(key, value):
                material = str(sorted(str(item) for item in out_value.items()))
                if stable_hash((material,)) % 5 == 0:
                    continue  # silently lose the record
                yield out_key, out_value

        broken = dataclass_replace(
            pipeline, map_ops=(dataclass_replace(first, fn=lossy),) + pipeline.map_ops[1:]
        )
        new_plan.workflow.update_job(
            consumer_name, lambda job: dataclass_replace(job, pipelines=(broken,))
        )
        return new_plan


@pytest.mark.equivalence
def test_broken_transformation_is_caught_with_job_level_report(cluster, differential):
    workload = _profiled_workload("IR", scale=0.15)
    optimizer = StubbyOptimizer(cluster)
    optimizer.search.vertical_transformations[0] = _LossyIntraJobPacking()

    result = optimizer.optimize(workload.plan)
    assert "intra-job-vertical-packing" in result.transformations_applied

    report = differential.verify_result(workload.workflow, workload.base_datasets, result)
    assert not report.equivalent

    # Dataset- and job-level diagnostics.
    divergence = report.divergences[0]
    assert divergence.dataset == "ir_tfidf"
    assert divergence.reference_job == "IR_J3"
    assert divergence.missing_count > 0
    assert divergence.missing_sample  # record-level samples included

    # Bisection names the guilty unit and transformation.
    assert report.culprit is not None
    assert "intra-job-vertical-packing" in report.culprit.transformations
    assert report.culprit.phase == "vertical"

    # And the human-readable report carries all of it.
    text = report.describe()
    assert "NOT equivalent" in text
    assert "ir_tfidf" in text
    assert "intra-job-vertical-packing" in text


@pytest.mark.equivalence
def test_broken_transformation_caught_on_random_workflows(cluster, workflow_generator, differential):
    """The lossy packing is also caught on generated workflows (when chosen)."""
    caught = 0
    for seed in SEEDS[:10]:
        generated = workflow_generator.generate(seed)
        optimizer = StubbyOptimizer.vertical_only(cluster)
        optimizer.search.vertical_transformations[0] = _LossyIntraJobPacking()
        result = optimizer.optimize(generated.plan)
        if "intra-job-vertical-packing" not in result.transformations_applied:
            continue
        report = differential.verify_result(
            generated.workflow, generated.base_datasets, result
        )
        if not report.equivalent:
            caught += 1
            assert report.culprit is not None
    assert caught > 0, "lossy packing never caught across the seed sample"


# ---------------------------------------------------------------------------
# Harness plumbing that must hold for the reports to be trustworthy
# ---------------------------------------------------------------------------


@pytest.mark.equivalence
def test_unit_reports_carry_before_after_plans(cluster):
    workload = _profiled_workload("IR", scale=0.15)
    result = StubbyOptimizer(cluster).optimize(workload.plan)
    assert result.unit_reports
    for unit_report in result.unit_reports:
        assert unit_report.plan_before is not None
        assert unit_report.plan_after is not None
    # The last after-plan is structurally the final plan.
    assert result.unit_reports[-1].plan_after.signature() == result.plan.signature()


@pytest.mark.equivalence
def test_identical_plans_report_equivalent(differential, workflow_generator):
    generated = workflow_generator.generate(SEEDS[0])
    report = differential.compare(
        generated.workflow, generated.workflow.copy(), generated.base_datasets
    )
    assert report.equivalent
    assert report.compared_datasets
    assert "equivalent" in report.describe()


@pytest.mark.equivalence
def test_candidate_execution_failure_is_reported(differential, workflow_generator):
    generated = workflow_generator.generate(SEEDS[0])
    broken = generated.workflow.copy()
    # Remove a producer so a downstream input is missing at execution time.
    victim = None
    for vertex in broken.jobs:
        if broken.consumer_jobs(vertex.name):
            victim = vertex.name
            break
    if victim is None:
        pytest.skip("generated workflow has no internal edges for this seed")
    broken.remove_job(victim)
    report = differential.compare(generated.workflow, broken, generated.base_datasets)
    assert not report.equivalent
    assert report.error is not None or report.divergences
