"""The sub-result reuse differential battery (``-m equivalence``).

Reuse substitutes **data** where every other transformation restructures
jobs, so its correctness argument is different in kind: the rewritten plan
reads bytes from the catalog instead of recomputing them, and the only
acceptable proof is record-level execution equivalence.  This battery
proves it four ways:

* a seeded sweep of :meth:`~repro.verification.generator.
  RandomWorkflowGenerator.shared_prefix_pair` workflows — execute workflow
  A, register its intermediates, optimize workflow B against the warm
  catalog (the cross-workflow hit ReStore is after), and verify B's
  optimized plan against B's reference execution;
* a self-reuse sweep of fully random workflows (resubmission traffic:
  a workflow warmed by its *own* previous execution) through all three
  optimizer variants;
* every canned evaluation workload, self-warmed the same way;
* a bit-identity baseline: with an empty catalog, a disabled catalog, or
  the transformation removed outright, the final plans are
  fingerprint-identical — the catalog machinery is provably invisible
  until it has something to offer.

A deliberately broken reuse rewrite (mutated in-test to drop ~20% of the
substituted records) must be *caught*, with the divergence bisected to the
``sub-result-reuse`` transformation — the battery is only trustworthy if it
fails loudly.  See ``docs/reuse.md`` and ``docs/verification.md``.
"""

import pytest

from repro.common.store import attributed
from repro.core.optimizer import StubbyOptimizer
from repro.core.search import plan_decision_fingerprint as fingerprint
from repro.core.subresults import (
    SubResultCatalog,
    SubResultCatalogStats,
    register_workflow_outputs,
)
from repro.core.transformations.reuse import SubResultReuseTransformation
from repro.dfs.dataset import Dataset
from repro.profiler import Profiler
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import WORKLOAD_ORDER, build_workload
from tests.conftest import equivalence_seeds

SEEDS = equivalence_seeds()


VARIANTS = (
    ("Stubby", StubbyOptimizer),
    ("Vertical", StubbyOptimizer.vertical_only),
    ("Horizontal", StubbyOptimizer.horizontal_only),
)


def _register_execution(catalog, workflow, base_datasets, origin=None):
    """Execute ``workflow`` and register its intermediates in ``catalog``."""
    result, _fs = WorkflowExecutor().execute(
        workflow.copy(), base_datasets, collect_outputs=True
    )
    outputs = {}
    for per_job in result.job_outputs.values():
        outputs.update(per_job)
    return register_workflow_outputs(catalog, workflow, outputs, origin=origin)


def _profiled_workload(abbr, scale=0.12):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload


# ---------------------------------------------------------------------------
# Cross-workflow reuse: shared-prefix pairs
# ---------------------------------------------------------------------------


@pytest.mark.equivalence
@pytest.mark.parametrize("seed", SEEDS)
def test_shared_prefix_reuse_equivalence(seed, cluster, workflow_generator, differential):
    first, second = workflow_generator.shared_prefix_pair(seed)
    catalog = SubResultCatalog(cluster, enabled=True)
    registered = _register_execution(
        catalog, first.workflow, first.base_datasets, origin="producer"
    )
    assert registered > 0

    result = StubbyOptimizer(cluster, subresult_catalog=catalog).optimize(second.plan)
    report = differential.verify_result(second.workflow, second.base_datasets, result)
    assert report.equivalent, (
        f"[seed={seed}, reuse={result.subresult_reuse_applications}]\n"
        f"{report.describe()}"
    )


@pytest.mark.equivalence
def test_shared_prefix_sweep_actually_reuses(cluster, workflow_generator, differential):
    """Reuse is *chosen* (not just offered) on most shared-prefix pairs.

    The per-seed sweep above would pass vacuously if the rewrite never won
    cost arbitration; this aggregate proves the catalog hits cross-workflow
    and eliminates real jobs, while every winning plan stays equivalent.
    """
    total_applications = 0
    total_jobs_eliminated = 0
    for seed in SEEDS[:8]:
        first, second = workflow_generator.shared_prefix_pair(seed)
        catalog = SubResultCatalog(cluster, enabled=True)
        _register_execution(catalog, first.workflow, first.base_datasets, origin="producer")
        result = StubbyOptimizer(cluster, subresult_catalog=catalog).optimize(second.plan)
        total_applications += result.subresult_reuse_applications
        total_jobs_eliminated += result.jobs_eliminated_by_reuse
        if result.subresult_reuse_applications:
            # The producer registered, the optimizer probed: cross-origin.
            assert catalog.stats_snapshot().cross_origin_hits > 0
        report = differential.verify_result(second.workflow, second.base_datasets, result)
        assert report.equivalent, f"[seed={seed}]\n{report.describe()}"
    assert total_applications >= 4
    assert total_jobs_eliminated >= total_applications  # each rewrite kills >= 1 job


def test_three_waves_of_shared_prefix_traffic_reconcile_exactly(cluster, workflow_generator):
    """The ReStore scenario over one shared catalog: cold producers, their
    siblings mixed with new producers, then a replay of every sibling.

    Measured (seeds 11-16): hit rate 0.00 -> 0.47 -> 0.67, cross-origin hits
    0 / 16 / 24, jobs eliminated 0 / 8 / 12, replay makespan 72 s against
    144 s recomputed.  Even a fully warm wave stays below 1.0: the search
    probes intermediate candidates (e.g. after a packing rewrite) whose
    mutated subgraphs legitimately miss.
    """
    first_wave, newcomers = (11, 12, 13, 14), (15, 16)
    pairs = {
        seed: workflow_generator.shared_prefix_pair(seed) for seed in first_wave + newcomers
    }
    catalog = SubResultCatalog(cluster, enabled=True)

    def optimize(generated):
        return StubbyOptimizer(cluster, subresult_catalog=catalog).optimize(generated.plan)

    def produce(seed, origin):
        producer = pairs[seed][0]
        result = optimize(producer)
        _register_execution(catalog, producer.workflow, producer.base_datasets, origin=origin)
        return result

    with attributed((catalog,), "wave-1") as (cold,):
        cold_results = [produce(seed, "wave-1") for seed in first_wave]
    with attributed((catalog,), "wave-2") as (mixed,):
        mixed_results = [optimize(pairs[seed][1]) for seed in first_wave]
        mixed_results += [produce(seed, "wave-2") for seed in newcomers]
    with attributed((catalog,), "wave-3") as (replay,):
        replay_results = [optimize(pairs[seed][1]) for seed in pairs]

    # Strictly increasing hit rate, cross-workflow hits once anything is warm.
    assert cold.hit_rate == 0.0 < mixed.hit_rate < replay.hit_rate
    assert replay.hit_rate >= 0.5 and mixed.misses > 0
    assert cold.cross_origin_hits == 0 < mixed.cross_origin_hits
    assert replay.cross_origin_hits > 0
    # Each wave's ledger credits exactly the jobs its final plans eliminated.
    eliminated = [sink.jobs_eliminated for sink in (cold, mixed, replay)]
    assert eliminated == [
        sum(r.jobs_eliminated_by_reuse for r in results)
        for results in (cold_results, mixed_results, replay_results)
    ]
    assert eliminated[0] == 0 and eliminated[1] + eliminated[2] >= 1

    # Exact reconciliation: global counters == summed per-wave sinks.
    total = SubResultCatalogStats()
    for sink in (cold, mixed, replay):
        total.accumulate(sink)
    snapshot = catalog.stats_snapshot()
    assert snapshot == total
    assert snapshot.jobs_eliminated == sum(eliminated)

    # Reuse is cost-arbitrated over a candidate superset: against the same
    # siblings optimized with no catalog, the replay wave runs strictly
    # fewer jobs and a strictly shorter estimated makespan.  (Job counts do
    # not reconcile 1:1 — each search also packs, differently on each side.)
    recompute = [StubbyOptimizer(cluster).optimize(pairs[seed][1].plan) for seed in pairs]
    assert sum(r.estimated_cost_s for r in replay_results) < sum(
        r.estimated_cost_s for r in recompute
    )
    assert sum(len(r.plan.workflow.jobs) for r in replay_results) < sum(
        len(r.plan.workflow.jobs) for r in recompute
    )


# ---------------------------------------------------------------------------
# Self-reuse: resubmission of random and canned workflows
# ---------------------------------------------------------------------------


@pytest.mark.equivalence
@pytest.mark.parametrize("seed", SEEDS)
def test_random_workflow_self_reuse_equivalence(seed, cluster, workflow_generator, differential):
    generated = workflow_generator.generate(seed)
    catalog = SubResultCatalog(cluster, enabled=True)
    _register_execution(
        catalog, generated.workflow, generated.base_datasets, origin="first-run"
    )
    result = StubbyOptimizer(cluster, subresult_catalog=catalog).optimize(generated.plan)
    report = differential.verify_result(
        generated.workflow, generated.base_datasets, result
    )
    assert report.equivalent, (
        f"[seed={seed}, reuse={result.subresult_reuse_applications}]\n"
        f"{report.describe()}"
    )


@pytest.mark.equivalence
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_self_reuse_equivalence_across_variants(seed, cluster, workflow_generator, differential):
    generated = workflow_generator.generate(seed)
    catalog = SubResultCatalog(cluster, enabled=True)
    _register_execution(
        catalog, generated.workflow, generated.base_datasets, origin="first-run"
    )
    for variant_name, factory in VARIANTS:
        result = factory(cluster, subresult_catalog=catalog).optimize(generated.plan)
        report = differential.verify_result(
            generated.workflow, generated.base_datasets, result
        )
        assert report.equivalent, f"[seed={seed}, {variant_name}]\n{report.describe()}"


@pytest.mark.equivalence
@pytest.mark.parametrize("abbr", WORKLOAD_ORDER)
def test_canned_workload_self_reuse_equivalence(abbr, cluster, differential):
    workload = _profiled_workload(abbr)
    catalog = SubResultCatalog(cluster, enabled=True)
    _register_execution(
        catalog, workload.workflow, workload.base_datasets, origin="first-run"
    )
    result = StubbyOptimizer(cluster, subresult_catalog=catalog).optimize(workload.plan)
    report = differential.verify_result(workload.workflow, workload.base_datasets, result)
    assert report.equivalent, (
        f"[{abbr}, reuse={result.subresult_reuse_applications}]\n{report.describe()}"
    )


# ---------------------------------------------------------------------------
# Bit-identity baseline: the catalog off is the catalog absent
# ---------------------------------------------------------------------------


@pytest.mark.equivalence
def test_disabled_and_empty_catalog_are_bit_identical(cluster, workflow_generator):
    first, second = workflow_generator.shared_prefix_pair(57)
    warm = SubResultCatalog(cluster, enabled=True)
    _register_execution(warm, first.workflow, first.base_datasets)

    # Reference: the pre-catalog candidate set — the reuse transformation
    # removed from the search outright.
    reference = StubbyOptimizer(cluster)
    assert reference.search.vertical_transformations[0].name == "sub-result-reuse"
    assert reference.search.horizontal_transformations[0].name == "sub-result-reuse"
    del reference.search.vertical_transformations[0]
    del reference.search.horizontal_transformations[0]
    expected = fingerprint(reference.optimize(second.plan).plan)

    # An empty catalog proposes nothing.
    empty = StubbyOptimizer(cluster, subresult_catalog=SubResultCatalog(cluster, enabled=True))
    empty_result = empty.optimize(second.plan)
    assert empty_result.subresult_reuse_applications == 0
    assert fingerprint(empty_result.plan) == expected

    # So does a disabled catalog.
    disabled = SubResultCatalog(cluster, enabled=False)
    off = StubbyOptimizer(cluster, subresult_catalog=disabled).optimize(second.plan)
    assert off.subresult_reuse_applications == 0
    assert fingerprint(off.plan) == expected

    # And with the warm catalog live, reuse is actually chosen — the
    # baseline above is a genuine counterfactual, not a vacuous identity.
    live = StubbyOptimizer(cluster, subresult_catalog=warm).optimize(second.plan)
    assert live.subresult_reuse_applications >= 1
    assert live.jobs_eliminated_by_reuse >= 2


# ---------------------------------------------------------------------------
# Negative control: a broken reuse rewrite must be caught and bisected
# ---------------------------------------------------------------------------


class _LossyReuse(SubResultReuseTransformation):
    """Reuse deliberately broken to drop ~20% of the substituted records."""

    def apply(self, plan, application):
        new_plan = super().apply(plan, application)
        name = application.details["dataset"]
        vertex = new_plan.workflow.dataset(name)
        records = [dict(record) for record in vertex.dataset.records()]
        kept = [record for index, record in enumerate(records) if index % 5 != 0]
        new_plan.workflow.add_dataset(
            name,
            dataset=Dataset(name, records=kept, scale_factor=vertex.dataset.scale_factor),
            annotation=vertex.annotation,
        )
        return new_plan


@pytest.mark.equivalence
def test_broken_reuse_is_caught_and_bisected(cluster, workflow_generator, differential):
    first, second = workflow_generator.shared_prefix_pair(42)
    catalog = SubResultCatalog(cluster, enabled=True)
    _register_execution(catalog, first.workflow, first.base_datasets, origin="producer")

    optimizer = StubbyOptimizer(cluster, subresult_catalog=catalog)
    optimizer.search.vertical_transformations[0] = _LossyReuse(catalog)
    optimizer.search.horizontal_transformations[0] = _LossyReuse(catalog)

    result = optimizer.optimize(second.plan)
    assert result.subresult_reuse_applications >= 1  # the broken rewrite won

    report = differential.verify_result(second.workflow, second.base_datasets, result)
    assert not report.equivalent

    # Dataset-level diagnostics: records went missing, with samples.
    divergence = report.divergences[0]
    assert divergence.missing_count > 0
    assert divergence.missing_sample

    # Bisection names the guilty transformation.
    assert report.culprit is not None
    assert "sub-result-reuse" in report.culprit.transformations

    text = report.describe()
    assert "NOT equivalent" in text
    assert "sub-result-reuse" in text
