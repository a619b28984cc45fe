"""One key per vertex: both stores key a job and a dataset the same way.

The unit decision key (``StubbySearch._decision_key``) and the sub-result
signature (``subgraph_signature``) read a job as ``JobVertex.key`` and a
dataset as ``DatasetVertex.key``; the decision key no longer appends the
plan's sorted structural signature.  ``tests/key_oracle.py`` keeps the two
keys as they were written before, each job part listed by hand
(``legacy_decision_key`` / ``legacy_subgraph_signature``).  Here:

* over every unit key met in a cold and a warm ``optimize()`` of the twelve
  pinned plans, six generated plans and one-field perturbations of a pinned
  plan, the new and the old decision keys split the keys into the same
  classes (``new_a == new_b ⇔ old_a == old_b``);
* over every intermediate dataset of those plans, unoptimized and
  optimized, equal new signatures mean equal old ones (the new signature
  also pins pipeline tags, so it may only be finer);
* each perturbation moves both the decision key and the signature of a
  dataset downstream of the edit.
"""

import dataclasses

import pytest

from repro.cluster import ClusterSpec
from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer
from repro.core.subresults import producing_cone, subgraph_signature
from repro.mapreduce.partitioner import PartitionFunction
from repro.verification.generator import RandomWorkflowGenerator
from tests import golden_digests as golden, key_oracle

CLUSTER = ClusterSpec.paper_cluster()

GENERATOR_SEEDS = [7100 + i for i in range(6)]

#: The pinned plan the perturbations edit.
PERTURBED_PLAN = "IR"


def _edit_site(workflow):
    """``(job, dataset, base)``: the first job writing an intermediate
    dataset, that dataset, and a base dataset feeding it."""
    dataset = key_oracle.intermediate_datasets(workflow)[0]
    _, bases = producing_cone(workflow, dataset)
    return workflow.producer_of(dataset).name, dataset, bases[0]


def _retagged(job):
    first = job.pipelines[0]
    return dataclasses.replace(
        job, pipelines=(dataclasses.replace(first, tag=first.tag + "'"),) + tuple(job.pipelines[1:])
    )


def _sort_swapped(job):
    current = job.effective_partitioner
    wider = PartitionFunction(
        kind="hash", fields=current.fields, sort_fields=current.fields + ("extra",)
    )
    return job.with_partitioner(wider)


def _scaled(workflow, base):
    # In place, as a loader does: the keys must read the scale live.
    dataset = workflow.dataset(base).dataset
    dataset.scale_factor = dataset.scale_factor * 2


#: One field each, edited at :func:`_edit_site`: ``edit(workflow, job, base)``.
PERTURBATIONS = {
    "config-field": lambda w, job, base: w.update_job(
        job, lambda j: j.with_config(j.config.replace(io_sort_mb=j.config.io_sort_mb + 1))
    ),
    "partitioner": lambda w, job, base: w.update_job(job, _sort_swapped),
    "pipeline-tag": lambda w, job, base: w.update_job(job, _retagged),
    "annotation-condition": lambda w, job, base: w.annotate_job(
        job, conditions={**w.job(job).annotations.conditions, "flag": 1}
    ),
    "profile": lambda w, job, base: w.annotate_job(
        job,
        profile=dataclasses.replace(
            w.job(job).annotations.profile,
            map_selectivity=w.job(job).annotations.profile.map_selectivity * 1.5,
        ),
    ),
    "dataset-annotation": lambda w, job, base: w.add_dataset(
        base,
        annotation=dataclasses.replace(
            w.dataset(base).annotation, size_bytes=w.dataset(base).annotation.size_bytes * 2
        ),
    ),
    "dataset-scale": lambda w, job, base: _scaled(w, base),
}


def _perturbed(name):
    plan = golden.plan_of(PERTURBED_PLAN)
    workflow = plan.workflow
    job, _, base = _edit_site(workflow)
    PERTURBATIONS[name](workflow, job, base)
    return plan


def _pool_plans():
    for label in golden.GOLDEN:
        yield label, golden.plan_of(label)
    for seed in GENERATOR_SEEDS:
        yield f"seed{seed}", RandomWorkflowGenerator().generate(seed).plan
    for name in PERTURBATIONS:
        yield name, _perturbed(name)


def _optimize_recording(plan, decision_keys):
    """Cold then warm ``optimize()`` of ``plan``, appending ``(new, old)`` for
    every unit key met.  Returns the cold result."""
    cache = DecisionCache(CLUSTER, enabled=True)
    optimizer = StubbyOptimizer(CLUSTER, seed=17, decision_cache=cache)
    search = optimizer.search
    build = search._decision_key

    def recording(stage, subunits, transformations, phase):
        key = build(stage, subunits, transformations, phase)
        legacy = key_oracle.legacy_decision_key(search, stage, subunits, transformations, phase)
        decision_keys.append((key, legacy))
        return key

    search._decision_key = recording
    cold = optimizer.optimize(plan)
    warm = optimizer.optimize(plan)
    assert warm.decision_stats.decision_hits == cold.decision_stats.decision_misses > 0
    return cold


def _signatures(plan, signatures):
    workflow = plan.workflow
    for name in key_oracle.intermediate_datasets(workflow):
        signatures.append(
            (
                subgraph_signature(workflow, name, CLUSTER),
                key_oracle.legacy_subgraph_signature(workflow, name, CLUSTER),
            )
        )


@pytest.fixture(scope="module")
def met():
    """``(decision key pairs, signature pairs)``, each pair ``(new, old)``."""
    decision_keys, signatures = [], []
    for _, plan in _pool_plans():
        _signatures(plan, signatures)
        cold = _optimize_recording(plan, decision_keys)
        _signatures(cold.plan, signatures)
    return decision_keys, signatures


def _classes(pairs):
    """Each side's key → the set of the other side's keys met with it."""
    forward, backward = {}, {}
    for new, old in pairs:
        forward.setdefault(new, set()).add(old)
        backward.setdefault(old, set()).add(new)
    return forward, backward


def test_the_vertex_keyed_decision_key_splits_units_like_the_hand_written_one(met):
    decision_keys, _ = met
    forward, backward = _classes(decision_keys)
    merged = [old for old in forward.values() if len(old) > 1]
    split = [new for new in backward.values() if len(new) > 1]
    assert not merged, f"{len(merged)} new keys stand for several old ones"
    assert not split, f"{len(split)} old keys split into several new ones"
    # The pool must hold repeats (the warm pass) and distinct units.
    assert len(forward) < len(decision_keys) and len(forward) > len(PERTURBATIONS)


def test_an_equal_vertex_keyed_signature_means_an_equal_hand_written_one(met):
    _, signatures = met
    forward, backward = _classes(signatures)
    merged = [old for old in forward.values() if len(old) > 1]
    assert not merged, f"{len(merged)} new signatures stand for several old ones"
    assert len(forward) >= len(backward) > len(PERTURBATIONS)


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_each_perturbation_moves_the_decision_key_and_a_downstream_signature(name):
    search = StubbyOptimizer(CLUSTER, seed=17).search
    plan = golden.plan_of(PERTURBED_PLAN)
    workflow = plan.workflow
    job, dataset, base = _edit_site(workflow)
    # The plan part of a unit key does not depend on the unit.
    key_before = search._decision_key(plan, (), (), "vertical")
    signature_before = subgraph_signature(workflow, dataset, CLUSTER)
    PERTURBATIONS[name](workflow, job, base)
    assert search._decision_key(plan, (), (), "vertical") != key_before
    assert subgraph_signature(workflow, dataset, CLUSTER) != signature_before
