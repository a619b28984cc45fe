"""Key parts handed across edits that cannot move them.

``Workflow.update_job`` gives the new vertex the old vertex's
``JobVertex.content_key`` when the derived job keeps the pipelines tuple, the
effective partitioner object and both flags the key reads
(``combiner_enabled``, ``chained_input``); ``Workflow.annotate_job`` keeps
``JobAnnotations.key`` across a profile-only edit and the vertex key across
an edit that keeps the profile.  Every key a vertex holds after an edit —
handed over or built — must equal a from-scratch rebuild by
``tests/key_oracle.py``, after single edits of every kind and after random
chains of them (a handed-over key handed over again).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.config import JobConfig
from repro.mapreduce.partitioner import PartitionFunction
from tests import golden_digests as golden, key_oracle

CANNED = [*golden.GOLDEN][:8]

_PLANS = {}


def _plan(label):
    if label not in _PLANS:
        _PLANS[label] = golden.plan_of(label)
    return _PLANS[label]


def _keyed_workflow(label):
    """A copy of plan ``label``'s workflow with every key part built."""
    workflow = _plan(label).workflow.copy()
    for vertex in workflow.jobs:
        vertex.content_key, vertex.annotations.key
    return workflow


def _perturbed(config, name):
    value = getattr(config, name)
    if name == "max_parallel_maps_per_producer_reduce":  # flips ``chained_input``
        return config.replace(**{name: 0 if value == 1 else 1})
    if isinstance(value, bool):
        return config.replace(**{name: not value})
    return config.replace(**{name: value + 1})


def _config_edits(job):
    for name in JobConfig._FIELD_NAMES:
        changed = _perturbed(job.config, name)
        yield f"config.{name}", lambda job, changed=changed: job.with_config(changed)
    yield "config.same", lambda job: job.with_config(job.config)


def _partitioner_edits(job):
    current = job.effective_partitioner
    yield "partitioner.same-object", lambda job: job.with_partitioner(job.effective_partitioner)
    yield "partitioner.equal-copy", lambda job: job.with_partitioner(dataclasses.replace(current))
    if current.fields:
        fewer = PartitionFunction.default_hash(current.fields[:-1] or ("other",))
        yield "partitioner.swap", lambda job: job.with_partitioner(fewer)
    wider = PartitionFunction(
        kind="hash", fields=current.fields, sort_fields=current.fields + ("extra",)
    )
    yield "partitioner.sort-swap", lambda job: job.with_partitioner(wider)


def _pipeline_edits(job):
    yield "pipelines.same-tuple", lambda job: dataclasses.replace(job, pipelines=job.pipelines)
    yield "pipelines.equal-copy", lambda job: dataclasses.replace(job, pipelines=list(job.pipelines))
    first = job.pipelines[0]
    dataset = first.input_datasets[0]
    pruned = first.with_partition_filter(dataset, (0,))
    yield "pipelines.pruned", lambda job: dataclasses.replace(
        job, pipelines=(pruned,) + job.pipelines[1:]
    )
    if len(job.pipelines) > 1:
        yield "pipelines.reordered", lambda job: dataclasses.replace(
            job, pipelines=job.pipelines[::-1]
        )


def _job_edits(job):
    yield from _config_edits(job)
    yield from _partitioner_edits(job)
    yield from _pipeline_edits(job)


def _annotation_edits(workflow, vertex):
    others = [v.annotations.profile for v in workflow.jobs if v is not vertex]
    annotations = vertex.annotations
    yield "profile.none", {"profile": None}
    yield "profile.same", {"profile": annotations.profile}
    if others:
        yield "profile.other", {"profile": others[0]}
    yield "conditions", {"conditions": {**annotations.conditions, "chained_consumer": "X"}}
    yield "constraint", {"partition_constraint": PartitionFunction.default_hash(("k",))}
    yield "profile+conditions", {"profile": None, "conditions": {"flag": 1}}


def _assert_keys_match_the_oracle(vertex):
    assert vertex.content_key == key_oracle.vertex_content_key(vertex)
    assert vertex.annotations.key == key_oracle.job_annotations_key(vertex.annotations)


def _handed_over(new, old, name):
    """Whether ``new`` holds ``old``'s already-built key ``name`` itself."""
    return new.__dict__.get(name) is old.__dict__.get(name) is not None


@pytest.mark.parametrize("label", CANNED)
def test_every_single_job_edit_keeps_a_key_equal_to_a_rebuild(label):
    handed = rebuilt = 0
    for name in _keyed_workflow(label).job_names:
        probe = _keyed_workflow(label)
        for edit, derive in _job_edits(probe.job(name).job):
            workflow = _keyed_workflow(label)
            old = workflow.job(name)
            try:
                vertex = workflow.update_job(name, derive)
            except ValueError:
                continue  # a perturbation the config refuses (e.g. a negative count)
            kept = _handed_over(vertex, old, "content_key")
            handed += kept
            rebuilt += not kept
            expected = {
                "config.same": True,
                "partitioner.same-object": True,
                # A job without a partitioner rebuilds its default one.
                "pipelines.same-tuple": old.job.partitioner is not None,
                "config.combiner_enabled": False,
                "config.max_parallel_maps_per_producer_reduce": False,
                "pipelines.equal-copy": False,
                "pipelines.pruned": False,
                "pipelines.reordered": False,
            }.get(edit)
            if expected is not None:
                assert kept == expected, (label, name, edit)
            # The annotations object is carried over with its key.
            assert vertex.annotations is old.annotations
            _assert_keys_match_the_oracle(vertex)
    assert handed and rebuilt


@pytest.mark.parametrize("label", CANNED)
def test_every_annotation_edit_keeps_keys_equal_to_a_rebuild(label):
    for name in _keyed_workflow(label).job_names:
        probe = _keyed_workflow(label)
        for edit, changes in _annotation_edits(probe, probe.job(name)):
            workflow = _keyed_workflow(label)
            old = workflow.job(name)
            vertex = workflow.annotate_job(name, **changes)
            where = (label, name, edit)
            assert _handed_over(vertex, old, "content_key") == ("profile" not in changes), where
            assert _handed_over(vertex.annotations, old.annotations, "key") == (
                set(changes) <= {"profile"}
            ), where
            _assert_keys_match_the_oracle(vertex)


@st.composite
def _chains(draw):
    label = draw(st.sampled_from(CANNED))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63), st.booleans()), min_size=1, max_size=8
        )
    )
    return label, steps


@settings(max_examples=60, deadline=None)
@given(_chains())
def test_random_chains_of_edits_keep_every_key_equal_to_a_rebuild(chain):
    label, steps = chain
    workflow = _keyed_workflow(label)
    names = workflow.job_names
    for job_pick, edit_pick, annotate in steps:
        name = names[job_pick % len(names)]
        vertex = workflow.job(name)
        if annotate:
            edits = list(_annotation_edits(workflow, vertex))
            _edit, changes = edits[edit_pick % len(edits)]
            workflow.annotate_job(name, **changes)
        else:
            edits = list(_job_edits(vertex.job))
            _edit, derive = edits[edit_pick % len(edits)]
            try:
                workflow.update_job(name, derive)
            except ValueError:
                continue
        for each in workflow.jobs:
            _assert_keys_match_the_oracle(each)
