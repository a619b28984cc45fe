"""From-scratch reference builders of every content key and dataset statistic.

``src/`` builds each part of a unit decision key once per frozen value it
describes (``JobConfig.key``, ``PartitionFunction.key``, ``JobAnnotations.key``,
``DatasetAnnotation.key``, ``MapReduceJob.shape_key`` /
``effective_partitioner``, the what-if engine's vertex memo) and fixes a
dataset's statistics at ``Dataset.load()``.  The functions here are the
builders as they stood before that (ISSUE 21), relocated out of ``src/``:
they read no memo — every tuple is rebuilt from the fields, every size
recounted from the records — so ``==`` against them shows that a memoised
part still says what its value says.  Run as a script to compare every unit
key of the eleven pinned plans, cold and warm (exit status 1 on a mismatch).
"""

import dataclasses

from repro.common.hashing import stable_hash
from repro.common.records import record_size_bytes
from repro.common.store import cluster_cache_key
from repro.core import search as search_module
from repro.core.decision_cache import (
    filter_annotation_key,
    plain_value_key,
    rrs_search_key,
    schema_annotation_key,
    transformation_key,
)
from repro.mapreduce.partitioner import PartitionFunction
from repro.whatif import model as whatif_model


# ------------------------------------------------------------ dataset statistics
def recount(dataset):
    """``(num_records, raw_bytes, [(index, num_records, raw_bytes) per partition])``."""
    partitions = [
        (p.index, len(p.records), sum(record_size_bytes(r) for r in p.records))
        for p in dataset.partitions
    ]
    return sum(p[1] for p in partitions), sum(p[2] for p in partitions), partitions


def assert_statistics_match_a_recount(dataset):
    num_records, raw_bytes, partitions = recount(dataset)
    assert (dataset.num_records, dataset.raw_bytes) == (num_records, raw_bytes)
    assert [(p.index, p.num_records, p.raw_bytes) for p in dataset.partitions] == partitions
    assert dataset.stored_bytes == dataset.layout.stored_bytes(raw_bytes)
    assert dataset.logical_bytes == raw_bytes * dataset.scale_factor
    assert dataset.logical_records == num_records * dataset.scale_factor
    assert dataset.content_fingerprint == dataset_content_fingerprint(dataset)


def dataset_content_fingerprint(dataset):
    if dataset is None:
        return None
    return stable_hash(sorted(str(sorted(record.items())) for record in dataset.records()))


# -------------------------------------------------------------------- value keys
def config_key(config):
    return tuple(getattr(config, f.name) for f in dataclasses.fields(config))


def partition_function_key(partitioner):
    if partitioner is None:
        return None
    return (
        partitioner.kind,
        tuple(partitioner.fields),
        tuple(partitioner.effective_sort_fields),
        tuple(partitioner.split_points),
    )


def effective_partitioner(job):
    if job.partitioner is not None:
        return job.partitioner
    group_fields = []
    for pipeline in job.pipelines:
        for field_name in pipeline.shuffle_group_fields:
            if field_name not in group_fields:
                group_fields.append(field_name)
    return PartitionFunction.default_hash(group_fields)


def job_annotations_key(annotations):
    return (
        schema_annotation_key(annotations.schema),
        filter_annotation_key(annotations.filter),
        tuple(
            sorted(
                (name, filter_annotation_key(flt))
                for name, flt in annotations.per_input_filters.items()
            )
        ),
        partition_function_key(annotations.partition_constraint),
        tuple(
            sorted(
                ((str(name), plain_value_key(value)) for name, value in annotations.conditions.items()),
                key=repr,
            )
        ),
    )


def dataset_annotation_key(annotation):
    if annotation is None:
        return None
    return (
        annotation.schema,
        annotation.partition_kind,
        annotation.partition_fields,
        annotation.split_points,
        annotation.sort_fields,
        annotation.compressed,
        annotation.size_bytes,
        annotation.num_records,
        tuple(sorted(annotation.field_ranges.items())),
    )


def plan_signature(plan):
    parts = []
    for vertex in plan.workflow.jobs:
        job = vertex.job
        partitioner = effective_partitioner(job)
        pipelines = tuple(
            (
                pipeline.tag,
                tuple(pipeline.input_datasets),
                tuple(op.name for op in pipeline.map_ops),
                tuple(op.name for op in pipeline.reduce_ops),
                pipeline.output_dataset,
                tuple(sorted(
                    (name, tuple(indexes))
                    for name, indexes in pipeline.input_partition_filter.items()
                )),
            )
            for pipeline in job.pipelines
        )
        parts.append(
            (
                job.name,
                pipelines,
                partitioner.kind,
                tuple(partitioner.fields),
                tuple(partitioner.effective_sort_fields),
                tuple(partitioner.split_points),
                job.config.chained_input,
            )
        )
    return tuple(sorted(parts))


def vertex_content_key(cluster, vertex):
    """The engine's local key from an engine that has memoised nothing, its
    two reads of the job's own memos checked against a fresh derivation."""
    local = whatif_model.WhatIfEngine(cluster).vertex_content_key(vertex)
    job = vertex.job
    assert local.partitioner_fields == tuple(effective_partitioner(job).fields)
    has_combiner = any(p.map_side_combiner is not None for p in job.pipelines)
    assert local.combiner_active == (has_combiner and job.config.combiner_enabled)
    return local


# ------------------------------------------------------------------ the unit key
def decision_key(search, plan, subunits, transformations, phase):
    """``StubbySearch._decision_key`` with nothing read from a memo."""
    workflow = plan.workflow
    job_parts = []
    for vertex in workflow.jobs:
        job = vertex.job
        job_parts.append(
            (
                vertex.name,
                vertex_content_key(search.cluster, vertex),
                config_key(job.config),
                partition_function_key(effective_partitioner(job)),
                job_annotations_key(vertex.annotations),
            )
        )
    dataset_parts = []
    for dataset_vertex in workflow.datasets:
        dataset = dataset_vertex.dataset
        sizes = None
        if dataset is not None:
            num_records, raw_bytes, _ = recount(dataset)
            sizes = (raw_bytes * dataset.scale_factor, num_records * dataset.scale_factor)
        dataset_parts.append(
            (dataset_vertex.name, dataset_annotation_key(dataset_vertex.annotation), sizes)
        )
    return (
        ("unit", tuple((subunit.producers, subunit.consumers) for subunit in subunits)),
        ("jobs", tuple(job_parts)),
        ("datasets", tuple(dataset_parts)),
        ("lineage", tuple(sorted(plan.merge_lineage.items()))),
        ("structure", plan_signature(plan)),
        (
            "knobs",
            phase,
            search.seed,
            search.optimize_configurations,
            rrs_search_key(search.rrs),
            tuple(transformation_key(t) for t in transformations),
            (
                search_module.MAX_SUBPLANS_PER_UNIT,
                search_module.MAX_ENUMERATION_DEPTH,
                search_module.MAX_COMPOSED_COMBINATIONS,
            ),
            whatif_model.COST_MODEL_VERSION,
            cluster_cache_key(search.cluster),
        ),
    )


def optimize_checking_keys(optimizer, plan):
    """``optimizer.optimize(plan)``, comparing ``_decision_key`` with
    :func:`decision_key` at every unit, on the plan going in and on the plan
    coming out (searched or replayed).  Returns ``(result, keys compared)``."""
    search = optimizer.search
    inner = search.optimize_units
    compared = 0

    def compare(stage, subunits, transformations, phase):
        nonlocal compared
        built = search._decision_key(stage, subunits, transformations, phase)
        assert built == decision_key(search, stage, subunits, transformations, phase), (
            f"decision key of unit {[s.producers for s in subunits]!r} ({phase}) "
            "differs from the from-scratch builder"
        )
        assert stage.signature() == plan_signature(stage)
        compared += 1

    def checking(plan, subunits, transformations, phase="vertical"):
        compare(plan, subunits, transformations, phase)
        optimized, reports = inner(plan, subunits, transformations, phase)
        compare(optimized, subunits, transformations, phase)
        return optimized, reports

    search.optimize_units = checking
    try:
        return optimizer.optimize(plan), compared
    finally:
        del search.optimize_units


if __name__ == "__main__":
    import test_golden_fingerprints as golden

    from repro.cluster import ClusterSpec
    from repro.core.decision_cache import DecisionCache
    from repro.core.optimizer import StubbyOptimizer

    CLUSTER = ClusterSpec.paper_cluster()
    for label, pinned_plan in golden._plans():
        pinned = StubbyOptimizer(CLUSTER, seed=17, decision_cache=DecisionCache(CLUSTER, enabled=True))
        cold, cold_keys = optimize_checking_keys(pinned, pinned_plan)
        warm, warm_keys = optimize_checking_keys(pinned, pinned_plan)
        assert cold.unit_decision_hits == 0 < cold.unit_decision_misses == warm.unit_decision_hits
        assert cold_keys == warm_keys == 2 * cold.unit_decision_misses
        print(label, cold_keys + warm_keys)
