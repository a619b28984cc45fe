"""From-scratch reference builders of every content key and dataset statistic.

``src/`` builds each part of a unit decision key once per frozen value it
describes (``JobConfig.key``, ``PartitionFunction.key``, ``JobAnnotations.key``,
``DatasetAnnotation.key``, ``MapReduceJob.shape_key`` /
``effective_partitioner``, ``JobVertex.content_key`` / ``Pipeline.content_key``
/ ``ProfileAnnotation.key``, and the two vertex keys both stores read,
``JobVertex.key`` / ``DatasetVertex.key``) and fixes a dataset's statistics at
``Dataset.load()``.  The functions here are the builders as they stood before
any of that was memoised, relocated out of ``src/``: they read no memo —
every tuple is rebuilt from the fields, every size recounted from the
records — so ``==`` against them shows that a memoised part still says what
its value says.  :func:`legacy_decision_key` and
:func:`legacy_subgraph_signature` are the two store keys as they stood
before the vertex keys, each job part written out by hand: the reference
``tests/test_vertex_keys.py`` checks that the vertex-keyed ones split keys
alike.  Run as a script to compare every unit key and intermediate-dataset
signature of the twelve pinned plans, cold and warm (exit status 1 on a
mismatch).
"""

import dataclasses

from repro.common.content_keys import PipelineContentKey, VertexContentKey
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
from repro.core.subresults import producing_cone, subgraph_signature as src_signature
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


def shape_key(job):
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
    return (job.name, pipelines) + partition_function_key(effective_partitioner(job))


def plan_signature(plan):
    return tuple(sorted(
        shape_key(vertex.job) + (vertex.job.config.chained_input,) for vertex in plan.workflow.jobs
    ))


def profile_key(profile):
    if profile is None:
        return None
    return (
        profile.map_selectivity,
        profile.reduce_selectivity,
        profile.map_output_record_bytes,
        profile.output_record_bytes,
        profile.input_record_bytes,
        profile.combine_reduction,
        profile.map_cpu_cost_per_record,
        profile.reduce_cpu_cost_per_record,
        tuple(sorted(profile.key_cardinalities.items())),
        tuple(
            sorted(
                (name, op.selectivity, op.cpu_cost_per_record, op.output_record_bytes)
                for name, op in profile.operator_profiles.items()
            )
        ),
    )


def pipeline_content_key(pipeline):
    return PipelineContentKey(
        inputs=tuple(
            (dataset_name, pipeline.allowed_partitions(dataset_name))
            for dataset_name in pipeline.input_datasets
        ),
        map_ops=tuple((op.name, op.cpu_cost_per_record) for op in pipeline.map_ops),
        reduce_ops=tuple(
            (op.name, op.cpu_cost_per_record, op.group_fields) for op in pipeline.reduce_ops
        ),
        output_dataset=pipeline.output_dataset,
    )


def vertex_content_key(vertex):
    job = vertex.job
    has_combiner = any(p.map_side_combiner is not None for p in job.pipelines)
    return VertexContentKey(
        pipelines=tuple(pipeline_content_key(pipeline) for pipeline in job.pipelines),
        partitioner_fields=tuple(effective_partitioner(job).fields),
        combiner_active=has_combiner and job.config.combiner_enabled,
        profile_key=profile_key(vertex.annotations.profile),
        chained_input=job.config.chained_input,
    )


# ------------------------------------------------------------------ the vertex keys
def logical_sizes(dataset):
    if dataset is None:
        return None
    num_records, raw_bytes, _ = recount(dataset)
    return (raw_bytes * dataset.scale_factor, num_records * dataset.scale_factor)


def job_key(vertex):
    """``JobVertex.key`` with nothing read from a memo."""
    job = vertex.job
    return (
        vertex_content_key(vertex),
        shape_key(job),
        config_key(job.config),
        job_annotations_key(vertex.annotations),
    )


def dataset_key(vertex):
    """``DatasetVertex.key`` with nothing read from a memo."""
    return (dataset_annotation_key(vertex.annotation), logical_sizes(vertex.dataset))


# ------------------------------------------------------------------ the unit key
def knobs(search, transformations, phase):
    return (
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
    )


def decision_key(search, plan, subunits, transformations, phase):
    """``StubbySearch._decision_key`` with nothing read from a memo."""
    workflow = plan.workflow
    return (
        ("unit", tuple((subunit.producers, subunit.consumers) for subunit in subunits)),
        ("jobs", tuple(job_key(vertex) for vertex in workflow.jobs)),
        ("datasets", tuple((vertex.name, dataset_key(vertex)) for vertex in workflow.datasets)),
        ("lineage", tuple(sorted(plan.merge_lineage.items()))),
        knobs(search, transformations, phase),
    )


def legacy_decision_key(search, plan, subunits, transformations, phase):
    """The unit decision key as it stood before jobs and datasets had a key
    of their own (decision-cache format version 5): each job part written
    out by hand, plus the sorted structural signature of the plan.  The
    reference the vertex-keyed :func:`decision_key` must split keys like."""
    workflow = plan.workflow
    job_parts = []
    for vertex in workflow.jobs:
        job = vertex.job
        job_parts.append(
            (
                vertex.name,
                vertex_content_key(vertex),
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


# ------------------------------------------------------------ the sub-result key
def legacy_subgraph_signature(workflow, dataset_name, cluster):
    """``subgraph_signature`` as it stood before jobs and datasets had a key
    of their own (catalog format version 3), with nothing read from a memo."""
    cone_jobs, base_inputs = producing_cone(workflow, dataset_name)
    job_parts = []
    touched_datasets = {}
    for job_name in cone_jobs:
        vertex = workflow.job(job_name)
        job = vertex.job
        for name in job.input_datasets + job.output_datasets:
            touched_datasets[name] = None
        job_parts.append(
            (
                job_name,
                vertex_content_key(vertex),
                config_key(job.config),
                partition_function_key(effective_partitioner(job)),
                job_annotations_key(vertex.annotations),
                tuple(job.input_datasets),
                tuple(job.output_datasets),
            )
        )
    base_parts = []
    for name in base_inputs:
        vertex = workflow.dataset(name) if workflow.has_dataset(name) else None
        dataset = vertex.dataset if vertex is not None else None
        base_parts.append(
            (
                name,
                dataset_annotation_key(vertex.annotation if vertex is not None else None),
                logical_sizes(dataset),
                dataset_content_fingerprint(dataset),
            )
        )
    annotation_parts = tuple(
        (name, dataset_annotation_key(workflow.dataset(name).annotation))
        for name in sorted(touched_datasets)
        if workflow.has_dataset(name)
    )
    return (
        "subresult",
        dataset_name,
        tuple(job_parts),
        tuple(base_parts),
        annotation_parts,
        whatif_model.COST_MODEL_VERSION,
        cluster_cache_key(cluster),
    )


def subgraph_signature(workflow, dataset_name, cluster):
    """``subgraph_signature`` with nothing read from a memo."""
    cone_jobs, base_inputs = producing_cone(workflow, dataset_name)
    touched = set(base_inputs)
    for job_name in cone_jobs:
        job = workflow.job(job_name).job
        touched.update(job.input_datasets, job.output_datasets)
    return (
        "subresult",
        dataset_name,
        tuple(job_key(workflow.job(name)) for name in cone_jobs),
        tuple((name, dataset_key(workflow.dataset(name))) for name in sorted(touched)),
        tuple(dataset_content_fingerprint(workflow.dataset(name).dataset) for name in base_inputs),
        whatif_model.COST_MODEL_VERSION,
        cluster_cache_key(cluster),
    )


def intermediate_datasets(workflow):
    """Names of the datasets a job writes and another reads: what the catalog stores."""
    return [
        vertex.name
        for vertex in workflow.datasets
        if workflow.producer_of(vertex.name) is not None and workflow.consumers_of(vertex.name)
    ]


def optimize_checking_keys(optimizer, plan):
    """``optimizer.optimize(plan)``, comparing ``_decision_key`` with
    :func:`decision_key` at every unit, on the plan going in and on the plan
    coming out (searched or replayed), and every intermediate dataset's
    ``subgraph_signature`` with :func:`subgraph_signature` on the plans going
    into and coming out of ``optimize()``.  Returns ``(result, keys compared)``."""
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
        result = optimizer.optimize(plan)
    finally:
        del search.optimize_units
    for stage in (plan, result.plan):
        workflow = stage.workflow
        for name in intermediate_datasets(workflow):
            assert src_signature(workflow, name, search.cluster) == subgraph_signature(
                workflow, name, search.cluster
            ), f"sub-result signature of {name!r} differs from the from-scratch builder"
    return result, compared


if __name__ == "__main__":
    import golden_digests as golden

    from repro.cluster import ClusterSpec
    from repro.core.decision_cache import DecisionCache
    from repro.core.optimizer import StubbyOptimizer

    CLUSTER = ClusterSpec.paper_cluster()
    for label, pinned_plan in golden._plans():
        pinned = StubbyOptimizer(CLUSTER, seed=17, decision_cache=DecisionCache(CLUSTER, enabled=True))
        cold, cold_keys = optimize_checking_keys(pinned, pinned_plan)
        warm, warm_keys = optimize_checking_keys(pinned, pinned_plan)
        units = cold.decision_stats.decision_misses
        assert cold.decision_stats.decision_hits == 0 < units == warm.decision_stats.decision_hits
        assert cold_keys == warm_keys == 2 * units
        print(label, cold_keys + warm_keys)
