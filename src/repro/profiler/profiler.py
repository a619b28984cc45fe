"""The profiler: collects dataflow and cost statistics for profile annotations.

The paper generates profile annotations with Starfish's profiler, which
instruments unmodified MapReduce programs at run time [8].  Our equivalent
executes the (unoptimized) workflow on the local engine over the full base
datasets and derives per-operator selectivities, record widths, CPU costs,
and key cardinalities from the execution counters.  What the estimates
still miss is the What-if engine's own modelling error (paper Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.dfs.dataset import Dataset
from repro.mapreduce.counters import ExecutionCounters
from repro.workflow.annotations import (
    DatasetAnnotation,
    OperatorProfile,
    ProfileAnnotation,
)
from repro.workflow.executor import WorkflowExecutor
from repro.workflow.graph import JobVertex, Workflow


@dataclass
class ProfilingResult:
    """Profiles produced for one workflow."""

    job_profiles: Dict[str, ProfileAnnotation] = field(default_factory=dict)
    dataset_annotations: Dict[str, DatasetAnnotation] = field(default_factory=dict)


class Profiler:
    """Collects profile annotations by executing workflows on the local engine."""

    # ------------------------------------------------------------------ API
    def profile_workflow(
        self,
        workflow: Workflow,
        base_datasets: Dict[str, Dataset],
        attach: bool = True,
    ) -> ProfilingResult:
        """Profile every job of ``workflow`` and (optionally) attach annotations.

        ``base_datasets`` maps base dataset names to materialized datasets.
        When ``attach`` is true the produced profile annotations are stored on
        the workflow's job vertices and the dataset annotations on its base
        dataset vertices, which is the normal way to prepare a plan for
        Stubby.
        """
        execution, _ = WorkflowExecutor().execute(workflow, base_datasets=base_datasets)

        result = ProfilingResult()

        for name, dataset in base_datasets.items():
            result.dataset_annotations[name] = self.annotate_dataset(dataset)

        for vertex in workflow.jobs:
            counters = execution.counters_for(vertex.name)
            profile = self.profile_from_counters(vertex, counters)
            result.job_profiles[vertex.name] = profile

        if attach:
            for name, profile in result.job_profiles.items():
                workflow.annotate_job(name, profile=profile)
            for name, annotation in result.dataset_annotations.items():
                if workflow.has_dataset(name):
                    workflow.add_dataset(name, dataset=base_datasets[name], annotation=annotation)
        return result

    def annotate_dataset(self, dataset: Dataset) -> DatasetAnnotation:
        """Build a dataset annotation (physical design + statistics) for a dataset."""
        first = next((r for p in dataset.partitions for r in p.records), None)
        schema = tuple(sorted(first)) if first is not None else ()
        ranges = dataset.field_ranges
        field_ranges = {
            name: (float(ranges[name][0]), float(ranges[name][1]))
            for name in schema
            if name in ranges
        }
        partitioning = dataset.layout.partitioning
        split_points = None
        if partitioning.kind == "range" and partitioning.ranges is not None:
            split_points = tuple(partitioning.ranges.split_points)
        return DatasetAnnotation(
            schema=schema or None,
            partition_kind=partitioning.kind,
            partition_fields=tuple(partitioning.fields) if partitioning.fields else None,
            split_points=split_points,
            sort_fields=tuple(dataset.layout.sort_fields) if dataset.layout.sort_fields else None,
            compressed=dataset.layout.compressed,
            size_bytes=dataset.logical_bytes,
            num_records=dataset.logical_records,
            field_ranges=field_ranges,
        )

    def profile_from_counters(
        self,
        vertex: JobVertex,
        counters: ExecutionCounters,
    ) -> ProfileAnnotation:
        """Derive a job's profile annotation from its execution counters."""
        job = vertex.job
        map_output_bytes_per_record = counters.bytes_per_map_output_record or 100.0
        output_bytes_per_record = counters.bytes_per_output_record or 100.0
        input_bytes_per_record = (
            counters.map_input_bytes / counters.map_input_records
            if counters.map_input_records
            else 100.0
        )

        operator_profiles: Dict[str, OperatorProfile] = {}
        for pipeline in job.pipelines:
            for index, op in enumerate(pipeline.map_ops):
                observed = counters.operators.get(op.name)
                selectivity = observed.selectivity if observed is not None else 1.0
                is_last_map = index == len(pipeline.map_ops) - 1
                record_bytes = (
                    output_bytes_per_record
                    if pipeline.is_map_only and is_last_map
                    else map_output_bytes_per_record
                )
                operator_profiles[op.name] = OperatorProfile(
                    selectivity=float(selectivity),
                    cpu_cost_per_record=float(op.cpu_cost_per_record),
                    output_record_bytes=float(record_bytes),
                )
            for index, op in enumerate(pipeline.reduce_ops):
                observed = counters.operators.get(op.name)
                selectivity = observed.selectivity if observed is not None else 1.0
                operator_profiles[op.name] = OperatorProfile(
                    selectivity=float(selectivity),
                    cpu_cost_per_record=float(op.cpu_cost_per_record),
                    output_record_bytes=float(output_bytes_per_record),
                )

        combine_reduction = 1.0
        if counters.combine_input_records > 0:
            combine_reduction = counters.combine_output_records / counters.combine_input_records
        elif job.has_combiner and counters.reduce_input_records > 0 and counters.reduce_input_groups > 0:
            # The combiner was not enabled during profiling: assume it would
            # reduce each map task's records to roughly one per group.
            combine_reduction = min(
                1.0, counters.reduce_input_groups / counters.reduce_input_records * 3.0
            )

        key_cardinalities = {
            fields: float(count) for fields, count in counters.key_cardinalities.items()
        }

        map_cpu, reduce_cpu = self._job_level_cpu(vertex)
        return ProfileAnnotation(
            map_selectivity=float(counters.map_selectivity),
            reduce_selectivity=float(counters.reduce_selectivity),
            map_output_record_bytes=float(map_output_bytes_per_record),
            output_record_bytes=float(output_bytes_per_record),
            input_record_bytes=float(input_bytes_per_record),
            combine_reduction=combine_reduction,
            map_cpu_cost_per_record=map_cpu,
            reduce_cpu_cost_per_record=reduce_cpu,
            key_cardinalities=key_cardinalities,
            operator_profiles=operator_profiles,
        )

    @staticmethod
    def _job_level_cpu(vertex: JobVertex) -> tuple:
        job = vertex.job
        map_cpu = 0.0
        reduce_cpu = 0.0
        for pipeline in job.pipelines:
            map_cpu += sum(op.cpu_cost_per_record for op in pipeline.map_ops)
            reduce_cpu += sum(op.cpu_cost_per_record for op in pipeline.reduce_ops)
        return map_cpu, reduce_cpu
