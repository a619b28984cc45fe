"""Ground-truth ("actual") cost from measured execution counters.

The evaluation needs two cost figures for every plan:

* the **estimated** cost, produced by the What-if engine from profile
  annotations (possibly collected on a sample, with noise); and
* the **actual** cost — what the plan really costs on the cluster.

Since our substrate is a simulator, the actual cost is obtained by executing
the plan with the local engine (which yields exact dataflow counters) and
feeding those *measured* counters — scaled to the logical dataset size —
through the same per-phase job model.  The two paths share the model but
differ in their inputs, exactly like Starfish's predictions vs. Hadoop's
measured runtimes differ in the paper's Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster import ClusterSpec
from repro.dfs.filesystem import InMemoryFileSystem
from repro.mapreduce.counters import ExecutionCounters
from repro.mapreduce.job import MapReduceJob
from repro.whatif.dataflow import JobDataflow
from repro.whatif.jobmodel import JobTimeEstimate, estimate_job_time
from repro.whatif.scheduling import workflow_makespan
from repro.workflow.executor import WorkflowExecutionResult
from repro.workflow.graph import JobVertex, Workflow


@dataclass
class ActualWorkflowCost:
    """Simulated runtime of an executed workflow, from measured counters."""

    total_s: float
    per_job: Dict[str, JobTimeEstimate] = field(default_factory=dict)


class ActualCostModel:
    """Converts measured execution counters into simulated cluster runtimes."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster

    def workflow_cost(
        self,
        workflow: Workflow,
        execution: WorkflowExecutionResult,
        filesystem: InMemoryFileSystem,
    ) -> ActualWorkflowCost:
        """Cost a fully executed workflow.

        Walks the same cached ``topological_levels()`` the What-if engine
        uses (the workflow's topology index — usually already warm from the
        execution that produced ``execution``), so actual-cost accounting
        stays cheap on wide DAGs.
        """
        per_job: Dict[str, JobTimeEstimate] = {}
        per_level: List[List[JobTimeEstimate]] = []
        for level in workflow.topological_levels():
            level_estimates: List[JobTimeEstimate] = []
            for vertex in level:
                counters = execution.counters_for(vertex.name)
                dataflow = self.dataflow_from_counters(vertex, workflow, counters, filesystem)
                estimate = estimate_job_time(dataflow, vertex.job.config, self.cluster)
                per_job[vertex.name] = estimate
                level_estimates.append(estimate)
            per_level.append(level_estimates)
        total = workflow_makespan(per_level, self.cluster)
        return ActualWorkflowCost(total_s=total, per_job=per_job)

    def dataflow_from_counters(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        counters: ExecutionCounters,
        filesystem: InMemoryFileSystem,
    ) -> JobDataflow:
        """Build the logical-scale dataflow of one executed job."""
        job = vertex.job
        scale = self._input_scale(job, filesystem)

        map_cpu_units, reduce_cpu_units = self._cpu_units(job, counters)
        input_records = max(1.0, counters.map_input_records * scale)
        reduce_input_records = max(0.0, counters.reduce_input_records * scale)
        # CPU-per-record ratios are scale invariant: divide the (unscaled)
        # cost units by the (unscaled) record counts they were measured over.
        map_cpu_per_record = (
            map_cpu_units / counters.map_input_records if counters.map_input_records else 1.0
        )
        reduce_cpu_per_record = (
            reduce_cpu_units / counters.reduce_input_records
            if counters.reduce_input_records
            else 1.0
        )

        distinct_groups = self._distinct(counters, self._group_field_sets(job))
        distinct_partition_keys = self._distinct(
            counters, [tuple(job.effective_partitioner.fields)] if job.effective_partitioner.fields else []
        )

        chained_map_tasks: Optional[int] = None
        if job.config.chained_input:
            chained_map_tasks = self._producer_reduce_tasks(vertex, workflow)

        return JobDataflow(
            input_bytes=max(1.0, counters.map_input_bytes * scale),
            input_records=input_records,
            map_output_records=counters.map_output_records * scale,
            map_output_bytes=counters.map_output_bytes * scale,
            shuffle_records=counters.spilled_records * scale,
            shuffle_bytes=counters.shuffle_bytes * scale,
            reduce_input_records=reduce_input_records,
            output_records=counters.output_records * scale,
            output_bytes=counters.output_bytes * scale,
            map_cpu_cost_per_record=map_cpu_per_record,
            reduce_cpu_cost_per_record=reduce_cpu_per_record,
            map_only=job.is_map_only,
            pipeline_count=len(job.pipelines),
            distinct_reduce_groups=distinct_groups,
            distinct_partition_keys=distinct_partition_keys,
            chained_map_tasks=chained_map_tasks,
        )

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _input_scale(job: MapReduceJob, filesystem: InMemoryFileSystem) -> float:
        scales = []
        for dataset_name in job.input_datasets:
            dataset = filesystem.peek(dataset_name)
            if dataset is not None:
                scales.append(dataset.scale_factor)
        return max(scales) if scales else 1.0

    @staticmethod
    def _cpu_units(job: MapReduceJob, counters: ExecutionCounters) -> tuple:
        map_units = 0.0
        reduce_units = 0.0
        for pipeline in job.pipelines:
            for op in pipeline.map_ops:
                observed = counters.operators.get(op.name)
                if observed is not None:
                    map_units += observed.records_in * op.cpu_cost_per_record
            for op in pipeline.reduce_ops:
                observed = counters.operators.get(op.name)
                if observed is not None:
                    reduce_units += observed.records_in * op.cpu_cost_per_record
        return map_units, reduce_units

    @staticmethod
    def _group_field_sets(job: MapReduceJob) -> List[tuple]:
        field_sets = []
        for pipeline in job.pipelines:
            if pipeline.shuffle_group_fields:
                field_sets.append(tuple(pipeline.shuffle_group_fields))
        return field_sets

    @staticmethod
    def _distinct(counters: ExecutionCounters, field_sets: List[tuple]) -> Optional[float]:
        total = 0.0
        found = False
        for fields in field_sets:
            if fields in counters.key_cardinalities:
                total += counters.key_cardinalities[fields]
                found = True
        return total if found else None

    @staticmethod
    def _producer_reduce_tasks(vertex: JobVertex, workflow: Workflow) -> Optional[int]:
        for dataset_name in vertex.job.input_datasets:
            producer = workflow.producer_of(dataset_name)
            if producer is not None and not producer.job.is_map_only:
                return max(1, producer.job.config.num_reduce_tasks)
        return None
