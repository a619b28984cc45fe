"""The What-if engine: estimate workflow cost from annotations alone.

Given a plan (an annotated workflow), a cluster spec, and the configurations
chosen for each job, the engine derives each job's expected dataflow from the
profile annotations and the (estimated) sizes of its input datasets, costs it
with the per-phase job model, propagates the estimated output sizes to
downstream jobs, and combines per-level makespans into the workflow estimate.

Costing is exposed as composable per-vertex steps — :meth:`WhatIfEngine.cost_vertex`
produces one job's time estimate together with its output-size contributions,
:meth:`WhatIfEngine.job_estimate` is its job-model half (every walk's: the cold
engine's, the cost service's and the actual-cost judge's),
:meth:`WhatIfEngine.apply_output_contributions` advances the size state, and
:meth:`WhatIfEngine.vertex_dataflow_signature` captures every input the
dataflow derivation of a vertex reads — so
:class:`repro.whatif.service.CostService` can memoize the derivation of
unchanged jobs and re-derive only the mutated cone of a workflow.
:meth:`WhatIfEngine.estimate_workflow` is the cold (uncached) composition of
those steps.  The vertex-content half of a signature is the vertex's own
``content_key``, built once per frozen value; the engine holds no per-vertex
state, only the two counters of :meth:`WhatIfEngine.vertex_content_key`.

When a job carries no profile annotation the engine falls back to the simple
"number of jobs" cost model used by rule-based optimizers such as YSmart [11]
(paper §5), flagged through ``WorkflowCostEstimate.cost_basis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster import ClusterSpec
from repro.common import left_sum
from repro.common.content_keys import VertexContentKey
from repro.common.errors import CostModelError
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.pipeline import Pipeline
from repro.whatif.dataflow import JobDataflow
from repro.whatif.jobmodel import JobKernel, JobModelInputs, JobTimeEstimate, LevelTerms
from repro.whatif.jobmodel import job_model_settings
from repro.whatif.scheduling import level_makespan
from repro.workflow.annotations import OperatorProfile, ProfileAnnotation
from repro.workflow.graph import JobVertex, Workflow

#: Simulated seconds charged per job under the fallback job-count cost model.
JOB_COUNT_COST_SECONDS = 1_000.0

#: Version of the analytical cost model as a whole (dataflow derivation, job
#: model, makespan combination).  Persisted cost caches are stamped with this
#: value and rejected on mismatch — bump it whenever a change can alter any
#: estimate, so stale caches self-invalidate instead of serving estimates a
#: current computation would not produce.
COST_MODEL_VERSION = 1

#: A query's overlay: job name -> the configuration to cost it under (else: its own).
ConfigOverlay = Optional[Mapping[str, JobConfig]]


def config_of(vertex: JobVertex, configs: ConfigOverlay) -> JobConfig:
    """The configuration ``vertex`` is costed under; every read by the engine
    and the cost service goes through here, so an overlay needs no plan copy."""
    return (configs and configs.get(vertex.job.name)) or vertex.job.config


@dataclass
class WorkflowCostEstimate:
    """Estimated cost of a whole workflow."""

    total_s: float
    per_job: Dict[str, JobTimeEstimate] = field(default_factory=dict)
    dataset_sizes: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    cost_basis: str = "whatif"
    #: What a ``CostService.overlay`` session needs to take this estimate as
    #: its base (``None``: it cannot be one).  Not part of the estimate's value.
    basis: Optional["CostingBasis"] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class _PipelineFlow:
    """Intermediate per-pipeline dataflow derived while costing a job."""

    map_output_records: float
    map_output_bytes: float
    output_records: float
    output_bytes: float
    map_cpu_units: float
    reduce_cpu_units: float
    is_map_only: bool
    output_dataset: str


@dataclass(frozen=True, slots=True)
class VertexCost:
    """Result of costing one job vertex: the estimate plus its size effects.

    ``output_contributions`` lists, in pipeline order, the
    ``(dataset_name, bytes, records)`` each pipeline adds to its output
    dataset.  Keeping them ordered makes replaying a cached entry reproduce
    the engine's floating-point accumulation *exactly*.
    """

    estimate: JobTimeEstimate
    output_contributions: Tuple[Tuple[str, float, float], ...]
    #: The job model of the dataflow ``estimate`` was computed from, and what
    #: it read: the walk's level terms and a session's samples ask this kernel.
    kernel: JobKernel = field(compare=False)
    inputs: JobModelInputs = field(compare=False)


@dataclass(frozen=True, slots=True)
class CostingBasis:
    """One full traversal's intermediate results, held by reference (``run_costing``):
    what a :class:`~repro.whatif.service.CostService` session walks its samples
    from, taken on the workflow the session costs."""

    levels: List[List[JobVertex]]
    costed: Dict[str, VertexCost]
    #: Each level's jobs' level terms (:meth:`JobKernel.terms`), in level order.
    terms: List[List[LevelTerms]]
    level_makespans: List[float]
    #: The jobs whose signature reads a producer's reduce-task count (a
    #: partition-pruned input of a reducing, hash-partitioned producer); all
    #: else reaches them as sizes.
    fact_readers: Set[str]
    #: The jobs under the chaining constraint: their chained map-task count
    #: (:meth:`WhatIfEngine.chained_map_tasks`) is a job-model input.
    chained: Set[str]


class WhatIfEngine:
    """Analytical cost estimation for annotated MapReduce workflows."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        #: Content-key reads through :meth:`vertex_content_key` (bounded per
        #: cold ``optimize()`` by ``tests/test_plan_cow.py``): how many had to
        #: walk a pipeline (``signature_derivations``) vs. found every key
        #: they needed already built (``signature_memo_hits``).
        self.signature_derivations = 0
        self.signature_memo_hits = 0

    # ------------------------------------------------------------------ API
    def estimate_workflow(self, workflow: Workflow) -> WorkflowCostEstimate:
        """Estimate the total runtime of ``workflow`` on the engine's cluster."""
        if any(not vertex.annotations.has_profile for vertex in workflow.jobs):
            return self.job_count_estimate(workflow)
        return self.run_costing(workflow, self.cost_vertex)

    def run_costing(
        self,
        workflow: Workflow,
        cost_vertex_fn: Callable[..., VertexCost],
        configs: ConfigOverlay = None,
        sizes: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> WorkflowCostEstimate:
        """The one full workflow-costing traversal, parameterized by per-vertex costing.

        Walks the topological levels from ``sizes`` (default: :meth:`base_dataset_sizes`),
        calls ``cost_vertex_fn(vertex, workflow, sizes, configs)`` for each job (the
        cold :meth:`cost_vertex` here; a cache-aware wrapper in the cost service;
        measured counters in the actual-cost judge), propagates the returned
        output-size contributions, and combines per-level makespans.
        Sharing this single driver is what keeps the memoized service
        *exactly* equal to a cold estimation by construction.  An answer
        without ``configs`` carries the :class:`CostingBasis` a cost-service
        session walks its samples from (``docs/costing.md``, "Costing a sample").
        """
        cluster = self.cluster
        levels = workflow.topological_levels()
        costed: Dict[str, VertexCost] = {}
        terms: List[List[LevelTerms]] = []
        makespans: List[float] = []
        if sizes is None:
            sizes = self.base_dataset_sizes(workflow)
        fact_readers: Set[str] = set()
        chained: Set[str] = set()
        # Every dataset was sized once, before its first reader: the final
        # sizes are then the sizes each job was costed on.
        settled = True
        for level in levels:
            row: List[LevelTerms] = []
            for vertex in level:
                costed_vertex = cost_vertex_fn(vertex, workflow, sizes, configs)
                row.append(costed_vertex.kernel.terms(costed_vertex.inputs))
                contributions = costed_vertex.output_contributions
                settled = settled and not any(entry[0] in sizes for entry in contributions)
                self.apply_output_contributions(sizes, contributions)
                if self._reads_a_reduce_count(vertex, workflow):
                    fact_readers.add(vertex.job.name)
                if vertex.job.config.chained_input:
                    chained.add(vertex.job.name)
                costed[vertex.job.name] = costed_vertex
            terms.append(row)
            makespans.append(level_makespan(row, cluster))
        reusable = settled and not configs
        return WorkflowCostEstimate(
            total_s=left_sum(makespans),
            per_job={name: costed_vertex.estimate for name, costed_vertex in costed.items()},
            dataset_sizes=dict(sizes),
            basis=(
                CostingBasis(levels, costed, terms, makespans, fact_readers, chained)
                if reusable else None
            ),
        )

    # ------------------------------------------------------ per-vertex steps
    def cost_vertex(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        sizes: Dict[str, Tuple[float, float]],
        configs: ConfigOverlay = None,
    ) -> VertexCost:
        """Cost one job given the dataset sizes known so far.

        The composable unit of workflow estimation: derives the job's
        pipeline flows once, turns them into both the time estimate and the
        output-size contributions the caller must apply (via
        :meth:`apply_output_contributions`) before costing downstream jobs.
        """
        dataflow, contributions = self.derive_vertex_dataflow(vertex, workflow, sizes, configs)
        return self.job_estimate(vertex, workflow, dataflow, contributions, configs)

    def job_estimate(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        dataflow: JobDataflow,
        contributions: Tuple[Tuple[str, float, float], ...],
        configs: ConfigOverlay = None,
    ) -> VertexCost:
        """The job-model step of every walk (cold, cost service, judge): ``vertex``'s
        cost from ``dataflow`` and its ``contributions``.

        One :class:`~repro.whatif.jobmodel.JobKernel` of ``dataflow`` answers,
        under the job's configuration and chained map-task count
        (:meth:`chained_map_tasks`); the cost carries that kernel and its
        inputs, so the walk's level terms are a memo hit and a cost-service
        session's samples start from the same memo.
        """
        config = config_of(vertex, configs)
        chained = self.chained_map_tasks(vertex, workflow, configs) if config.chained_input else 0
        inputs = (*job_model_settings(config), chained)
        kernel = JobKernel(dataflow, self.cluster)
        return VertexCost(kernel.estimate(inputs), contributions, kernel, inputs)

    def derive_vertex_dataflow(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        sizes: Dict[str, Tuple[float, float]],
        configs: ConfigOverlay = None,
    ) -> Tuple[JobDataflow, Tuple[Tuple[str, float, float], ...]]:
        """Derive one job's dataflow and output-size contributions together.

        The expensive half of :meth:`cost_vertex` — the operator-chain and
        selectivity arithmetic — separated out so the cost service can cache
        it under :meth:`vertex_dataflow_signature` and reuse it across
        configuration samples that only move job-model knobs.
        """
        profile = vertex.annotations.profile
        if profile is None:
            raise CostModelError(f"job {vertex.name!r} has no profile annotation")
        flows = self._vertex_flows(vertex, workflow, sizes, profile, configs)
        dataflow = self._dataflow_from_flows(vertex, workflow, sizes, profile, flows, configs)
        contributions = tuple(
            (flow.output_dataset, flow.output_bytes, flow.output_records) for flow in flows
        )
        return dataflow, contributions

    @staticmethod
    def apply_output_contributions(
        sizes: Dict[str, Tuple[float, float]],
        contributions: Tuple[Tuple[str, float, float], ...],
    ) -> None:
        """Add a costed vertex's output sizes into the size state, in order."""
        for dataset_name, out_bytes, out_records in contributions:
            previous = sizes.get(dataset_name, (0.0, 0.0))
            sizes[dataset_name] = (previous[0] + out_bytes, previous[1] + out_records)

    def vertex_dataflow_signature(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        sizes: Dict[str, Tuple[float, float]],
        configs: ConfigOverlay = None,
    ) -> Tuple:
        """Everything the *dataflow derivation* of a vertex reads, hashable.

        Two vertices (possibly across different plan copies or even different
        workflows) with equal signatures derive identical
        :class:`~repro.whatif.dataflow.JobDataflow` and output-size
        contributions, so the signature is the memoization key of the
        incremental :class:`~repro.whatif.service.CostService`.  Deliberately
        excludes the job *name* (structurally identical jobs share cache
        entries) and what only the per-phase job model reads — the
        configuration's reduce tasks, split size, sort buffer and
        compression, and the chaining constraint with the chained map-task
        count it resolves to (:meth:`chained_map_tasks`) — since the service
        runs the job model on every lookup, hit or miss; so RRS samples that
        only move those reuse the derived dataflow, a chained reader's under
        any reduce-task count of its chain source.

        A producer-dependent fact is only included where the derivation
        reads it — a partition count only for an input with a
        partition-pruning filter — so a config change on a producer does not
        spuriously invalidate consumers.

        The signature is assembled **incrementally**: the vertex-content half
        (pipelines, operators, partitioner, profile key) is the vertex's own
        content key (:meth:`vertex_content_key`), so across plan copies only
        a candidate's *dirty* vertices — the ones its rewrite rebound — ever
        pay the full derivation walk.  The assembled tuple is bit-identical
        to a from-scratch derivation, so cache keys (and persisted caches)
        are unaffected by where the parts came from.  Under ``configs`` it
        is the signature with the overlay bound.
        """
        local = self.vertex_content_key(vertex)
        combiner_active = local.combiner_active
        config = configs and configs.get(vertex.job.name)
        if config:
            combiner_active = vertex.job.has_combiner and config.combiner_enabled
        pipeline_parts = []
        for pipeline_key in local.pipelines:
            inputs = []
            for dataset_name, allowed in pipeline_key.inputs:
                partition_count = (
                    self._dataset_partition_count(dataset_name, workflow, configs)
                    if allowed is not None
                    else None
                )
                inputs.append(
                    (dataset_name, sizes.get(dataset_name), allowed, partition_count)
                )
            pipeline_parts.append(
                (
                    tuple(inputs),
                    pipeline_key.map_ops,
                    pipeline_key.reduce_ops,
                    pipeline_key.output_dataset,
                )
            )
        return (tuple(pipeline_parts), local.partitioner_fields, combiner_active, local.profile_key)

    def vertex_content_key(self, vertex: JobVertex) -> VertexContentKey:
        """:attr:`JobVertex.content_key <repro.workflow.graph.JobVertex.content_key>`, counted.

        Hashable, picklable, and content-equal across plan copies: pipelines
        (operators, inputs, outputs), partitioner fields, combiner activity,
        profile content, and the chaining flag (which the dataflow signature
        leaves out).  Each part is built once per value it describes, so
        keying every vertex of a mostly-shared plan copy walks only the
        pipelines its rewrite rebound.  A read that has to
        walk one counts as a ``signature_derivations``, any other as a
        ``signature_memo_hits``.
        """
        if "content_key" not in vertex.__dict__ and any(
            "content_key" not in pipeline.__dict__ for pipeline in vertex.job.pipelines
        ):
            self.signature_derivations += 1
        else:
            self.signature_memo_hits += 1
        return vertex.content_key

    # --------------------------------------------------------- size tracking
    def base_dataset_sizes(self, workflow: Workflow) -> Dict[str, Tuple[float, float]]:
        """Initial size state: the (bytes, records) of every base dataset."""
        sizes: Dict[str, Tuple[float, float]] = {}
        for dataset_vertex in workflow.base_datasets():
            annotation = dataset_vertex.annotation
            if annotation is not None and annotation.size_bytes is not None:
                records = annotation.num_records or max(
                    1.0, annotation.size_bytes / 100.0
                )
                sizes[dataset_vertex.name] = (annotation.size_bytes, records)
            elif dataset_vertex.dataset is not None:
                dataset = dataset_vertex.dataset
                sizes[dataset_vertex.name] = (
                    max(1.0, dataset.logical_bytes),
                    max(1.0, dataset.logical_records),
                )
            else:
                raise CostModelError(
                    f"base dataset {dataset_vertex.name!r} has neither a size annotation "
                    "nor materialized data; the What-if engine cannot cost the workflow"
                )
        return sizes

    # ------------------------------------------------------ dataflow derive
    def _vertex_flows(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        sizes: Dict[str, Tuple[float, float]],
        profile: ProfileAnnotation,
        configs: ConfigOverlay,
    ) -> List[_PipelineFlow]:
        flows: List[_PipelineFlow] = []
        for pipeline in vertex.job.pipelines:
            p_bytes, p_records = self._pipeline_input(vertex, pipeline, workflow, sizes, configs)
            flows.append(self._pipeline_flow(pipeline, profile, p_bytes, p_records))
        return flows

    def _dataflow_from_flows(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        sizes: Dict[str, Tuple[float, float]],
        profile: ProfileAnnotation,
        flows: List[_PipelineFlow],
        configs: ConfigOverlay,
    ) -> JobDataflow:
        job = vertex.job
        input_bytes, input_records = self._job_input(vertex, workflow, sizes, configs)

        map_output_records = left_sum(f.map_output_records for f in flows if not f.is_map_only)
        map_output_bytes = left_sum(f.map_output_bytes for f in flows if not f.is_map_only)
        output_records = left_sum(f.output_records for f in flows)
        output_bytes = left_sum(f.output_bytes for f in flows)
        map_cpu_units = left_sum(f.map_cpu_units for f in flows)
        reduce_cpu_units = left_sum(f.reduce_cpu_units for f in flows)

        shuffle_records = map_output_records
        shuffle_bytes = map_output_bytes
        if job.has_combiner and config_of(vertex, configs).combiner_enabled and map_output_records > 0:
            reduction = max(0.0, min(1.0, profile.combine_reduction))
            shuffle_records = map_output_records * reduction
            shuffle_bytes = map_output_bytes * reduction

        reduce_input_records = shuffle_records
        map_cpu_per_record = map_cpu_units / input_records if input_records > 0 else 1.0
        reduce_cpu_per_record = (
            reduce_cpu_units / reduce_input_records if reduce_input_records > 0 else 1.0
        )

        distinct_groups = self._distinct_reduce_groups(job, profile)
        distinct_partition_keys = self._distinct_partition_keys(job, profile)

        return JobDataflow(
            input_bytes=max(input_bytes, 1.0),
            input_records=max(input_records, 1.0),
            map_output_records=map_output_records,
            map_output_bytes=map_output_bytes,
            shuffle_records=shuffle_records,
            shuffle_bytes=shuffle_bytes,
            reduce_input_records=reduce_input_records,
            output_records=output_records,
            output_bytes=output_bytes,
            map_cpu_cost_per_record=map_cpu_per_record,
            reduce_cpu_cost_per_record=reduce_cpu_per_record,
            map_only=job.is_map_only,
            pipeline_count=len(job.pipelines),
            distinct_reduce_groups=distinct_groups,
            distinct_partition_keys=distinct_partition_keys,
        )

    # ------------------------------------------------------------- internals
    def _job_input(
        self,
        vertex: JobVertex,
        workflow: Workflow,
        sizes: Dict[str, Tuple[float, float]],
        configs: ConfigOverlay,
    ) -> Tuple[float, float]:
        total_bytes = 0.0
        total_records = 0.0
        for dataset_name in vertex.job.input_datasets:
            d_bytes, d_records = self._dataset_size(dataset_name, sizes, vertex)
            fraction = self._job_prune_fraction(vertex.job, dataset_name, workflow, configs)
            total_bytes += d_bytes * fraction
            total_records += d_records * fraction
        return total_bytes, total_records

    def _pipeline_input(
        self,
        vertex: JobVertex,
        pipeline: Pipeline,
        workflow: Workflow,
        sizes: Dict[str, Tuple[float, float]],
        configs: ConfigOverlay,
    ) -> Tuple[float, float]:
        total_bytes = 0.0
        total_records = 0.0
        for dataset_name in pipeline.input_datasets:
            d_bytes, d_records = self._dataset_size(dataset_name, sizes, vertex)
            fraction = self._prune_fraction(pipeline, dataset_name, workflow, configs)
            total_bytes += d_bytes * fraction
            total_records += d_records * fraction
        return total_bytes, total_records

    def _dataset_size(
        self,
        dataset_name: str,
        sizes: Dict[str, Tuple[float, float]],
        vertex: JobVertex,
    ) -> Tuple[float, float]:
        if dataset_name in sizes:
            return sizes[dataset_name]
        raise CostModelError(
            f"size of dataset {dataset_name!r} (input of job {vertex.name!r}) is unknown; "
            "was the workflow traversed out of topological order?"
        )

    def _job_prune_fraction(
        self, job: MapReduceJob, dataset_name: str, workflow: Workflow, configs: ConfigOverlay
    ) -> float:
        fractions = []
        for pipeline in job.pipelines:
            if pipeline.reads(dataset_name):
                fractions.append(self._prune_fraction(pipeline, dataset_name, workflow, configs))
        if not fractions:
            return 1.0
        return max(fractions)

    def _prune_fraction(
        self, pipeline: Pipeline, dataset_name: str, workflow: Workflow, configs: ConfigOverlay
    ) -> float:
        allowed = pipeline.allowed_partitions(dataset_name)
        if allowed is None:
            return 1.0
        total = self._dataset_partition_count(dataset_name, workflow, configs)
        if total is None or total <= 0:
            return 1.0
        return max(0.0, min(1.0, len(allowed) / total))

    @staticmethod
    def _reads_a_reduce_count(vertex: JobVertex, workflow: Workflow) -> bool:
        # Whether some pruned input's partition count is its producer's
        # reduce-task count (``_dataset_partition_count``'s one config read).
        for pipeline in vertex.job.pipelines:
            for dataset_name in pipeline.input_partition_filter:
                producer = workflow.producer_of(dataset_name)
                if (
                    producer is not None
                    and producer.job.effective_partitioner.kind != "range"
                    and not producer.job.is_map_only
                ):
                    return True
        return False

    @staticmethod
    def _dataset_partition_count(dataset_name: str, workflow: Workflow, configs: ConfigOverlay) -> Optional[int]:
        producer = workflow.producer_of(dataset_name)
        if producer is not None:
            partitioner = producer.job.effective_partitioner
            if partitioner.kind == "range":
                return len(partitioner.split_points) + 1
            if not producer.job.is_map_only:
                return max(1, config_of(producer, configs).num_reduce_tasks)
            return None
        if workflow.has_dataset(dataset_name):
            annotation = workflow.dataset(dataset_name).annotation
            if annotation is not None and annotation.split_points is not None:
                return len(annotation.split_points) + 1
        return None

    def _pipeline_flow(
        self,
        pipeline: Pipeline,
        profile: ProfileAnnotation,
        input_bytes: float,
        input_records: float,
    ) -> _PipelineFlow:
        record_bytes = input_bytes / input_records if input_records > 0 else profile.input_record_bytes
        records = input_records
        map_cpu_units = 0.0
        for op in pipeline.map_ops:
            op_profile = profile.operator(op.name) or OperatorProfile(
                selectivity=1.0,
                cpu_cost_per_record=op.cpu_cost_per_record,
                output_record_bytes=record_bytes,
            )
            map_cpu_units += records * op_profile.cpu_cost_per_record
            records *= op_profile.selectivity
            record_bytes = op_profile.output_record_bytes
        map_output_records = records
        map_output_bytes = records * record_bytes

        if pipeline.is_map_only:
            return _PipelineFlow(
                map_output_records=map_output_records,
                map_output_bytes=map_output_bytes,
                output_records=map_output_records,
                output_bytes=map_output_bytes,
                map_cpu_units=map_cpu_units,
                reduce_cpu_units=0.0,
                is_map_only=True,
                output_dataset=pipeline.output_dataset,
            )

        reduce_cpu_units = 0.0
        for op in pipeline.reduce_ops:
            op_profile = profile.operator(op.name) or OperatorProfile(
                selectivity=1.0,
                cpu_cost_per_record=op.cpu_cost_per_record,
                output_record_bytes=record_bytes,
            )
            reduce_cpu_units += records * op_profile.cpu_cost_per_record
            records *= op_profile.selectivity
            record_bytes = op_profile.output_record_bytes
        return _PipelineFlow(
            map_output_records=map_output_records,
            map_output_bytes=map_output_bytes,
            output_records=records,
            output_bytes=records * record_bytes,
            map_cpu_units=map_cpu_units,
            reduce_cpu_units=reduce_cpu_units,
            is_map_only=False,
            output_dataset=pipeline.output_dataset,
        )

    @staticmethod
    def _distinct_reduce_groups(job: MapReduceJob, profile: ProfileAnnotation) -> Optional[float]:
        total = 0.0
        found = False
        for pipeline in job.pipelines:
            fields = pipeline.shuffle_group_fields
            if not fields:
                continue
            cardinality = profile.cardinality(fields)
            if cardinality > 0:
                total += cardinality
                found = True
        return total if found else None

    @staticmethod
    def _distinct_partition_keys(job: MapReduceJob, profile: ProfileAnnotation) -> Optional[float]:
        if job.is_map_only:
            return None
        partitioner = job.effective_partitioner
        if not partitioner.fields:
            return None
        cardinality = profile.cardinality(partitioner.fields)
        return cardinality if cardinality > 0 else None

    @staticmethod
    def chain_source(
        vertex: JobVertex, workflow: Workflow, configs: ConfigOverlay = None
    ) -> Optional[JobVertex]:
        """The job whose reduce tasks ``vertex``'s map tasks follow under the
        chaining constraint, or ``None`` (not chained, or no reducing producer).

        In input order, the first reducing producer, or the source a map-only
        producer that is itself chained passes on.
        """
        if not config_of(vertex, configs).chained_input:
            return None
        for dataset_name in vertex.job.input_datasets:
            producer = workflow.producer_of(dataset_name)
            if producer is not None and not producer.job.is_map_only:
                return producer
            if producer is not None and config_of(producer, configs).chained_input:
                # Producer is itself chained; inherit its constraint.
                source = WhatIfEngine.chain_source(producer, workflow, configs)
                if source is not None:
                    return source
        return None

    @staticmethod
    def chained_map_tasks(
        vertex: JobVertex, workflow: Workflow, configs: ConfigOverlay = None
    ) -> int:
        """``vertex``'s map-task count under the chaining constraint — its
        :meth:`chain_source`'s reduce-task count — or 0 when it has none: the
        last of :data:`~repro.whatif.jobmodel.JOB_MODEL_INPUTS`."""
        source = WhatIfEngine.chain_source(vertex, workflow, configs)
        return 0 if source is None else max(1, config_of(source, configs).num_reduce_tasks)

    # ------------------------------------------------------------- fallback
    def job_count_estimate(self, workflow: Workflow) -> WorkflowCostEstimate:
        """The profile-free fallback estimate (cost basis ``job_count``)."""
        per_job: Dict[str, JobTimeEstimate] = {}
        for vertex in workflow.jobs:
            per_job[vertex.name] = JobTimeEstimate(
                map_phase_s=JOB_COUNT_COST_SECONDS / 2,
                shuffle_s=0.0,
                reduce_phase_s=0.0 if vertex.job.is_map_only else JOB_COUNT_COST_SECONDS / 2,
                startup_s=0.0,
                num_map_tasks=1,
                num_reduce_tasks=vertex.job.config.num_reduce_tasks,
                map_task_s=0.0,
                reduce_task_s=0.0,
            )
        total = left_sum(estimate.total_s for estimate in per_job.values())
        return WorkflowCostEstimate(total_s=total, per_job=per_job, cost_basis="job_count")
