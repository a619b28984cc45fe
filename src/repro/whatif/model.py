"""The What-if engine: estimate workflow cost from annotations alone.

Given a plan (an annotated workflow), a cluster spec, and the configurations
chosen for each job, the engine derives each job's expected dataflow from the
profile annotations and the (estimated) sizes of its input datasets, costs it
with the per-phase job model, propagates the estimated output sizes to
downstream jobs, and combines per-level makespans into the workflow estimate.

Costing is exposed as composable per-vertex steps — :meth:`WhatIfEngine.cost_vertex`
produces one job's time estimate together with its output-size contributions,
:meth:`WhatIfEngine.apply_output_contributions` advances the size state, and
:meth:`WhatIfEngine.vertex_dataflow_signature` captures every input the
dataflow derivation of a vertex reads — so
:class:`repro.whatif.service.CostService` can memoize the derivation of
unchanged jobs and re-derive only the mutated cone of a workflow.
:meth:`WhatIfEngine.estimate_workflow` is the cold (uncached) composition of
those steps.

When a job carries no profile annotation the engine falls back to the simple
"number of jobs" cost model used by rule-based optimizers such as YSmart [11]
(paper §5), flagged through ``WorkflowCostEstimate.cost_basis``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster import ClusterSpec
from repro.common.errors import CostModelError
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.pipeline import Pipeline
from repro.whatif.dataflow import JobDataflow
from repro.whatif.jobmodel import JobTimeEstimate, estimate_job_time
from repro.whatif.scheduling import level_makespan
from repro.workflow.annotations import OperatorProfile, ProfileAnnotation
from repro.workflow.graph import DatasetVertex, JobVertex, Workflow

#: Simulated seconds charged per job under the fallback job-count cost model.
JOB_COUNT_COST_SECONDS = 1_000.0

#: Version of the analytical cost model as a whole (dataflow derivation, job
#: model, makespan combination).  Persisted cost caches are stamped with this
#: value and rejected on mismatch — bump it whenever a change can alter any
#: estimate, so stale caches self-invalidate instead of serving estimates a
#: current computation would not produce.
COST_MODEL_VERSION = 1

#: Cap on the per-engine profile-content-key memo (see ``_profile_key``).
_MAX_PROFILE_KEYS = 16_384

#: Cap on the per-engine vertex local-signature memo (see
#: ``_vertex_local_key``); entries pin their vertex, so the cap also bounds
#: how many otherwise-dead vertices the memo keeps alive.
_MAX_VERTEX_KEYS = 65_536


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
    #: What :meth:`WhatIfEngine.run_costing` needs to take this estimate as its
    #: ``base`` (``None``: it cannot be one).  Not part of the estimate's value.
    basis: Optional["CostingBasis"] = field(default=None, repr=False, compare=False)

    @property
    def num_jobs(self) -> int:
        """Number of jobs that were costed."""
        return len(self.per_job)


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
    #: What ``estimate`` was computed from (job-model-only moves reuse it).
    dataflow: JobDataflow


@dataclass(frozen=True, slots=True)
class CostingBasis:
    """One full traversal's intermediate results, held by reference (``run_costing``)."""

    #: The job and dataset vertices (compared by identity) it answers for.
    vertices: Tuple[List[JobVertex], List[DatasetVertex]]
    levels: List[List[JobVertex]]
    costed: Dict[str, VertexCost]
    level_makespans: List[float]
    #: The jobs whose signature reads a producer's reduce-task count or chaining
    #: (chained jobs, partition-pruned readers); all else reaches them as sizes.
    fact_readers: Set[str]


@dataclass(frozen=True, slots=True)
class _PipelineLocalKey:
    """The vertex-content half of one pipeline's signature part.

    ``inputs`` keeps ``(dataset_name, allowed_partitions)`` pairs; the
    query-dependent facts (current dataset sizes, producer partition counts)
    are filled in per query by :meth:`WhatIfEngine.vertex_dataflow_signature`.
    """

    inputs: Tuple[Tuple[str, Optional[Tuple[int, ...]]], ...]
    map_ops: Tuple[Tuple[str, float], ...]
    reduce_ops: Tuple[Tuple[str, float, Tuple[str, ...]], ...]
    output_dataset: str


@dataclass(frozen=True, slots=True)
class _VertexLocalKey:
    """Everything a vertex's dataflow signature reads from the vertex itself.

    Memoized per vertex identity: an unchanged vertex is the same object
    across candidate plans, so its local key — the expensive part of the
    signature — is derived once.  Only the cheap query context (dataset
    sizes, producer partition counts, chained task count) is recomputed.
    """

    pipelines: Tuple[_PipelineLocalKey, ...]
    partitioner_fields: Tuple[str, ...]
    combiner_active: bool
    profile_key: Optional[Tuple]
    chained_input: bool


class WhatIfEngine:
    """Analytical cost estimation for annotated MapReduce workflows."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        #: id(profile) -> (pinned profile, content key); see ``_profile_key``.
        self._profile_keys: Dict[int, Tuple[ProfileAnnotation, Tuple]] = {}
        #: id(vertex) -> (pinned vertex, local key); the whole-vertex
        #: extension of the ``_profile_key`` pattern.  Vertices are frozen,
        #: so an entry is valid for as long as its vertex is pinned.
        self._vertex_keys: Dict[int, Tuple[JobVertex, _VertexLocalKey]] = {}
        #: id(pipeline) -> (pinned pipeline, pipeline local key).  Pipelines
        #: are shared across config-only job derivations
        #: (:meth:`~repro.mapreduce.job.MapReduceJob.with_config`), so their
        #: keys survive the rebind that applies a chosen configuration.
        self._pipeline_keys: Dict[int, Tuple[object, _PipelineLocalKey]] = {}
        #: Incremental-signature counters (bounded per cold ``optimize()`` by
        #: ``tests/test_plan_cow.py``): how many vertex signatures were derived
        #: by walking the vertex (``signature_derivations``) vs. served from
        #: the identity memo (``signature_memo_hits``).
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
        base: Optional[WorkflowCostEstimate] = None,
    ) -> WorkflowCostEstimate:
        """The one workflow-costing traversal, parameterized by per-vertex costing.

        Walks the topological levels, calls ``cost_vertex_fn(vertex,
        workflow, sizes, configs)`` for each job (the cold :meth:`cost_vertex`
        here; a cache-aware wrapper in the cost service), propagates the
        returned output-size contributions, and combines per-level makespans.
        Sharing this single driver is what keeps the memoized service
        *exactly* equal to a cold estimation by construction.

        ``base``, an estimate of the same ``workflow`` without ``configs``
        (ignored once a vertex was rebound), spares the jobs the overlay
        cannot move: a job not overlaid and reading no moved producer fact is
        *carried* by reference; an overlaid job whose signature inputs are
        all as in the base is *kept* — the base's dataflow under the job
        model again; any other is *re-derived* by ``cost_vertex_fn``, and if
        its contributions differ sizes move downstream and the query starts
        over without the base (``docs/costing.md``, "Costing a sample").
        """
        cluster = self.cluster
        basis = base.basis if base is not None else None
        if basis is not None and basis.vertices != (workflow.jobs, workflow.datasets):
            basis = None  # some vertex was rebound, added or removed since
        if basis is None:
            levels = workflow.topological_levels()
            costed: Dict[str, VertexCost] = {}
            makespans: List[Optional[float]] = [None] * len(levels)
            sizes = self.base_dataset_sizes(workflow)
            fact_readers: Set[str] = set()
            # Every dataset was sized once, before its first reader: the final
            # sizes are then the sizes each job was costed on.
            settled = True
        else:
            levels = basis.levels
            costed = dict(basis.costed)
            makespans = list(basis.level_makespans)
            sizes = base.dataset_sizes
            fact_readers = basis.fact_readers
            # A producer's reduce-task count or chaining moved (it is costed before its readers).
            facts_moved = False

        for index, level in enumerate(levels):
            for vertex in level:
                name = vertex.job.name
                if basis is None:
                    costed_vertex = cost_vertex_fn(vertex, workflow, sizes, configs)
                    contributions = costed_vertex.output_contributions
                    settled = settled and not any(entry[0] in sizes for entry in contributions)
                    self.apply_output_contributions(sizes, contributions)
                    if vertex.job.config.chained_input or any(
                        pipeline.input_partition_filter for pipeline in vertex.job.pipelines
                    ):
                        fact_readers.add(name)
                else:
                    prior = costed[name]
                    config = configs.get(name) if configs else None
                    rederive = facts_moved and name in fact_readers
                    if config is None:
                        if not rederive:
                            continue  # carried
                    else:
                        own = vertex.job.config
                        chaining_moved = config.chained_input != own.chained_input
                        if chaining_moved or config.num_reduce_tasks != own.num_reduce_tasks:
                            facts_moved = True
                        rederive = rederive or chaining_moved or (
                            config.combiner_enabled != own.combiner_enabled and vertex.job.has_combiner
                        )
                    if rederive:
                        costed_vertex = cost_vertex_fn(vertex, workflow, sizes, configs)
                        if costed_vertex.output_contributions != prior.output_contributions:
                            return self.run_costing(workflow, cost_vertex_fn, configs)
                    else:  # kept
                        estimate = estimate_job_time(prior.dataflow, config, cluster)
                        costed_vertex = VertexCost(estimate, prior.output_contributions, prior.dataflow)
                costed[name] = costed_vertex
                makespans[index] = None

        for index, known in enumerate(makespans):
            if known is None:  # the level holds a job that was not carried
                estimates = [costed[vertex.job.name].estimate for vertex in levels[index]]
                makespans[index] = level_makespan(estimates, cluster)
        reusable = not configs and (basis is not None or settled)
        vertices = (workflow.jobs, workflow.datasets)
        return WorkflowCostEstimate(
            total_s=sum(makespans),
            per_job={name: costed_vertex.estimate for name, costed_vertex in costed.items()},
            dataset_sizes=dict(sizes),
            basis=CostingBasis(vertices, levels, costed, makespans, fact_readers) if reusable else None,
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
        estimate = estimate_job_time(dataflow, config_of(vertex, configs), self.cluster)
        return VertexCost(estimate, contributions, dataflow)

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
        entries) and the configuration dimensions only the per-phase job
        model reads (reduce tasks, split size, sort buffer, compression) —
        the service runs the job model on every lookup, hit or miss — so RRS
        samples that only move job-model knobs reuse the derived dataflow.

        Producer-dependent facts are only included where the derivation
        reads them — partition counts only for inputs with a
        partition-pruning filter, chained map tasks only under the chaining
        constraint — so a config change on a producer does not spuriously
        invalidate consumers.

        The signature is assembled **incrementally**: the vertex-content half
        (pipelines, operators, partitioner, profile key) is memoized per
        vertex identity (``_vertex_local_key``), so across plan copies
        only a candidate's *dirty* vertices — the ones its rewrite rebound
        — ever pay the full derivation walk.  The assembled tuple is
        bit-identical to a from-scratch derivation, so cache keys (and
        persisted caches) are unaffected by where the parts came from.
        Under ``configs`` it is the signature with the overlay bound.
        """
        local = self._vertex_local_key(vertex)
        config = configs and configs.get(vertex.job.name)
        if config:
            active = vertex.job.has_combiner and config.combiner_enabled
            local = replace(local, combiner_active=active, chained_input=config.chained_input)
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
        chained_map_tasks = (
            self._chained_map_tasks(vertex, workflow, configs) if local.chained_input else None
        )
        return (
            tuple(pipeline_parts),
            local.partitioner_fields,
            local.combiner_active,
            local.profile_key,
            (local.chained_input, chained_map_tasks),
        )

    def vertex_content_key(self, vertex: JobVertex) -> _VertexLocalKey:
        """Public content key of one job vertex's local half of the signature.

        Hashable, picklable, and content-equal across plan copies: pipelines
        (operators, inputs, outputs), partitioner fields, combiner activity,
        profile content, and the chaining flag.  Served by the incremental
        memo (:meth:`_vertex_local_key`), so deriving it for every vertex of
        a mostly-shared plan copy is O(dirty vertices) — the decision cache
        (:mod:`repro.core.decision_cache`) builds unit signatures from it.
        """
        return self._vertex_local_key(vertex)

    def _vertex_local_key(self, vertex: JobVertex) -> _VertexLocalKey:
        """The vertex-content half of the signature, memoized by identity.

        Two memo levels, mirroring what plan copies actually share:

        * **vertex level** — an unchanged vertex is the *same object* across
          plan copies, so its complete local key is served by identity
          (pinning the vertex keeps the id stable, and a vertex is frozen);
        * **pipeline level** — a config-only derivation
          (:meth:`~repro.mapreduce.job.MapReduceJob.with_config`) creates a
          fresh vertex but *shares* the pipeline objects, so the operator
          walks are reused and only the cheap job-level facts are re-read.

        ``signature_derivations`` counts the vertices whose key required at
        least one real pipeline walk — the dirty cone; everything else is a
        ``signature_memo_hits``.
        """
        entry = self._vertex_keys.get(id(vertex))
        if entry is not None and entry[0] is vertex:
            self.signature_memo_hits += 1
            return entry[1]

        job = vertex.job
        config = job.config  # its own (memo by identity); overlays: vertex_dataflow_signature
        walked = False
        pipeline_keys = []
        for pipeline in job.pipelines:
            pipeline_entry = self._pipeline_keys.get(id(pipeline))
            if pipeline_entry is not None and pipeline_entry[0] is pipeline:
                pipeline_keys.append(pipeline_entry[1])
                continue
            walked = True
            key = _PipelineLocalKey(
                inputs=tuple(
                    (dataset_name, pipeline.allowed_partitions(dataset_name))
                    for dataset_name in pipeline.input_datasets
                ),
                map_ops=tuple((op.name, op.cpu_cost_per_record) for op in pipeline.map_ops),
                reduce_ops=tuple(
                    (op.name, op.cpu_cost_per_record, op.group_fields)
                    for op in pipeline.reduce_ops
                ),
                output_dataset=pipeline.output_dataset,
            )
            pipeline_keys.append(key)
            if len(self._pipeline_keys) >= _MAX_VERTEX_KEYS:
                self._pipeline_keys.clear()
            self._pipeline_keys[id(pipeline)] = (pipeline, key)

        if walked:
            self.signature_derivations += 1
        else:
            self.signature_memo_hits += 1
        local = _VertexLocalKey(
            pipelines=tuple(pipeline_keys),
            partitioner_fields=tuple(job.effective_partitioner.fields),
            combiner_active=job.has_combiner and config.combiner_enabled,
            profile_key=self._profile_key(vertex.annotations.profile),
            chained_input=config.chained_input,
        )
        if len(self._vertex_keys) >= _MAX_VERTEX_KEYS:
            self._vertex_keys.clear()
        self._vertex_keys[id(vertex)] = (vertex, local)
        return local

    def _profile_key(self, profile: Optional[ProfileAnnotation]) -> Optional[Tuple]:
        """Content-based key of a profile annotation, memoized by identity.

        Profiles are immutable and shared across plan copies, so keying the
        memo on ``id`` is safe as long as the profile object is pinned (kept
        referenced) by the memo itself — which also keeps the id stable.
        """
        if profile is None:
            return None
        entry = self._profile_keys.get(id(profile))
        if entry is not None and entry[0] is profile:
            return entry[1]
        key = (
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
        if len(self._profile_keys) >= _MAX_PROFILE_KEYS:
            self._profile_keys.clear()
        self._profile_keys[id(profile)] = (profile, key)
        return key

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

        map_output_records = sum(f.map_output_records for f in flows if not f.is_map_only)
        map_output_bytes = sum(f.map_output_bytes for f in flows if not f.is_map_only)
        output_records = sum(f.output_records for f in flows)
        output_bytes = sum(f.output_bytes for f in flows)
        map_cpu_units = sum(f.map_cpu_units for f in flows)
        reduce_cpu_units = sum(f.reduce_cpu_units for f in flows)

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
        chained_map_tasks = self._chained_map_tasks(vertex, workflow, configs)

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
            chained_map_tasks=chained_map_tasks,
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
    def _chained_map_tasks(vertex: JobVertex, workflow: Workflow, configs: ConfigOverlay) -> Optional[int]:
        if not config_of(vertex, configs).chained_input:
            return None
        for dataset_name in vertex.job.input_datasets:
            producer = workflow.producer_of(dataset_name)
            if producer is not None and not producer.job.is_map_only:
                return max(1, config_of(producer, configs).num_reduce_tasks)
            if producer is not None and config_of(producer, configs).chained_input:
                # Producer is itself chained; inherit its constraint.
                inherited = WhatIfEngine._chained_map_tasks(producer, workflow, configs)
                if inherited is not None:
                    return inherited
        return None

    # ------------------------------------------------------------- fallback
    def job_count_estimate(self, workflow: Workflow, configs: ConfigOverlay = None) -> WorkflowCostEstimate:
        """The profile-free fallback estimate (cost basis ``job_count``)."""
        per_job: Dict[str, JobTimeEstimate] = {}
        for vertex in workflow.jobs:
            per_job[vertex.name] = JobTimeEstimate(
                map_phase_s=JOB_COUNT_COST_SECONDS / 2,
                shuffle_s=0.0,
                reduce_phase_s=0.0 if vertex.job.is_map_only else JOB_COUNT_COST_SECONDS / 2,
                startup_s=0.0,
                num_map_tasks=1,
                num_reduce_tasks=config_of(vertex, configs).num_reduce_tasks,
                map_task_s=0.0,
                reduce_task_s=0.0,
                details={"basis": 1.0},
            )
        total = sum(estimate.total_s for estimate in per_job.values())
        return WorkflowCostEstimate(total_s=total, per_job=per_job, cost_basis="job_count")
