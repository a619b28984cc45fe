"""Horizontal packing (paper §3.3).

Packs the map (reduce) functions of several jobs that read the same dataset —
or, with the extended precondition, of any set of concurrently runnable jobs
— into the same map (reduce) tasks of one transformed job, sharing the read
I/O of the common input (Figure 6).  Each original job becomes a *tagged*
pipeline of the packed job: every input record flows through every pipeline
on the map side, while on the reduce side each key-value pair only flows
through the pipeline whose tag produced it.

Jobs that carry a partition-function constraint (imposed by a prior vertical
packing) are never packed, since the packed job could not honour their
constrained partition function — this is exactly the interaction that makes
Stubby apply Vertical-group transformations before Horizontal ones (§4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import Plan
from repro.core.transformations.base import Transformation, TransformationApplication
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partitioner import PartitionFunction
from repro.whatif.adjustment import adjust_profile_for_horizontal_packing
from repro.workflow.annotations import FilterAnnotation, JobAnnotations
from repro.workflow.graph import JobVertex, Workflow


class HorizontalPacking(Transformation):
    """Pack sibling jobs into one job with tagged parallel pipelines."""

    name = "horizontal-packing"

    def __init__(self, allow_extended: bool = True) -> None:
        #: When true, also propose packing concurrently runnable jobs that do
        #: not share an input dataset (the §3.3 extension).
        self.allow_extended = allow_extended

    def find_applications(self, plan: Plan, unit_jobs: Sequence[str]) -> List[TransformationApplication]:
        workflow = plan.workflow
        present = [name for name in unit_jobs if workflow.has_job(name)]
        packable = [
            name
            for name in present
            if self._is_packable(workflow.job(name))
            and not self._externally_constrained(workflow, workflow.job(name))
        ]

        applications: List[TransformationApplication] = []
        seen_groups = set()

        def propose(names: Sequence[str], shared_input: Optional[str], extended: bool) -> None:
            group = self._independent_group(workflow, names)
            key = tuple(sorted(group))
            if len(group) < 2 or key in seen_groups:
                return
            if self.merged_partitioner([workflow.job(n) for n in group]) is None:
                return
            seen_groups.add(key)
            applications.append(
                TransformationApplication(
                    transformation=self.name,
                    target_jobs=tuple(group),
                    details={"shared_input": shared_input, "extended": extended},
                )
            )

        # Same-input groups (the easy precondition).
        by_dataset: Dict[str, List[str]] = {}
        for name in packable:
            for dataset_name in workflow.job(name).job.input_datasets:
                by_dataset.setdefault(dataset_name, []).append(name)
        for dataset_name, names in by_dataset.items():
            propose(names, dataset_name, extended=False)

        # Extended precondition: concurrently runnable jobs with distinct inputs.
        if self.allow_extended:
            propose(packable, None, extended=True)
        return applications

    # ----------------------------------------------------------- conditions
    def _is_packable(self, vertex: JobVertex) -> bool:
        if vertex.job.config.chained_input:
            return False
        return True

    @staticmethod
    def _externally_constrained(workflow: Workflow, vertex: JobVertex) -> bool:
        """True when the job's partition function still serves an external consumer.

        A partition constraint whose chained consumer has already been
        absorbed into the job itself only protects the job's *internal*
        pipelined grouping, which the merged partitioner below preserves; a
        constraint serving a consumer that still exists in the workflow must
        not be disturbed, so such jobs are never horizontally packed.
        """
        if vertex.annotations.partition_constraint is None:
            return False
        chained_consumer = vertex.annotations.conditions.get("chained_consumer")
        if chained_consumer is None:
            return True
        return workflow.has_job(str(chained_consumer))

    @staticmethod
    def _grouping_requirements(vertices: Sequence[JobVertex]) -> List[Tuple[frozenset, frozenset]]:
        """(shuffle group fields, coarsest grouping requirement) per shuffled pipeline.

        The coarsest requirement is the intersection of the group fields of
        every reduce operator along the pipeline's reduce chain: a prior
        vertical packing may have appended a grouped reduce on a coarser key
        (e.g. ``{orderid}`` after ``{orderid, partid}``) whose records must
        all be routed to the same reduce task.
        """
        requirements: List[Tuple[frozenset, frozenset]] = []
        for vertex in vertices:
            for pipeline in vertex.job.pipelines:
                if pipeline.is_map_only:
                    continue
                shuffle_fields = frozenset(pipeline.shuffle_group_fields)
                coarsest = frozenset(pipeline.reduce_ops[0].group_fields)
                for op in pipeline.reduce_ops:
                    if op.kind == "reduce" and op.group_fields:
                        coarsest &= frozenset(op.group_fields)
                requirements.append((shuffle_fields, coarsest))
        return requirements

    @classmethod
    def merged_partitioner(cls, vertices: Sequence[JobVertex]) -> Optional[PartitionFunction]:
        """Partition function for the packed job, or ``None`` when impossible.

        A partition-field set ``F`` is valid when, for every shuffled
        pipeline with shuffle key ``G`` and coarsest grouping requirement
        ``C``, ``F ∩ G ⊆ C`` — records that agree on ``C`` then always land
        in the same partition (fields outside ``G`` are constant for that
        pipeline's keys).  Without coarse requirements the union of the
        shuffle keys is used (MapReduce's default behaviour for tagged
        pipelines); otherwise the intersection of the coarse requirements is
        used, and when that is empty the jobs cannot be packed.
        """
        requirements = cls._grouping_requirements(vertices)
        if not requirements:
            return None
        if all(coarsest == shuffle for shuffle, coarsest in requirements):
            union = set()
            for shuffle, _ in requirements:
                union |= shuffle
            fields = tuple(sorted(union))
            return PartitionFunction(kind="hash", fields=fields, sort_fields=fields)
        intersection = requirements[0][1]
        for _, coarsest in requirements[1:]:
            intersection &= coarsest
        if not intersection:
            return None
        if any(intersection & shuffle - coarsest for shuffle, coarsest in requirements):
            return None
        fields = tuple(sorted(intersection))
        return PartitionFunction(kind="hash", fields=fields, sort_fields=fields)

    @staticmethod
    def _independent_group(workflow: Workflow, names: Sequence[str]) -> List[str]:
        group: List[str] = []
        for name in names:
            if name in group:
                continue
            independent = all(
                not workflow.depends_on(name, other) and not workflow.depends_on(other, name)
                for other in group
            )
            if independent:
                group.append(name)
        return group

    # --------------------------------------------------------------- apply
    def apply(self, plan: Plan, application: TransformationApplication) -> Plan:
        # The packed job holds the source jobs' (immutable) pipeline objects;
        # ``replace_job``/``remove_job`` bind it in this plan only.
        new_plan = plan.copy()
        workflow = new_plan.workflow
        names = list(application.target_jobs)
        vertices = [workflow.job(name) for name in names]

        pipelines = [p for vertex in vertices for p in vertex.job.pipelines]

        merged_config = self._merged_config([vertex.job for vertex in vertices])
        merged_name = "+".join(names)
        merged_job = MapReduceJob(
            name=merged_name,
            pipelines=pipelines,
            partitioner=self.merged_partitioner(vertices),
            config=merged_config,
        )
        annotations = self._merged_annotations(vertices)

        workflow.replace_job(names[0], merged_job, annotations)
        for name in names[1:]:
            workflow.remove_job(name)
        workflow.prune_orphan_datasets()
        new_plan.record_merge(merged_name, tuple(names))
        return self._record(new_plan, application)

    @staticmethod
    def _merged_config(jobs: Sequence[MapReduceJob]) -> JobConfig:
        reduce_tasks = max(job.config.num_reduce_tasks for job in jobs)
        return JobConfig(
            num_reduce_tasks=reduce_tasks,
            split_size_mb=min(job.config.split_size_mb for job in jobs),
            io_sort_mb=max(job.config.io_sort_mb for job in jobs),
            combiner_enabled=all(job.config.combiner_enabled for job in jobs),
            compress_map_output=all(job.config.compress_map_output for job in jobs),
            compress_output=all(job.config.compress_output for job in jobs),
            forced_single_reduce=any(job.config.forced_single_reduce for job in jobs),
        )

    @staticmethod
    def _merged_annotations(vertices: Sequence[JobVertex]) -> JobAnnotations:
        # The combined map-output key of a horizontally packed job has no
        # single schema, so schema/filter annotations are dropped — which is
        # what later prevents vertical packing across the packed job (§4).
        profiles = [v.annotations.profile for v in vertices if v.annotations.profile is not None]
        profile = None
        if len(profiles) == len(vertices) and profiles:
            profile = adjust_profile_for_horizontal_packing(profiles)
        filters: Dict[str, FilterAnnotation] = {}
        for vertex in vertices:
            for dataset_name, filter_annotation in vertex.annotations.per_input_filters.items():
                filters.setdefault(dataset_name, filter_annotation)
        return JobAnnotations(profile=profile, per_input_filters=filters)
