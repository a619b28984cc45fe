"""Partition function transformation (paper §3.4).

Changes how a producer job partitions (and sorts) its map output: switching
hash partitioning to range partitioning, picking split points, or changing
the per-partition sort fields.  The headline benefit implemented here is
*partition pruning*: when a consumer's filter annotation restricts a field
that the producer can range-partition on, the consumer only needs to read the
partitions overlapping its filter (Figure 7 — jobs J4' and J6 of the running
example, and the Log Analysis / User-defined Logical Splits workloads of §7).

There are no preconditions; the new partition function must merely satisfy
any conditions already imposed on the job's partition function (for example
by a prior intra-job vertical packing).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import Plan
from repro.core.transformations.base import Transformation, TransformationApplication
from repro.dfs.layout import RangePartitioning
from repro.mapreduce.partitioner import PartitionFunction
from repro.workflow.annotations import FilterAnnotation
from repro.workflow.graph import JobVertex, Workflow

#: Number of extra, evenly spaced split points added beyond the filter
#: boundaries so that pruning granularity does not depend on a single cut.
_EXTRA_SPLITS = 8


class PartitionFunctionTransformation(Transformation):
    """Range-partition a producer's output to enable partition pruning."""

    name = "partition-function"

    def find_applications(self, plan: Plan, unit_jobs: Sequence[str]) -> List[TransformationApplication]:
        workflow = plan.workflow
        unit = set(unit_jobs)
        applications: List[TransformationApplication] = []
        for producer_name in unit_jobs:
            if not workflow.has_job(producer_name):
                continue
            producer = workflow.job(producer_name)
            if producer.job.is_map_only or len(producer.job.pipelines) != 1:
                continue
            for dataset_name in producer.job.output_datasets:
                application = self._check_dataset(workflow, producer, dataset_name, unit)
                if application is not None:
                    applications.append(application)
        # Base-dataset pruning: a consumer of an already range-partitioned
        # workflow input whose filter annotation constrains the partitioning
        # field only needs to read the overlapping partitions.
        for consumer_name in unit_jobs:
            if not workflow.has_job(consumer_name):
                continue
            applications.extend(self._base_pruning_applications(workflow, workflow.job(consumer_name)))
        return applications

    def _base_pruning_applications(
        self, workflow: Workflow, consumer: JobVertex
    ) -> List[TransformationApplication]:
        applications: List[TransformationApplication] = []
        for dataset_name in consumer.job.input_datasets:
            if workflow.producer_of(dataset_name) is not None:
                continue
            if not workflow.has_dataset(dataset_name):
                continue
            annotation = workflow.dataset(dataset_name).annotation
            if (
                annotation is None
                or annotation.partition_kind != "range"
                or not annotation.partition_fields
                or annotation.split_points is None
            ):
                continue
            field_name = annotation.partition_fields[0]
            filter_annotation = consumer.annotations.filter_for(dataset_name)
            if filter_annotation is None:
                continue
            filter_range = filter_annotation.range_for(field_name)
            if filter_range is None:
                continue
            already_pruned = any(
                pipeline.allowed_partitions(dataset_name) is not None
                for pipeline in consumer.job.pipelines
                if pipeline.reads(dataset_name)
            )
            if already_pruned:
                continue
            applications.append(
                TransformationApplication(
                    transformation=self.name,
                    target_jobs=(consumer.name,),
                    details={
                        "case": "base-dataset-pruning",
                        "dataset": dataset_name,
                        "field": field_name,
                        "split_points": tuple(annotation.split_points),
                        "consumer_filters": {consumer.name: (filter_range.low, filter_range.high)},
                    },
                )
            )
        return applications

    # ----------------------------------------------------------- conditions
    def _check_dataset(
        self,
        workflow: Workflow,
        producer: JobVertex,
        dataset_name: str,
        unit: set,
    ) -> Optional[TransformationApplication]:
        consumers = workflow.consumers_of(dataset_name)
        if not consumers:
            return None

        group_fields = producer.job.pipelines[0].shuffle_group_fields
        candidate_fields = set(group_fields)
        schema = producer.annotations.schema
        if schema is not None and schema.k2 is not None:
            candidate_fields &= set(schema.k2)
        if not candidate_fields:
            return None

        # Find a field constrained by at least one consumer's filter.
        filters_by_consumer: Dict[str, Tuple[float, float]] = {}
        chosen_field: Optional[str] = None
        for field_name in sorted(candidate_fields):
            filters_by_consumer = {}
            for consumer in consumers:
                filter_annotation = self._consumer_filter(consumer, dataset_name)
                if filter_annotation is None:
                    continue
                filter_range = filter_annotation.range_for(field_name)
                if filter_range is not None:
                    filters_by_consumer[consumer.name] = (filter_range.low, filter_range.high)
            if filters_by_consumer:
                chosen_field = field_name
                break
        if chosen_field is None or not filters_by_consumer:
            return None

        # Only useful if at least one filtering consumer is inside the unit
        # or downstream of it (pruning helps whoever reads the data next).
        split_points = self._split_points(producer, chosen_field, filters_by_consumer)
        if not split_points:
            return None

        new_partitioner = PartitionFunction(
            kind="range",
            fields=(chosen_field,),
            sort_fields=producer.job.effective_partitioner.effective_sort_fields,
            split_points=split_points,
        )
        constraint = producer.annotations.partition_constraint
        if constraint is not None and not new_partitioner.satisfies(constraint):
            return None

        return TransformationApplication(
            transformation=self.name,
            target_jobs=(producer.name,),
            details={
                "dataset": dataset_name,
                "field": chosen_field,
                "split_points": split_points,
                "consumer_filters": filters_by_consumer,
            },
        )

    @staticmethod
    def _consumer_filter(consumer: JobVertex, dataset_name: str) -> Optional[FilterAnnotation]:
        return consumer.annotations.filter_for(dataset_name)

    def _split_points(
        self,
        producer: JobVertex,
        field_name: str,
        filters_by_consumer: Dict[str, Tuple[float, float]],
    ) -> Tuple[float, ...]:
        boundaries = set()
        lows = []
        highs = []
        for low, high in filters_by_consumer.values():
            boundaries.add(low)
            boundaries.add(high)
            lows.append(low)
            highs.append(high)
        domain_low = min(lows)
        domain_high = max(highs)
        profile = producer.annotations.profile
        if profile is not None:
            cardinality = profile.cardinality((field_name,), default=0.0)
            if cardinality:
                domain_high = max(domain_high, domain_low + cardinality)
        span = domain_high - domain_low
        if span > 0:
            step = span / (_EXTRA_SPLITS + 1)
            for i in range(1, _EXTRA_SPLITS + 1):
                boundaries.add(domain_low + step * i)
        points = tuple(sorted(boundaries))
        return points

    # --------------------------------------------------------------- apply
    def apply(self, plan: Plan, application: TransformationApplication) -> Plan:
        # Only the producer and the consumers whose pruning filters actually
        # change are rebound; untouched vertices stay shared with the input.
        new_plan = plan.copy()
        workflow = new_plan.workflow
        dataset_name = application.details["dataset"]
        field_name = application.details["field"]
        split_points = tuple(application.details["split_points"])
        consumer_filters: Dict[str, Tuple[float, float]] = dict(application.details["consumer_filters"])

        if application.details.get("case") == "base-dataset-pruning":
            ranges = RangePartitioning(field=field_name, split_points=split_points)
            self._apply_consumer_filters(workflow, ranges, dataset_name, consumer_filters)
            return self._record(new_plan, application)

        producer_name = application.target_jobs[0]
        sort_fields = workflow.job(producer_name).job.effective_partitioner.effective_sort_fields
        new_partitioner = PartitionFunction(
            kind="range",
            fields=(field_name,),
            sort_fields=sort_fields,
            split_points=split_points,
        )
        workflow.update_job(producer_name, lambda job: job.with_partitioner(new_partitioner))

        ranges = RangePartitioning(field=field_name, split_points=split_points)
        self._apply_consumer_filters(workflow, ranges, dataset_name, consumer_filters)
        return self._record(new_plan, application)

    @staticmethod
    def _apply_consumer_filters(
        workflow,
        ranges: RangePartitioning,
        dataset_name: str,
        consumer_filters: Dict[str, Tuple[float, float]],
    ) -> None:
        """Rebind each consumer with pruning filters on its reading pipelines."""
        for consumer_name, (low, high) in consumer_filters.items():
            if not workflow.has_job(consumer_name):
                continue
            allowed = ranges.partitions_overlapping(low, high)
            if not allowed:
                continue
            pipelines = workflow.job(consumer_name).job.pipelines
            if not any(pipeline.reads(dataset_name) for pipeline in pipelines):
                continue
            pruned = [
                p.with_partition_filter(dataset_name, allowed) if p.reads(dataset_name) else p
                for p in pipelines
            ]
            workflow.update_job(consumer_name, lambda job: replace(job, pipelines=pruned))
