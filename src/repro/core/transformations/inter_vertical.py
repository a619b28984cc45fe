"""Inter-job vertical packing (paper §3.2).

Moves the functions of a Map-only job into its (single) producer or consumer,
eliminating one entire job together with the reads and writes of the
intermediate dataset between them.  Preconditions: a one-to-one subgraph with
exactly one producer ``Jp`` and one consumer ``Jc``, where one of the two is
a Map-only job.  Two cases:

* **absorb the consumer** — a Map-only consumer's pipeline is appended to the
  producer's reduce side (or map side when the producer is itself map-only),
  e.g. J3+J4 → J4' and J5+J7' in the running example;
* **absorb the producer** — a Map-only producer's pipeline is prepended to
  the consumer's map side.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.core.plan import Plan
from repro.core.transformations.base import (
    Transformation,
    TransformationApplication,
    TransformationGroup,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.pipeline import Pipeline
from repro.whatif.adjustment import adjust_profile_for_inter_job_packing
from repro.workflow.annotations import JobAnnotations, SchemaAnnotation
from repro.workflow.graph import JobVertex, Workflow


class InterJobVerticalPacking(Transformation):
    """Eliminate a Map-only job by merging it into its producer or consumer."""

    name = "inter-job-vertical-packing"
    group = TransformationGroup.VERTICAL
    structural = True

    def find_applications(self, plan: Plan, unit_jobs: Sequence[str]) -> List[TransformationApplication]:
        workflow = plan.workflow
        unit = set(unit_jobs)
        applications: List[TransformationApplication] = []
        seen_pairs = set()
        for producer_name in unit_jobs:
            if not workflow.has_job(producer_name):
                continue
            producer = workflow.job(producer_name)
            for dataset_name in producer.job.output_datasets:
                consumers = workflow.consumers_of(dataset_name)
                if len(consumers) != 1:
                    continue
                consumer = consumers[0]
                if consumer.name not in unit or consumer.name == producer_name:
                    continue
                pair = (producer_name, consumer.name)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                application = self._check_pair(workflow, producer, consumer, dataset_name)
                if application is not None:
                    applications.append(application)
        return applications

    # ----------------------------------------------------------- conditions
    def _check_pair(
        self,
        workflow: Workflow,
        producer: JobVertex,
        consumer: JobVertex,
        dataset_name: str,
    ) -> Optional[TransformationApplication]:
        producer_job = producer.job
        consumer_job = consumer.job
        if len(producer_job.pipelines) != 1 or len(consumer_job.pipelines) != 1:
            return None
        # The intermediate dataset must only connect this pair.
        if len(workflow.consumers_of(dataset_name)) != 1:
            return None
        if not producer_job.is_map_only and not consumer_job.is_map_only:
            return None

        if consumer_job.is_map_only:
            if tuple(consumer_job.pipelines[0].input_datasets) != (dataset_name,):
                return None
            return TransformationApplication(
                transformation=self.name,
                target_jobs=(producer.name, consumer.name),
                details={"case": "absorb-consumer", "dataset": dataset_name},
            )

        # Producer is map-only, consumer has a reduce phase.
        if tuple(consumer_job.pipelines[0].input_datasets) != (dataset_name,):
            return None
        if len(producer_job.pipelines[0].input_datasets) < 1:
            return None
        return TransformationApplication(
            transformation=self.name,
            target_jobs=(producer.name, consumer.name),
            details={"case": "absorb-producer", "dataset": dataset_name},
        )

    # --------------------------------------------------------------- apply
    def apply(self, plan: Plan, application: TransformationApplication) -> Plan:
        # The producer and consumer vertices are only read; the merged vertex
        # is built fresh and bound by ``replace_job``/``remove_job``.
        new_plan = plan.copy()
        workflow = new_plan.workflow
        producer_name, consumer_name = application.target_jobs
        producer = workflow.job(producer_name)
        consumer = workflow.job(consumer_name)
        case = application.details["case"]

        if case == "absorb-consumer":
            merged_vertex = self._absorb_consumer(producer, consumer)
        else:
            merged_vertex = self._absorb_producer(producer, consumer)

        workflow.replace_job(producer_name, merged_vertex.job, merged_vertex.annotations)
        workflow.remove_job(consumer_name)
        workflow.prune_orphan_datasets()
        new_plan.record_merge(merged_vertex.job.name, (producer_name, consumer_name))
        return self._record(new_plan, application)

    def _absorb_consumer(self, producer: JobVertex, consumer: JobVertex) -> JobVertex:
        producer_pipeline = producer.job.pipelines[0]
        consumer_pipeline = consumer.job.pipelines[0]
        merged_name = f"{producer.name}+{consumer.name}"

        if producer.job.is_map_only:
            map_ops = producer_pipeline.map_ops + consumer_pipeline.map_ops
            reduce_ops: tuple = ()
        else:
            map_ops = producer_pipeline.map_ops
            reduce_ops = producer_pipeline.reduce_ops + consumer_pipeline.map_ops

        merged_pipeline = Pipeline(
            tag=producer_pipeline.tag,
            input_datasets=producer_pipeline.input_datasets,
            map_ops=map_ops,
            reduce_ops=reduce_ops,
            output_dataset=consumer_pipeline.output_dataset,
            input_partition_filter=producer_pipeline.input_partition_filter,
        )
        merged_job = MapReduceJob(
            name=merged_name,
            pipelines=[merged_pipeline],
            partitioner=producer.job.partitioner,
            config=producer.job.config,
        )
        annotations = self._merged_annotations(
            surviving=producer,
            absorbed=consumer,
            absorbed_into_map_side=producer.job.is_map_only,
            output_schema_from=consumer,
        )
        # The partition-function constraint set by the intra-job packing is
        # kept: it now describes the *internal* grouping requirement of the
        # merged reduce chain, which later partition-function changes (and
        # horizontal packings) must continue to honour.
        return JobVertex(job=merged_job, annotations=annotations)

    def _absorb_producer(self, producer: JobVertex, consumer: JobVertex) -> JobVertex:
        producer_pipeline = producer.job.pipelines[0]
        consumer_pipeline = consumer.job.pipelines[0]
        merged_name = f"{producer.name}+{consumer.name}"

        merged_pipeline = Pipeline(
            tag=consumer_pipeline.tag,
            input_datasets=producer_pipeline.input_datasets,
            map_ops=producer_pipeline.map_ops + consumer_pipeline.map_ops,
            reduce_ops=consumer_pipeline.reduce_ops,
            output_dataset=consumer_pipeline.output_dataset,
            input_partition_filter=producer_pipeline.input_partition_filter,
        )
        config = consumer.job.config
        if producer.job.config.chained_input and not config.chained_input:
            config = config.replace(max_parallel_maps_per_producer_reduce=1)
        merged_job = MapReduceJob(
            name=merged_name,
            pipelines=[merged_pipeline],
            partitioner=consumer.job.partitioner,
            config=config,
        )
        annotations = self._merged_annotations(
            surviving=consumer,
            absorbed=producer,
            absorbed_into_map_side=True,
            output_schema_from=consumer,
            input_schema_from=producer,
        )
        return JobVertex(job=merged_job, annotations=annotations)

    @staticmethod
    def _merged_annotations(
        surviving: JobVertex,
        absorbed: JobVertex,
        absorbed_into_map_side: bool,
        output_schema_from: JobVertex,
        input_schema_from: Optional[JobVertex] = None,
    ) -> JobAnnotations:
        changes: dict = {}
        surviving_schema = surviving.annotations.schema
        output_schema = output_schema_from.annotations.schema
        input_schema = (input_schema_from or surviving).annotations.schema
        if surviving_schema is not None:
            changes["schema"] = SchemaAnnotation(
                k1=input_schema.k1 if input_schema else surviving_schema.k1,
                v1=input_schema.v1 if input_schema else surviving_schema.v1,
                k2=surviving_schema.k2,
                v2=surviving_schema.v2,
                k3=output_schema.k3 if output_schema else None,
                v3=output_schema.v3 if output_schema else None,
            )
        surviving_profile = surviving.annotations.profile
        absorbed_profile = absorbed.annotations.profile
        if surviving_profile is not None and absorbed_profile is not None:
            changes["profile"] = adjust_profile_for_inter_job_packing(
                surviving_profile, absorbed_profile, absorbed_into_map_side
            )
        filters = dict(surviving.annotations.per_input_filters)
        for dataset_name, filter_annotation in absorbed.annotations.per_input_filters.items():
            filters.setdefault(dataset_name, filter_annotation)
        return replace(surviving.annotations, per_input_filters=filters, **changes)
