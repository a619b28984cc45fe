"""Intra-job vertical packing (paper §3.1).

Converts a consumer MapReduce job Jc into a Map-only job whose map tasks run
``Mc`` followed by ``Rc`` as a pipelined stream, eliminating Jc's partition,
sort, and shuffle phases.  The producer job Jp takes over the grouping work:
its partition function is changed to partition on ``Jp.K2 ∩ Jc.K2`` and sort
per partition on the combined key, and Jc's configuration is constrained so
every producer reduce task's output is read, in order, by a single map task
of Jc (Figure 4).

Preconditions (checked from schema / dataset annotations):

1. a one-to-one (or none-to-one) producer-consumer subgraph exists;
2. the fields of ``Jc.K2`` flow unchanged from the input of ``Rp`` to the
   output of ``Mc`` — verified through identical field names in the schema
   annotations (``Jc.K2 ⊆ Jp.K2``, ``Jc.K2 ⊆ Jp.K3``, and ``Mc`` emits those
   fields from its input);
3. for the none-to-one case, the input dataset annotation must show the data
   already partitioned on a subset of ``Jc.K2`` and sorted to group on it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.plan import Plan
from repro.core.transformations.base import Transformation, TransformationApplication
from repro.mapreduce.partitioner import PartitionFunction
from repro.mapreduce.pipeline import Pipeline
from repro.whatif.adjustment import adjust_profile_for_intra_job_packing
from repro.workflow.graph import JobVertex, Workflow


class IntraJobVerticalPacking(Transformation):
    """Turn a consumer job into a map-only job pipelined after its producer."""

    name = "intra-job-vertical-packing"

    def find_applications(self, plan: Plan, unit_jobs: Sequence[str]) -> List[TransformationApplication]:
        workflow = plan.workflow
        applications: List[TransformationApplication] = []
        unit = set(unit_jobs)
        for consumer_name in unit_jobs:
            if not workflow.has_job(consumer_name):
                continue
            consumer = workflow.job(consumer_name)
            application = self._check_consumer(workflow, consumer, unit)
            if application is not None:
                applications.append(application)
        return applications

    # ------------------------------------------------------------ conditions
    def _check_consumer(
        self,
        workflow: Workflow,
        consumer: JobVertex,
        unit: set,
    ) -> Optional[TransformationApplication]:
        job = consumer.job
        if job.is_map_only or len(job.pipelines) != 1:
            return None
        pipeline = job.pipelines[0]
        if not pipeline.reduce_ops:
            return None
        if len(pipeline.input_datasets) != 1:
            # Many-to-one packing would require aligned partitioning across
            # all producers; we restrict to the single-input cases whose
            # correctness the execution engine can guarantee.
            return None
        schema = consumer.annotations.schema
        if schema is None or not schema.knows_map_output_key:
            return None

        consumer_k2: Tuple[str, ...] = tuple(pipeline.shuffle_group_fields)
        if not consumer_k2 or not set(consumer_k2).issubset(schema.k2 or frozenset()):
            return None
        if not schema.map_emits_fields_from_input(consumer_k2):
            return None

        dataset_name = pipeline.input_datasets[0]
        producer = workflow.producer_of(dataset_name)

        if producer is None:
            return self._check_none_to_one(workflow, consumer, dataset_name, consumer_k2)

        if producer.name not in unit:
            return None
        return self._check_one_to_one(producer, consumer, dataset_name, consumer_k2)

    def _check_one_to_one(
        self,
        producer: JobVertex,
        consumer: JobVertex,
        dataset_name: str,
        consumer_k2: Tuple[str, ...],
    ) -> Optional[TransformationApplication]:
        producer_job = producer.job
        if producer_job.is_map_only or len(producer_job.pipelines) != 1:
            return None
        producer_schema = producer.annotations.schema
        if producer_schema is None or producer_schema.k2 is None or producer_schema.k3 is None:
            return None
        producer_k2 = tuple(sorted(producer_schema.k2))
        if not set(consumer_k2).issubset(producer_schema.k2):
            return None
        if not producer_schema.key_flows_through_reduce(consumer_k2):
            return None

        intersection = tuple(f for f in producer_k2 if f in set(consumer_k2))
        if not intersection:
            return None
        remainder = tuple(f for f in producer_k2 if f not in set(intersection))
        combined_sort = intersection + remainder

        new_partitioner = PartitionFunction(
            kind="hash", fields=intersection, sort_fields=combined_sort
        )
        constraint = producer.annotations.partition_constraint
        if constraint is not None and not new_partitioner.satisfies(constraint):
            return None

        return TransformationApplication(
            transformation=self.name,
            target_jobs=(producer.name, consumer.name),
            details={
                "case": "one-to-one",
                "dataset": dataset_name,
                "intersection": intersection,
                "combined_sort": combined_sort,
            },
        )

    def _check_none_to_one(
        self,
        workflow: Workflow,
        consumer: JobVertex,
        dataset_name: str,
        consumer_k2: Tuple[str, ...],
    ) -> Optional[TransformationApplication]:
        if not workflow.has_dataset(dataset_name):
            return None
        annotation = workflow.dataset(dataset_name).annotation
        if annotation is None:
            return None
        if not annotation.partitioned_on_subset_of(consumer_k2):
            return None
        if not annotation.sorted_to_group_on(consumer_k2):
            return None
        return TransformationApplication(
            transformation=self.name,
            target_jobs=(consumer.name,),
            details={"case": "none-to-one", "dataset": dataset_name},
        )

    # -------------------------------------------------------------- apply
    def apply(self, plan: Plan, application: TransformationApplication) -> Plan:
        # The rewrite is local: only the producer and consumer names are
        # rebound; every other vertex stays shared with the input plan.
        new_plan = plan.copy()
        workflow = new_plan.workflow
        case = application.details["case"]

        consumer_name = application.target_jobs[-1]
        consumer = workflow.update_job(consumer_name, self._packed_map_only_job)
        original_consumer_profile = consumer.annotations.profile

        producer_profile = None
        if case == "one-to-one":
            producer_name = application.target_jobs[0]
            intersection = tuple(application.details["intersection"])
            combined_sort = tuple(application.details["combined_sort"])
            old_partitioner = workflow.job(producer_name).job.effective_partitioner
            kind = old_partitioner.kind
            split_points = old_partitioner.split_points
            new_partitioner = PartitionFunction(
                kind=kind if kind == "range" and split_points else "hash",
                fields=intersection,
                sort_fields=combined_sort,
                split_points=split_points if kind == "range" else (),
            )
            producer = workflow.update_job(
                producer_name, lambda job: job.with_partitioner(new_partitioner)
            )
            producer_profile = producer.annotations.profile
            workflow.annotate_job(
                producer_name,
                partition_constraint=new_partitioner,
                conditions={**producer.annotations.conditions, "chained_consumer": consumer_name},
            )

        if original_consumer_profile is not None:
            base = producer_profile if producer_profile is not None else original_consumer_profile
            workflow.annotate_job(
                consumer_name,
                profile=adjust_profile_for_intra_job_packing(base, original_consumer_profile),
            )

        return self._record(new_plan, application)

    @staticmethod
    def _packed_map_only_job(job) -> "MapReduceJob":
        """The consumer's job rewritten map-only (fresh job, input untouched)."""
        old = job.pipelines[0]
        packed = Pipeline(
            tag=old.tag,
            input_datasets=old.input_datasets,
            map_ops=old.map_ops + old.reduce_ops,
            output_dataset=old.output_dataset,
            input_partition_filter=old.input_partition_filter,
        )
        new_config = job.config.replace(
            num_reduce_tasks=0,
            max_parallel_maps_per_producer_reduce=1,
        )
        return type(job)(
            name=job.name,
            pipelines=[packed],
            partitioner=None,
            config=new_config,
        )
