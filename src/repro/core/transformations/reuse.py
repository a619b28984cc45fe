"""Sub-result reuse: rewrite a workflow to read a stored materialized output.

The sixth transformation (after the paper's intra/inter-vertical packing,
horizontal packing, partition-function, and configuration modules), and the
first that substitutes **data** rather than restructuring jobs — the
ReStore idea (PAPERS.md) expressed in Stubby's transformation framework.

*Precondition* — an intermediate dataset D whose entire producing cone lies
inside the optimization unit, whose cone has no outputs escaping the cone
(other than D itself), and whose exact subgraph content signature
(:func:`~repro.core.subresults.subgraph_signature`) matches a catalog entry
with its backing records still present.

*Postcondition* — the producing cone is removed, D becomes a workflow input
carrying the stored records and their derived annotation, and every
surviving consumer reads bytes identical to what the cone would have
produced (the signature pins the cone's full content, its configuration,
its base data, and the cost-model version — the differential battery in
``tests/test_subresult_reuse_equivalence.py`` proves the equivalence).

The rewrite enters :meth:`~repro.core.search.StubbySearch.enumerate_subplans`
like any other candidate, so it is **cost-model-arbitrated**: the what-if
engine costs the reuse plan (D is now a base dataset sized by its
annotation) against the recompute plan, and reuse wins only when estimated
cheaper.

The kill switch is the catalog's own (``SubResultCatalog(enabled=False)`` /
``STUBBY_SUBRESULT_CATALOG_ENABLED=0``): disabled, :meth:`find_applications`
proposes nothing and the search enumerates exactly the pre-catalog candidate
set — the bit-identity baseline of the equivalence sweep.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.plan import Plan
from repro.core.subresults import (
    SubResultCatalog,
    SubResultUnavailableError,
    producing_cone,
    subgraph_signature,
)
from repro.core.transformations.base import (
    Transformation,
    TransformationApplication,
    TransformationGroup,
)
from repro.whatif import model as whatif_model

__all__ = [
    "SubResultReuseTransformation",
    "SubResultUnavailableError",
]

class SubResultReuseTransformation(Transformation):
    """Replace an intermediate dataset's producing cone with its stored bytes."""

    name = "sub-result-reuse"
    group = TransformationGroup.BOTH
    structural = True

    def __init__(self, catalog: Optional[SubResultCatalog] = None) -> None:
        self._catalog = catalog

    # -------------------------------------------------------------- search
    def find_applications(
        self, plan: Plan, unit_jobs: Sequence[str]
    ) -> List[TransformationApplication]:
        catalog = self._catalog
        if catalog is None or not catalog.enabled or catalog.catalog_size == 0:
            return []
        workflow = plan.workflow
        unit = set(unit_jobs)
        engine = whatif_model.WhatIfEngine(catalog.cluster)
        applications: List[TransformationApplication] = []
        for dataset_vertex in workflow.datasets:
            name = dataset_vertex.name
            if workflow.producer_of(name) is None:
                continue
            if not workflow.consumers_of(name):
                # Terminal datasets are the workflow's answer; substituting
                # their producer away would change which jobs emit the
                # compared outputs, so reuse stops one level short.
                continue
            cone_jobs, _bases = producing_cone(workflow, name)
            if not cone_jobs or any(job not in unit for job in cone_jobs):
                continue
            if not self._cone_is_self_contained(workflow, cone_jobs, name):
                continue
            signature = subgraph_signature(workflow, name, catalog.cluster, engine=engine)
            if catalog.probe(signature) is None:
                continue
            applications.append(
                TransformationApplication(
                    transformation=self.name,
                    target_jobs=cone_jobs,
                    details={
                        "dataset": name,
                        "signature": signature,
                        "jobs_eliminated": len(cone_jobs),
                    },
                )
            )
        return applications

    @staticmethod
    def _cone_is_self_contained(workflow, cone_jobs, reused_dataset: str) -> bool:
        """No cone output other than the reused dataset may escape the cone.

        A side output consumed outside the cone would lose its producer; a
        terminal side output would silently vanish from the workflow's
        answer.  Either disqualifies the rewrite.
        """
        cone = set(cone_jobs)
        for job_name in cone_jobs:
            for output in workflow.job(job_name).job.output_datasets:
                if output == reused_dataset:
                    continue
                consumers = workflow.consumers_of(output)
                if not consumers:
                    return False
                if any(consumer.name not in cone for consumer in consumers):
                    return False
        return True

    # --------------------------------------------------------------- apply
    def apply(self, plan: Plan, application: TransformationApplication) -> Plan:
        catalog = self._catalog
        if catalog is None:
            raise SubResultUnavailableError("no sub-result catalog configured")
        signature = application.details["signature"]
        # Fetch before mutating anything: a stale or evicted entry aborts the
        # rewrite (SubResultUnavailableError) and the search recomputes.
        entry = catalog.fetch(signature)
        new_plan = plan.copy()
        workflow = new_plan.workflow
        for job_name in application.target_jobs:
            workflow.remove_job(job_name)
        workflow.add_dataset(
            entry.dataset, dataset=entry.materialize(), annotation=entry.annotation
        )
        workflow.prune_orphan_datasets()
        return self._record(new_plan, application)
