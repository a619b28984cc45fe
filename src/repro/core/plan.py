"""Plans: annotated MapReduce workflows plus the transformations applied so far.

"Stubby accepts input in the form of an annotated MapReduce workflow — which
we call a plan — and returns an equivalent, but optimized, plan" (paper §1.1).
A :class:`Plan` therefore wraps a :class:`~repro.workflow.graph.Workflow` and
keeps a history of the transformation applications that produced it, which
the experiments use for reporting and the tests use to assert which
transformations fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mapreduce.config import JobConfig
from repro.workflow.graph import JobVertex, Workflow


@dataclass(frozen=True)
class AppliedTransformation:
    """One transformation application recorded in a plan's history."""

    transformation: str
    target_jobs: Tuple[str, ...]
    details: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.transformation}({', '.join(self.target_jobs)})"


class Plan:
    """An annotated workflow together with its transformation history."""

    def __init__(
        self,
        workflow: Workflow,
        history: Optional[List[AppliedTransformation]] = None,
        merge_lineage: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.workflow = workflow
        self.history: List[AppliedTransformation] = list(history or [])
        #: Explicit merge provenance: name of a job created by a packing
        #: transformation -> the *original* job names it absorbed
        #: (transitively flattened).  Maintained by the transformations via
        #: :meth:`record_merge`; the search uses it to keep a unit's
        #: configuration tuning focused on the right jobs without parsing
        #: job-name conventions.
        self.merge_lineage: Dict[str, Tuple[str, ...]] = dict(merge_lineage or {})

    # ------------------------------------------------------------- plumbing
    def copy(self) -> "Plan":
        """Independent copy (vertex objects shared, history duplicated).

        Vertices are immutable values (:meth:`Workflow.copy` is two dict
        copies), so copying a plan is cheap no matter how large the workflow
        — the basis of candidate enumeration.  History and merge
        lineage are duplicated eagerly (they are small and mutated by plain
        appends).
        """
        return Plan(
            self.workflow.copy(),
            history=list(self.history),
            merge_lineage=dict(self.merge_lineage),
        )

    def record(self, applied: AppliedTransformation) -> None:
        """Append a transformation application to the history."""
        self.history.append(applied)

    def record_merge(self, merged_name: str, source_jobs: Tuple[str, ...]) -> None:
        """Record that ``merged_name`` was created by packing ``source_jobs``.

        Sources that are themselves merged jobs are expanded through their
        own lineage, so the stored provenance always names original jobs.
        """
        expanded: List[str] = []
        for source in source_jobs:
            for origin in self.merge_lineage.get(source, (source,)):
                if origin not in expanded:
                    expanded.append(origin)
        self.merge_lineage[merged_name] = tuple(expanded)

    def merge_sources(self, job_name: str) -> Tuple[str, ...]:
        """Original job names behind ``job_name`` (itself, if never merged)."""
        return self.merge_lineage.get(job_name, (job_name,))

    # ------------------------------------------------------------ accessors
    @property
    def num_jobs(self) -> int:
        """Number of jobs in the plan's workflow."""
        return self.workflow.num_jobs

    @property
    def job_names(self) -> List[str]:
        """Job names in insertion order."""
        return self.workflow.job_names

    def job(self, name: str) -> JobVertex:
        """Fetch a job vertex by name."""
        return self.workflow.job(name)

    def transformations_applied(self) -> List[str]:
        """Names of the transformations applied, in order."""
        return [applied.transformation for applied in self.history]

    def count_applied(self, transformation_name: str) -> int:
        """How many times a given transformation was applied."""
        return sum(1 for applied in self.history if applied.transformation == transformation_name)

    # ------------------------------------------------------------ mutation
    def set_job_config(self, job_name: str, config: JobConfig) -> None:
        """Rebind one job's vertex to the job under ``config``."""
        self.workflow.update_job(job_name, lambda job: job.with_config(config))

    def signature(self) -> Tuple:
        """A structural signature used to deduplicate enumerated subplans.

        Two plans with the same jobs, pipelines, partition functions, and
        pruning filters are considered structurally identical (their
        configurations may still differ — configurations are searched
        separately by RRS).  Each job's part is built once per job
        (:attr:`~repro.mapreduce.job.MapReduceJob.structure_key`); sorting them
        is all a call does.
        """
        return tuple(sorted(vertex.job.structure_key for vertex in self.workflow.jobs))

    def describe(self) -> str:
        """Human-readable multi-line description of the plan."""
        lines = [f"Plan for workflow {self.workflow.name!r} ({self.num_jobs} jobs)"]
        for vertex in self.workflow.topological_order():
            job = vertex.job
            shape = "map-only" if job.is_map_only else f"{job.config.num_reduce_tasks} reduce tasks"
            lines.append(
                f"  {job.name}: {len(job.pipelines)} pipeline(s), {shape}, "
                f"inputs={list(job.input_datasets)}, outputs={list(job.output_datasets)}"
            )
        if self.history:
            lines.append("  applied: " + ", ".join(str(applied) for applied in self.history))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Plan(workflow={self.workflow.name!r}, jobs={self.num_jobs}, applied={len(self.history)})"
