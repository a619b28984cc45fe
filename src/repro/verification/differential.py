"""Differential execution: prove an optimized plan equals the original.

Stubby's transformations are only useful if they are semantics-preserving
rewrites.  This module *executes* both sides — the unoptimized workflow and a
candidate (optimized) plan — on the same base datasets through the local
engine, and compares canonicalized outputs: sorted key/value multisets with
float tolerance (transformations legitimately change float accumulation
order, never the multiset of results).

When the candidate diverges, the report localizes the failure:

* **dataset level** — which output dataset differs, with missing/extra
  record samples and counts;
* **job level** — which job produced the diverging dataset on each side;
* **transformation level** — :meth:`DifferentialExecutor.verify_result`
  replays the per-unit plan snapshots recorded by the search
  (:class:`~repro.core.search.UnitReport`) and bisects the divergence to the
  first optimization unit — and therefore the specific transformation
  applications — that introduced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.records import Record, diff_record_multisets
from repro.core.plan import Plan
from repro.dfs.dataset import Dataset
from repro.workflow.executor import WorkflowExecutor
from repro.workflow.graph import Workflow

#: Missing / extra records a divergence report quotes per dataset.
MAX_SAMPLES = 5


@dataclass
class DatasetDivergence:
    """One output dataset on which reference and candidate disagree."""

    dataset: str
    #: Jobs that produced the dataset on each side (None: base/missing).
    reference_job: Optional[str] = None
    candidate_job: Optional[str] = None
    missing_count: int = 0
    extra_count: int = 0
    #: Record-level samples (bounded) of what diverged.
    missing_sample: List[Record] = field(default_factory=list)
    extra_sample: List[Record] = field(default_factory=list)
    #: Set when the candidate never produced the dataset at all.
    dataset_absent: bool = False

    def describe(self) -> str:
        """One-paragraph, job/record-level description of this divergence."""
        producer = self.candidate_job or self.reference_job or "<base dataset>"
        if self.dataset_absent:
            return (
                f"dataset {self.dataset!r}: absent from the candidate plan "
                f"(reference producer: {self.reference_job!r})"
            )
        lines = [
            f"dataset {self.dataset!r} (reference job {self.reference_job!r}, "
            f"candidate job {producer!r}): "
            f"{self.missing_count} record(s) missing, {self.extra_count} extra"
        ]
        for record in self.missing_sample:
            lines.append(f"    missing: {record!r}")
        for record in self.extra_sample:
            lines.append(f"    extra:   {record!r}")
        return "\n".join(lines)


@dataclass
class CulpritReport:
    """The optimization unit a divergence was bisected to."""

    unit_index: int
    phase: str
    unit_jobs: Tuple[str, ...]
    transformations: Tuple[str, ...]
    divergences: List[DatasetDivergence] = field(default_factory=list)
    error: Optional[str] = None

    def describe(self) -> str:
        """Human-readable summary naming the guilty transformations."""
        what = ", ".join(self.transformations) or "<no structural transformation>"
        lines = [
            f"first divergence introduced by unit #{self.unit_index} "
            f"({self.phase} phase, jobs {list(self.unit_jobs)}): {what}"
        ]
        if self.error:
            lines.append(f"  candidate execution failed: {self.error}")
        lines.extend("  " + d.describe() for d in self.divergences)
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """Outcome of one differential verification run."""

    workflow_name: str
    optimizer: str = ""
    compared_datasets: List[str] = field(default_factory=list)
    divergences: List[DatasetDivergence] = field(default_factory=list)
    culprit: Optional[CulpritReport] = None
    #: Exception text when the candidate plan failed to execute at all.
    error: Optional[str] = None

    @property
    def equivalent(self) -> bool:
        """True when the candidate produced exactly the reference outputs."""
        return not self.divergences and self.error is None

    def describe(self) -> str:
        """Full, human-readable divergence report."""
        header = f"differential report for {self.workflow_name!r}"
        if self.optimizer:
            header += f" optimized by {self.optimizer}"
        if self.equivalent:
            return f"{header}: equivalent on {len(self.compared_datasets)} dataset(s)"
        lines = [f"{header}: NOT equivalent"]
        if self.error:
            lines.append(f"  candidate execution failed: {self.error}")
        lines.extend("  " + d.describe() for d in self.divergences)
        if self.culprit is not None:
            lines.append(self.culprit.describe())
        return "\n".join(lines)


class DifferentialExecutor:
    """Runs original and candidate plans and compares canonicalized outputs."""

    def __init__(
        self,
        executor: Optional[WorkflowExecutor] = None,
        float_digits: int = 6,
        float_atol: float = 1e-6,
    ) -> None:
        self.executor = executor or WorkflowExecutor()
        self.float_digits = float_digits
        self.float_atol = float_atol

    # ------------------------------------------------------------------ API
    def compare(
        self,
        reference: Workflow,
        candidate,
        base_datasets: Mapping[str, Dataset],
        datasets: Optional[Sequence[str]] = None,
    ) -> DifferentialReport:
        """Execute ``reference`` and ``candidate`` and diff their outputs.

        ``candidate`` may be a :class:`Workflow` or a :class:`Plan`.  By
        default the *terminal* datasets of the reference workflow (its
        results) are compared; intermediate datasets are fair game for the
        optimizer to restructure or eliminate.
        """
        compared = self._compared_datasets(reference, datasets)
        reference_outputs = self._execute(reference, base_datasets)
        return self._compare_against(
            reference, reference_outputs, candidate, base_datasets, compared
        )

    def verify_result(
        self,
        reference: Workflow,
        base_datasets: Mapping[str, Dataset],
        result,
        datasets: Optional[Sequence[str]] = None,
    ) -> DifferentialReport:
        """Verify an :class:`~repro.core.optimizer.OptimizationResult`.

        On divergence, the per-unit plan snapshots in ``result.unit_reports``
        are replayed in order to bisect the failure to the first unit whose
        optimized plan no longer reproduces the reference outputs.  The
        reference workflow is executed exactly once; its outputs are reused
        for the initial comparison and for every bisection step.
        """
        compared = self._compared_datasets(reference, datasets)
        reference_outputs = self._execute(reference, base_datasets)
        report = self._compare_against(
            reference, reference_outputs, result.plan, base_datasets, compared
        )
        report.optimizer = getattr(result, "optimizer", "") or ""
        if not report.equivalent and getattr(result, "unit_reports", None):
            report.culprit = self._bisect(
                reference, reference_outputs, base_datasets, result.unit_reports, compared
            )
        return report

    # -------------------------------------------------------------- internals
    def _execute(
        self, target, base_datasets: Mapping[str, Dataset]
    ) -> Dict[str, List[Record]]:
        """Run a workflow or plan, returning {dataset name: records} per job."""
        workflow = target.workflow if isinstance(target, Plan) else target
        execution, _ = self.executor.execute(
            workflow.copy(), base_datasets=base_datasets, collect_outputs=True
        )
        outputs: Dict[str, List[Record]] = {}
        for job_outputs in execution.job_outputs.values():
            outputs.update(job_outputs)
        return outputs

    def _diff_outputs(
        self,
        reference: Workflow,
        candidate: Workflow,
        reference_outputs: Mapping[str, List[Record]],
        candidate_outputs: Mapping[str, List[Record]],
        compared: Sequence[str],
    ) -> List[DatasetDivergence]:
        divergences: List[DatasetDivergence] = []
        for name in compared:
            reference_job = self._producer_name(reference, name)
            if name not in candidate_outputs:
                divergences.append(
                    DatasetDivergence(
                        dataset=name,
                        reference_job=reference_job,
                        dataset_absent=True,
                        missing_count=len(reference_outputs.get(name, [])),
                    )
                )
                continue
            missing, extra = diff_record_multisets(
                reference_outputs.get(name, []),
                candidate_outputs[name],
                float_digits=self.float_digits,
                float_atol=self.float_atol,
            )
            if not missing and not extra:
                continue
            divergences.append(
                DatasetDivergence(
                    dataset=name,
                    reference_job=reference_job,
                    candidate_job=self._producer_name(candidate, name),
                    missing_count=len(missing),
                    extra_count=len(extra),
                    missing_sample=missing[:MAX_SAMPLES],
                    extra_sample=extra[:MAX_SAMPLES],
                )
            )
        return divergences

    def _bisect(
        self,
        reference: Workflow,
        reference_outputs: Mapping[str, List[Record]],
        base_datasets: Mapping[str, Dataset],
        unit_reports: Sequence,
        compared: Sequence[str],
    ) -> Optional[CulpritReport]:
        """Find the first unit whose after-plan diverges from the reference."""
        for index, unit_report in enumerate(unit_reports):
            plan_after = getattr(unit_report, "plan_after", None)
            if plan_after is None:
                continue
            step = self._compare_against(
                reference, reference_outputs, plan_after, base_datasets, compared
            )
            if step.equivalent:
                continue
            chosen = unit_report.chosen
            return CulpritReport(
                unit_index=index,
                phase=getattr(unit_report, "phase", "?"),
                unit_jobs=tuple(getattr(unit_report.unit, "jobs", ())),
                transformations=tuple(chosen.transformations) if chosen is not None else (),
                divergences=step.divergences,
                error=step.error,
            )
        return None

    @staticmethod
    def _compared_datasets(
        reference: Workflow, datasets: Optional[Sequence[str]]
    ) -> List[str]:
        """Datasets to diff: the reference's terminal *produced* results.

        Unconsumed base datasets are inputs, not outputs, and intermediates
        are the optimizer's to restructure or eliminate.
        """
        if datasets is not None:
            return list(datasets)
        return [
            d.name
            for d in reference.terminal_datasets()
            if reference.producer_of(d.name) is not None
        ]

    def _compare_against(
        self,
        reference: Workflow,
        reference_outputs: Mapping[str, List[Record]],
        candidate,
        base_datasets: Mapping[str, Dataset],
        compared: Sequence[str],
    ) -> DifferentialReport:
        """Diff a candidate against already-computed reference outputs."""
        candidate_workflow = candidate.workflow if isinstance(candidate, Plan) else candidate
        report = DifferentialReport(
            workflow_name=reference.name, compared_datasets=list(compared)
        )
        try:
            candidate_outputs = self._execute(candidate, base_datasets)
        except Exception as exc:  # noqa: BLE001 - the report carries the cause
            report.error = f"{type(exc).__name__}: {exc}"
            return report
        report.divergences = self._diff_outputs(
            reference, candidate_workflow, reference_outputs, candidate_outputs, compared
        )
        return report

    @staticmethod
    def _producer_name(workflow: Workflow, dataset_name: str) -> Optional[str]:
        if not workflow.has_dataset(dataset_name):
            return None
        producer = workflow.producer_of(dataset_name)
        return producer.name if producer is not None else None
