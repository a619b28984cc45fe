"""Transformation framework.

A transformation is defined by preconditions and postconditions: if the
preconditions hold on a plan P−, the transformation can generate a plan P+
(on which the postconditions hold) that produces the same result but may have
different cost (paper §1.1).  In code, a transformation exposes

* :meth:`Transformation.find_applications` — enumerate the places inside an
  optimization unit where the preconditions hold, given the available
  annotations; and
* :meth:`Transformation.apply` — produce the new plan for one application,
  establishing the postconditions (new pipelines, partition-function and
  configuration constraints, adjusted annotations).

Transformations never mutate the plan they are given; they return copies, so
the search can enumerate alternative subplans freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.plan import AppliedTransformation, Plan


@dataclass(frozen=True)
class TransformationApplication:
    """One concrete opportunity to apply a transformation."""

    transformation: str
    target_jobs: Tuple[str, ...]
    details: Dict[str, object] = field(default_factory=dict)

    def as_applied(self) -> AppliedTransformation:
        """Convert to the history record stored on plans."""
        return AppliedTransformation(
            transformation=self.transformation,
            target_jobs=self.target_jobs,
            details=dict(self.details),
        )


class Transformation(ABC):
    """Base class for plan-to-plan transformations."""

    #: Short identifier used in plan histories and reports.
    name: str = "transformation"

    @abstractmethod
    def find_applications(self, plan: Plan, unit_jobs: Sequence[str]) -> List[TransformationApplication]:
        """Enumerate valid applications among ``unit_jobs`` of ``plan``.

        ``unit_jobs`` are the names of the jobs in the current optimization
        unit; the transformation must only propose applications whose target
        jobs are all members of the unit and whose preconditions can be
        verified from the annotations present in the plan.
        """

    @abstractmethod
    def apply(self, plan: Plan, application: TransformationApplication) -> Plan:
        """Return a new plan with ``application`` applied (input plan untouched)."""

    # ------------------------------------------------------------- helpers
    def _record(self, plan: Plan, application: TransformationApplication) -> Plan:
        plan.record(application.as_applied())
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
