"""The cells of an experiment run: (workload × optimizer) pairs and their seeds.

One experiment run of :class:`~repro.experiments.harness.ExperimentHarness`
evaluates every requested optimizer on every requested workload.  Each such
(workload, optimizer) pair is a **cell** (:class:`ExperimentCell`): it
builds its optimizer, optimizes the workload's plan, executes the optimized
plan, and reports an :class:`~repro.experiments.harness.OptimizerRun`.
Cells are independent of each other's *results* — they only share the
harness's stores — so :meth:`ExperimentHarness.run
<repro.experiments.harness.ExperimentHarness.run>` dispatches them whole onto
one :mod:`repro.core.parallel` pool session, the only fan-out level of a
run; each cell's unit search runs serially on the worker that took it.

Determinism contract: a pool only changes *where* a cell runs.  Cell seeds
derive from the cell key via :func:`~repro.common.hashing.stable_hash` —
never from draw order on a shared stream — the shared cost service returns
bit-identical estimates cached or not, and results are collected in cell
order.  So every pool, at any worker count, reproduces the serial harness's
results byte for byte (``tests/test_experiment_orchestration.py`` enforces
it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.common.hashing import stable_hash

__all__ = [
    "ExperimentCell",
    "build_cells",
    "cell_seed",
]


@dataclass(frozen=True)
class ExperimentCell:
    """One (workload × optimizer) evaluation of an experiment run."""

    index: int
    workload: str
    optimizer: str
    #: Seed for the cell's optimizer, derived from the cell key alone so it
    #: cannot depend on scheduling or on which other cells run.
    seed: int

    @property
    def label(self) -> str:
        """Human-readable cell name (also the cost-service origin label)."""
        return f"{self.workload}/{self.optimizer}"


def cell_seed(base_seed: int, workload: str, optimizer: str) -> int:
    """Deterministic per-cell RNG seed: a stable hash of the cell key.

    Process-independent (:func:`stable_hash`), so a forked cell worker and
    the serial loop hand their optimizer the same seed.
    """
    return stable_hash((base_seed, "experiment-cell", workload, optimizer)) & 0x7FFFFFFF


def build_cells(
    workloads: Sequence[str], optimizers: Sequence[str], base_seed: int
) -> List[ExperimentCell]:
    """The cell grid of one run, in deterministic (workload-major) order."""
    cells: List[ExperimentCell] = []
    for workload in workloads:
        for optimizer in optimizers:
            cells.append(
                ExperimentCell(
                    index=len(cells),
                    workload=workload,
                    optimizer=optimizer,
                    seed=cell_seed(base_seed, workload, optimizer),
                )
            )
    return cells
