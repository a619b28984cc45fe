"""Experiment-level orchestration: fan (workload × optimizer) cells out.

One experiment run of :class:`~repro.experiments.harness.ExperimentHarness`
evaluates every requested optimizer on every requested workload.  Each such
(workload, optimizer) pair is a **cell**: it builds its optimizer, optimizes
the workload's plan, executes the optimized plan, and reports an
:class:`~repro.experiments.harness.OptimizerRun`.  Cells are independent of
each other's *results* — they only share the harness's
:class:`~repro.whatif.service.CostService` — which makes them exactly the
kind of work :mod:`repro.core.parallel` already knows how to fan out.

This module provides that fan-out:

* :class:`ExperimentCell` — one (workload, optimizer) pair with its
  deterministic per-cell seed and origin label;
* :class:`ExperimentScheduler` — opens one backend session over the cells,
  wires the shared cost service through the session's side channel (so
  forked cells merge their stats and cache shards on join), and returns
  the per-cell results **in cell order** regardless of completion order.

Backend selection: a ``backend=`` argument (spec string or
:class:`~repro.core.parallel.ExecutionBackend` instance), else the
``STUBBY_EXPERIMENT_BACKEND`` environment variable, else serial.  Cells are
the only fan-out level of an experiment run: a parallel backend dispatches
whole cells, and each cell's unit search runs serially on the worker that
took the cell.

Determinism contract: a backend only changes *where* a cell runs.  Cell seeds derive from the cell key via
:func:`~repro.common.hashing.stable_hash` — never from draw order on a
shared stream — the shared cost service returns bit-identical estimates
cached or not, and results are collected in cell order.  So every backend,
at any worker count, reproduces the serial harness's results byte for byte
(``tests/test_experiment_orchestration.py`` enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.common.hashing import stable_hash
from repro.common.store import ShardedStore
from repro.core.parallel import (
    DispatchStats,
    ExecutionBackend,
    resolve_backend,
    store_side_channel,
)

__all__ = [
    "EXPERIMENT_BACKEND_ENV_VAR",
    "ExperimentCell",
    "ExperimentScheduler",
    "build_cells",
    "cell_seed",
]

#: Environment variable consulted when no experiment backend is passed
#: explicitly.
EXPERIMENT_BACKEND_ENV_VAR = "STUBBY_EXPERIMENT_BACKEND"


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


class ExperimentScheduler:
    """Dispatches experiment cells onto a pluggable execution backend."""

    def __init__(self, backend=None) -> None:
        self.backend: ExecutionBackend = resolve_backend(
            backend, env_var=EXPERIMENT_BACKEND_ENV_VAR
        )
        #: Dispatch accounting of the most recent :meth:`map_cells` call
        #: (None until one has run): how cells spread across workers, how
        #: many were stolen, and the idle-cost imbalance metric.
        self.last_dispatch_stats: Optional[DispatchStats] = None

    @property
    def spec(self) -> str:
        """Spec string of the resolved backend (``"process:4"`` …)."""
        return self.backend.spec

    def map_cells(
        self,
        cells: Sequence[ExperimentCell],
        run_cell: Callable[[ExperimentCell], object],
        stores: Sequence[ShardedStore] = (),
        cell_costs: Optional[Sequence[float]] = None,
    ) -> List[object]:
        """Run every cell and return its results in cell order.

        Only the cell *index* crosses a worker boundary (cells hold workload
        names, but a process-backend worker inherits the prepared workloads
        by fork); responses must be plain picklable data.  Every store in ``stores``
        (the harness passes its cost service, decision cache and sub-result
        catalog) rides along on a side channel, so worker stats and new
        entries merge back into the shared store: one cell's costed jobs,
        solved units and registered sub-results serve every later cell.

        Cells are heterogeneous — a Baseline cell costs a fraction of a
        Stubby cell on a wide workload — and a forked session hands idle
        workers the next cell instead of dealing a fixed share up front.
        ``cell_costs`` (optional, parallel to ``cells``) declares relative
        cell weights for the load accounting surfaced in
        :attr:`last_dispatch_stats`; results are in cell order whichever
        worker computed them, by the determinism contract.
        """
        side = store_side_channel(*stores)
        indexed = list(cells)

        def worker(index: int):
            return run_cell(indexed[index])

        with self.backend.session(worker, side) as session:
            try:
                return session.run(list(range(len(indexed))), costs=cell_costs)
            finally:
                self.last_dispatch_stats = session.dispatch_stats
