"""Experiment harness reproducing the paper's evaluation (§7)."""

from repro.experiments.harness import (
    ExperimentHarness,
    ExperimentRunResult,
    OptimizerRun,
    WorkloadComparison,
)
from repro.experiments.microbench import (
    horizontal_packing_tradeoff,
    vertical_packing_tradeoff,
)
from repro.experiments.scheduler import (
    EXPERIMENT_BACKEND_ENV_VAR,
    ExperimentCell,
    ExperimentScheduler,
    build_cells,
    cell_seed,
)

__all__ = [
    "EXPERIMENT_BACKEND_ENV_VAR",
    "ExperimentCell",
    "ExperimentHarness",
    "ExperimentRunResult",
    "ExperimentScheduler",
    "OptimizerRun",
    "WorkloadComparison",
    "build_cells",
    "cell_seed",
    "vertical_packing_tradeoff",
    "horizontal_packing_tradeoff",
]
