"""Shared utilities: errors, deterministic random numbers, record helpers."""

from functools import reduce
from operator import add
from typing import Iterable

from repro.common.errors import (
    AnnotationError,
    CostModelError,
    ExecutionError,
    OptimizationError,
    ReproError,
    WorkflowValidationError,
)
from repro.common.records import (
    project,
    record_size_bytes,
    records_equal,
    sort_key_for,
)
from repro.common.rng import DeterministicRNG


def left_sum(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...`` left to right: ``sum()`` as Python ≤ 3.11 adds floats.

    From 3.12 on ``sum()`` compensates float rounding (Neumaier), which can
    return other bits; every sum that reaches an estimate goes through here,
    so answers do not depend on the interpreter.
    """
    return reduce(add, values, 0)


__all__ = [
    "ReproError",
    "AnnotationError",
    "CostModelError",
    "ExecutionError",
    "OptimizationError",
    "WorkflowValidationError",
    "left_sum",
    "project",
    "record_size_bytes",
    "records_equal",
    "sort_key_for",
    "DeterministicRNG",
]
