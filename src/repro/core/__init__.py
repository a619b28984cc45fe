"""Stubby's core: plan representation, transformations, search, and the optimizer."""

from repro.core.optimizer import OptimizationResult, StubbyOptimizer
from repro.core.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    create_backend,
    resolve_backend,
)
from repro.core.plan import Plan
from repro.core.rrs import RecursiveRandomSearch, RRSResult

__all__ = [
    "ExecutionBackend",
    "OptimizationResult",
    "ProcessBackend",
    "SerialBackend",
    "StubbyOptimizer",
    "Plan",
    "RecursiveRandomSearch",
    "RRSResult",
    "create_backend",
    "resolve_backend",
]
