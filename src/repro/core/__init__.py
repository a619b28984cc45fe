"""Stubby's core: plan representation, transformations, search, and the optimizer."""

from repro.core.optimizer import OptimizationResult, StubbyOptimizer
from repro.core.plan import Plan
from repro.core.rrs import RecursiveRandomSearch, RRSResult

__all__ = [
    "OptimizationResult",
    "StubbyOptimizer",
    "Plan",
    "RecursiveRandomSearch",
    "RRSResult",
]
