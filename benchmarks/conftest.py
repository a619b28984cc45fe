"""Shared fixtures for the benchmark harness (one per paper table/figure)."""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cluster import ClusterSpec  # noqa: E402
from repro.experiments import ExperimentHarness  # noqa: E402

#: Data-generation scale used by the benchmarks.  Increase for slower but
#: statistically smoother runs; the reported *shape* is stable at this scale.
BENCHMARK_SCALE = 0.15


@pytest.fixture(scope="session")
def cluster():
    return ClusterSpec.paper_cluster()


@pytest.fixture(scope="session")
def harness(cluster):
    """The shared harness behind the fig10–fig14 benchmarks."""
    return ExperimentHarness(cluster=cluster, scale=BENCHMARK_SCALE)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
