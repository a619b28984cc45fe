"""Shared pytest configuration for the test suite.

Registers a conservative Hypothesis profile (property-based tests in this
suite exercise whole MapReduce executions, which are far slower than the
microsecond-scale functions Hypothesis' default health checks expect) and the
fixture layer of the differential-equivalence battery: the shared cluster
spec, the differential executor, and the seeded random-workflow list whose
size is controlled by the ``EQUIVALENCE_SEEDS`` environment variable.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.cluster import ClusterSpec
from repro.verification import DifferentialExecutor, RandomWorkflowGenerator

settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")

#: Base seed of the random-workflow sweep; change it to explore a fresh
#: region of the workflow space (failures always print the exact seed).
EQUIVALENCE_BASE_SEED = 1000


def equivalence_seeds():
    """Seeds for the random-workflow equivalence sweep (>= 25 by contract).

    ``EQUIVALENCE_SEEDS`` scales the sweep up for nightly runs; the default
    keeps the tier-1 suite quick while satisfying the battery's minimum.
    """
    raw = os.environ.get("EQUIVALENCE_SEEDS", "").strip()
    try:
        count = int(raw) if raw else 25
    except ValueError:
        count = 25  # a malformed value must not abort collection of the suite
    return [EQUIVALENCE_BASE_SEED + i for i in range(max(25, count))]


def ledger_marks(server):
    """Snapshots of a planning server's cost and decision store counters."""
    return server.costs.stats_snapshot(), server.decisions.stats_snapshot()


def assert_ledgers_reconcile(server, marks):
    """Per-tenant attributed stats sum to the stores' own deltas since
    ``marks`` — exactly, counter for counter, not approximate monitoring."""
    for ledger, store, before in zip(
        ("cost_stats", "decision_stats"), (server.costs, server.decisions), marks
    ):
        delta = store.stats_snapshot().since(before)
        assert server.stats.total(ledger).as_dict() == delta.as_dict(), ledger


@pytest.fixture(scope="session", autouse=True)
def env_fault_plan():
    """Install the ``STUBBY_FAULT_PLAN`` fault plan (if set) for the session.

    This is how the nightly chaos sweep runs the whole suite under injected
    faults: the env variable carries a JSON spec list, and every
    ``fault_site`` hook in the library sees the installed plan.  Unset (the
    normal case) this is a no-op.
    """
    from repro.common.faults import set_active_plan
    from repro.verification.faults import install_from_env

    plan = install_from_env()
    yield plan
    set_active_plan(None)


@pytest.fixture(scope="session")
def cluster():
    """The paper's evaluation cluster, shared across the equivalence battery."""
    return ClusterSpec.paper_cluster()


@pytest.fixture(scope="session")
def workflow_generator():
    """A default-config random workflow generator."""
    return RandomWorkflowGenerator()


@pytest.fixture()
def differential():
    """A fresh differential executor (float-tolerant output comparison)."""
    return DifferentialExecutor()
