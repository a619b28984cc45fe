"""Shared pytest configuration for the test suite.

Registers a conservative Hypothesis profile (property-based tests in this
suite exercise whole MapReduce executions, which are far slower than the
microsecond-scale functions Hypothesis' default health checks expect) and the
fixture layer of the differential-equivalence battery: the shared cluster
spec, the differential executor, and the seeded random-workflow list whose
size is controlled by the ``EQUIVALENCE_SEEDS`` environment variable.  It also
holds the fixed shapes only tests build (a small multi-wave cluster, the
diamond shared-sink workflow), so ``src/`` carries no test-only preset.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.cluster import ClusterSpec, NodeSpec
from repro.common.rng import DeterministicRNG
from repro.verification import DifferentialExecutor, RandomWorkflowGenerator
from repro.workflow.graph import Workflow

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


def small_test_cluster():
    """A 4-node cluster used by unit tests to exercise multi-wave behaviour."""
    return ClusterSpec(
        num_nodes=4,
        node=NodeSpec(memory_mb=4_096, map_slots=2, reduce_slots=2),
        task_startup_s=1.0,
        job_startup_s=4.0,
    )


def diamond_shared_sink(generator, seed):
    """A diamond fan-in feeding a shared-scan sink (fixed workload shape).

    Structure (all from the random catalog's building blocks, sized by
    ``seed``)::

                   src
                  /    \\
            (project)  (filter)      <- diamond branches share src's scan
                 |        |
                d0        d1
                  \\      /
                 (fan-in sum)        <- one pipeline reading BOTH datasets
                      |
                      d2
                    /    \\
            (aggregate)  (distinct)  <- sink jobs share d2's scan

    The shape exercises exactly the corners the random DAGs rarely hit
    together: a multi-input pipeline (fan-in), two horizontal-packing
    opportunities at different depths, and vertical chains above and
    below the fan-in.  Profiled and validated like every generated
    workflow; the same seed always yields the same workflow and data.
    """
    config = generator.config
    rng = DeterministicRNG(seed)
    data_rng = rng.fork("diamond-data")
    job_rng = rng.fork("diamond-jobs")

    workflow = Workflow(name=f"diamond-{seed}")
    src = f"diamond{seed}_src"
    base_datasets = {src: generator._make_dataset(src, data_rng.fork(src))}

    branch_a, annotations_a = generator._build_project(
        f"D{seed}_J0", src, f"diamond{seed}_d0", job_rng.fork("j0"), config
    )
    branch_b, annotations_b = generator._build_filter(
        f"D{seed}_J1", src, f"diamond{seed}_d1", job_rng.fork("j1"), config
    )
    workflow.add_job(branch_a, annotations_a)
    workflow.add_job(branch_b, annotations_b)

    # The sum job's single pipeline reads both diamond branches: the map
    # keys by "k" either way, and summing is order-insensitive, so the
    # fan-in is a pure multiset union of the two inputs.
    fan_in, fan_in_annotations = generator._build_sum(
        f"D{seed}_J2",
        (f"diamond{seed}_d0", f"diamond{seed}_d1"),
        f"diamond{seed}_d2",
        job_rng.fork("j2"),
        config,
    )
    workflow.add_job(fan_in, fan_in_annotations)

    sink_a, sink_a_annotations = generator._build_aggregate(
        f"D{seed}_J3", f"diamond{seed}_d2", f"diamond{seed}_d3", job_rng.fork("j3"), config
    )
    sink_b, sink_b_annotations = generator._build_distinct(
        f"D{seed}_J4", f"diamond{seed}_d2", f"diamond{seed}_d4", job_rng.fork("j4"), config
    )
    workflow.add_job(sink_a, sink_a_annotations)
    workflow.add_job(sink_b, sink_b_annotations)
    return generator._finalize(seed, workflow, base_datasets)


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
        assert server.stats.total(ledger) == delta, ledger


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
