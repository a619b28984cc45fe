"""Golden decision fingerprints: the optimizer's answers, pinned.

Every refactor of the search and the cost layers promises "decisions
byte-identical to the parent commit"; this file is that promise as a test.
``tests/golden_digests.py`` pins a digest per plan (the eight canned
workloads, the three wide DAGs of ``cold_wide`` and a secondary-sort variant
of IR), each plan's ``cost_stats`` and per-unit counters, a digest of what
the local engine counted executing and profiling it, one of what the judge
(``ActualCostModel``) prices those executions at, each job's estimated
dataflow against the measured one field by field, and one of what the
Starfish baseline chooses for each canned plan; its ``--check``
re-derives them here in a subprocess under two ``PYTHONHASHSEED`` values,
so the answers are also shown independent of hash order and of anything
the test process has warmed.
"""

import functools
import json

import pytest

from tests import golden_digests
from tests.golden_digests import CANNED, GOLDEN, HASH_SEEDS, PINNED, run_script_under


@functools.lru_cache(maxsize=None)
def _tables_under(hash_seed):
    # ``--check`` exits 1 (failing here, its verdict in the message) on any difference.
    return json.loads(run_script_under(hash_seed, golden_digests.__file__, "--check"))


def _digests_under(hash_seed):
    return _tables_under(hash_seed)["digests"]


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_decisions_match_the_pinned_digest(label, hash_seed):
    assert _digests_under(hash_seed)[label] == GOLDEN[label], (
        f"{label}: optimize() no longer makes the pinned decision under "
        f"PYTHONHASHSEED={hash_seed}.  A refactor must not get here; a deliberate "
        "decision change must bump repro.whatif.model.COST_MODEL_VERSION (persisted "
        "caches hold the old answers) and regenerate GOLDEN with "
        "`PYTHONPATH=src python tests/golden_digests.py`."
    )


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("table", ["cost_stats", "unit_counters"])
def test_cost_counters_match_the_pinned_tables(table, hash_seed):
    """A costing refactor moves no counter: every plan's whole ``cost_stats``
    and every unit's ``(queries, job_cache_hits, job_full_recosts,
    rrs_evaluations)`` summed over its subplans."""
    pinned = json.loads(json.dumps(PINNED[table]))
    assert _tables_under(hash_seed)[table] == pinned


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_engine_counters_match_the_pinned_table(hash_seed):
    """An engine refactor moves no counter: per plan, every job's whole
    ``ExecutionCounters`` and ``per_output_records`` executing the
    unoptimized and the optimized plan, and the profiles derived from them."""
    assert _tables_under(hash_seed)["engine_counters"] == PINNED["engine_counters"], (
        "the local engine no longer counts what it counted; regenerate "
        "ENGINE_COUNTERS only for a deliberate change of what it measures"
    )


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_actual_costs_match_the_pinned_table(hash_seed):
    """A refactor of the judge moves no actual cost: per plan, its ``total_s``
    and every job's (map tasks, reduce tasks, ``total_s``) for the
    unoptimized workflow and the optimized plan."""
    assert _tables_under(hash_seed)["actual_costs"] == PINNED["actual_costs"], (
        "the judge no longer prices the pinned executions as it did; regenerate "
        "ACTUAL_COSTS only for a deliberate change of how actual cost is measured"
    )


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_dataflow_ratios_match_the_pinned_table(hash_seed):
    """No estimated dataflow field moves against the measured one: per plan,
    every job's est/measured ratio of each numeric ``JobDataflow`` field, for
    the unoptimized workflow and the optimized plan."""
    assert _tables_under(hash_seed)["dataflow"] == json.loads(json.dumps(PINNED["dataflow"])), (
        "an estimated or a measured dataflow moved; a ratio that comes closer to 1.000 "
        "is regenerated with the change that moved it, and the range is never widened"
    )


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_starfish_matches_the_pinned_table(hash_seed):
    """A refactor of the sample path moves no Starfish answer: per canned
    plan, its plan signature, every job's whole config, its estimate and its
    ``cost_stats``."""
    assert _tables_under(hash_seed)["starfish"] == PINNED["starfish"], (
        "the Starfish baseline no longer tunes or counts as it did"
    )


def test_every_plan_is_pinned():
    assert set(_digests_under(HASH_SEEDS[0])) == set(GOLDEN)
    assert set(PINNED["starfish"]) == set(CANNED)
    assert all(set(table) == set(GOLDEN) for name, table in PINNED.items() if name != "starfish")
