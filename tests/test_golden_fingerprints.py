"""Golden decision fingerprints: the optimizer's answers, pinned.

Every refactor of the search and the cost layers promises "decisions
byte-identical to the parent commit"; this file is that promise as a test.
``tests/golden_digests.py`` pins a digest per plan (the eight canned
workloads and the three wide DAGs of ``cold_wide``); each is re-derived here
in a subprocess under two ``PYTHONHASHSEED`` values, so the answers are also
shown independent of hash order and of anything the test process has warmed.
"""

import functools
import json

import pytest

from tests import golden_digests
from tests.golden_digests import GOLDEN, HASH_SEEDS, run_script_under


@functools.lru_cache(maxsize=None)
def _digests_under(hash_seed):
    return json.loads(run_script_under(hash_seed, golden_digests.__file__))


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


def test_every_plan_is_pinned():
    assert set(_digests_under(HASH_SEEDS[0])) == set(GOLDEN)
