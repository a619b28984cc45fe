"""Golden decision digests: the optimizer's answers, pinned (no pytest needed).

Per plan, a sha256 of ``repr((decision_fingerprint(), estimated_cost_s,
cost_stats.queries))`` of a cold ``StubbyOptimizer(cluster,
seed=17).optimize(plan)`` — the eight canned workloads (scale 0.15,
profiled) and the three wide DAGs of ``bench/``'s ``cold_wide`` workload.
``tests/test_golden_fingerprints.py`` re-derives them under two
``PYTHONHASHSEED`` values.

This module imports only ``repro`` and the standard library, so any
interpreter can print the digests::

    PYTHONPATH=src python tests/golden_digests.py           # the digests, as JSON
    PYTHONPATH=src python tests/golden_digests.py --check   # exit 1 unless all equal GOLDEN
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pinned when the digests were introduced; a refactor must reproduce them.
GOLDEN = {
    "IR": "0431704a6647c85b78f7c935ee6a95840e2eff19811b9d10f9f8804c6730d96d",
    "SN": "0ec585c2e61c8e265b8160a0ee32e4191f79de512424c654954108963bf61f4c",
    "LA": "17dd24ebf459f1da095f133137fd3cda2f797474078bc58a89a362d058cd9907",
    "WG": "f67fd8cb6ee8ff0e8d9a2812652d133c7a1f3260c781a3400d14baab17ffdbb3",
    "BA": "56da146b73b7d04fad42d577a5e437b7e8dcddec4078dc60381220475c73644c",
    "BR": "71f73a0607e31732a8dd7717641df933a3e0bd005016f2a2e8188177937b74a8",
    "PJ": "c559063da189cb7619f62ced9a88606a548c14be0cd20c8164a796225c1d85c8",
    "US": "44b44f112cf135a0f6f9f53de30250abe570b8822531807901e72f3f7e5d26c4",
    "fanout32": "7a057cc2a7cb8b83c7400c45005bc742c9e073612f8726a7e2eeb8239a0ea502",
    "rollup31": "963c0254ed6be296e83ed04c6926082a598938f23e6ee29e37d7b749cdcafbcc",
    "rollup100": "60c68449839d2a0e27b3997175cffcdeb6a62f0ee19320b875e0049a25fcb0b7",
}

HASH_SEEDS = ("0", "3")

#: The ``cold_wide`` DAGs (bench/common.py: ``WIDE_SHAPES``, ``WIDE_DAG_SEED``).
WIDE_SHAPES = (
    ("fanout32", "wide_fanout", {"num_jobs": 32}),
    ("rollup31", "telemetry_rollup", {"num_channels": 26, "fanin": 8}),
    ("rollup100", "telemetry_rollup", {"num_channels": 88, "fanin": 8}),
)


def _plans():
    """``(label, plan)`` of the eleven pinned plans, profiled."""
    from repro.profiler import Profiler
    from repro.verification import RandomWorkflowGenerator
    from repro.workloads import WORKLOAD_ORDER, build_workload

    for label in WORKLOAD_ORDER:
        workload = build_workload(label, scale=0.15)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        yield label, workload.plan
    generator = RandomWorkflowGenerator().with_config(records_per_dataset=60, profile=False)
    for offset, (label, method, shape) in enumerate(WIDE_SHAPES):
        generated = getattr(generator, method)(1 + offset, **shape)
        Profiler().profile_workflow(generated.workflow, generated.base_datasets)
        yield label, generated.plan


def compute_digests():
    from repro.cluster import ClusterSpec
    from repro.core.optimizer import StubbyOptimizer

    cluster = ClusterSpec.paper_cluster()
    digests = {}
    for label, plan in _plans():
        result = StubbyOptimizer(cluster, seed=17).optimize(plan)
        pinned = (result.decision_fingerprint(), result.estimated_cost_s, result.cost_stats.queries)
        digests[label] = hashlib.sha256(repr(pinned).encode()).hexdigest()
    return digests


def run_script_under(hash_seed, script):
    """Standard output of ``script`` in a fresh interpreter under ``hash_seed``."""
    # No STUBBY_* variable reaches the child: a warm-start file would turn
    # searched units into replays and move the query count.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STUBBY_")}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.abspath(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return done.stdout


if __name__ == "__main__":
    digests = compute_digests()
    if "--check" not in sys.argv[1:]:
        print(json.dumps(digests, indent=4))
        sys.exit(0)
    missed = [label for label in GOLDEN if digests.get(label) != GOLDEN[label]]
    print(sys.version.split()[0], f"misses {missed}" if missed else f"all {len(GOLDEN)} match GOLDEN")
    sys.exit(1 if missed else 0)
