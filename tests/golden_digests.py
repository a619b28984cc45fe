"""Golden decision digests and cost counters: the optimizer's answers, pinned (no pytest needed).

Per plan, a sha256 of ``repr((decision_fingerprint(), estimated_cost_s,
cost_stats.queries))`` of a cold ``StubbyOptimizer(cluster,
seed=17).optimize(plan)`` — the eight canned workloads (scale 0.15,
profiled), the three wide DAGs of ``bench/``'s ``cold_wide`` workload and
``IRsort``, IR whose ``IR_J2`` keys its map output on ``(doc, word)``,
groups on ``doc`` and sorts each partition on both (:func:`_secondary_sort`)
— and, of the same run, the plan's whole ``cost_stats`` (:data:`COST_STATS`)
and each unit's counters summed over its subplans (:data:`UNIT_COUNTERS`),
so a costing refactor that moves no counter is checked, not compared by
hand.  :data:`ENGINE_COUNTERS` pins the local engine the same way: per plan,
a sha256 of what executing the unoptimized and the optimized plan counted
and what profiling it derived (:func:`engine_digest`); :data:`ACTUAL_COSTS`
pins what the judge prices those two executions at (:func:`actual_digest`).
:data:`STARFISH` pins the Starfish baseline on the eight canned plans
(:func:`starfish_digest`).  ``tests/test_golden_fingerprints.py`` re-derives
all six under two ``PYTHONHASHSEED`` values.

This module imports only ``repro`` and the standard library, so any
interpreter can print them::

    PYTHONPATH=src python tests/golden_digests.py           # digests and counters, as JSON
    PYTHONPATH=src python tests/golden_digests.py --check   # the same; exit 1 unless all are pinned

``--check`` names each missed row on standard error, and prints a missed
counter row (``COST_STATS``, ``UNIT_COUNTERS``) as ``pinned -> computed``.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pinned when the digests were introduced (and again when the fingerprint
#: came to key each job's whole ``JobConfig.key``); a refactor must reproduce them.
GOLDEN = {
    "IR": "49f4dd2a7a958d578c762abcd3b714848a295e9fe674c4e7f5d708ef1d2da8c4",
    "SN": "b68f1ba957e18a050b1ef6b277db6e2feec99cb6a336dbb83395820c29ae4c63",
    "LA": "37057caf7b1149e0bac2005082fa992a431207e20cee432d3baeb8e098301fe9",
    "WG": "5ee2988cb0ea3f8643ee9394b44188b1ec2f46a62bb5ccb6991b5eeba17defb8",
    "BA": "bbc35d5ba73b510f21acdd9a5c16826d1f8c059a4308d48bc6a13f7428b94601",
    "BR": "ac85fd28edc87d15679f76244203a2e6f84cb48e29cec21b81b1e1ea97de35f7",
    "PJ": "c98446fc400dc53aee484ab4b0d39618fa3395b6633053e1422522957105c73f",
    "US": "b2d7f272286314ee9038573031de3ecc1b45bee7c46c0a849a61671f1f0dd4c7",
    "fanout32": "2096fb3e09167544136e156faf84b98a4946ead340b65ed200870b30c28ad8fc",
    "rollup31": "c9a73ec36a4b04c214cfa2ad5530edfeb7c8e4a6a4aee9e1d5a22b20e8f45dd6",
    "rollup100": "79f68234b1424ccae04f849b3b2b797e4f22cfcc5cf3e2c6b537f049f3128a2e",
    "IRsort": "49f4dd2a7a958d578c762abcd3b714848a295e9fe674c4e7f5d708ef1d2da8c4",
}

#: The ``cost_stats`` fields :data:`COST_STATS` pins, in order.
COST_STATS_FIELDS = (
    "queries", "job_queries", "job_cache_hits", "job_full_recosts",
    "full_estimates", "fallback_queries", "cross_origin_hits",
)

#: Each plan's ``cost_stats``, as :data:`COST_STATS_FIELDS`.
COST_STATS = {
    "IR": (465, 1126, 1116, 10, 1, 0, 0),
    "SN": (541, 1623, 1614, 9, 1, 0, 0),
    "LA": (525, 1996, 1987, 9, 2, 0, 0),
    "WG": (225, 450, 448, 2, 1, 0, 0),
    "BA": (685, 2740, 2734, 6, 1, 0, 0),
    "BR": (1411, 8093, 8079, 14, 1, 0, 0),
    "PJ": (397, 1191, 1186, 5, 1, 0, 0),
    "US": (709, 2127, 2117, 10, 1, 0, 0),
    "fanout32": (245, 6724, 6687, 37, 3, 0, 0),
    "rollup31": (629, 14915, 14870, 45, 1, 0, 0),
    "rollup100": (785, 41957, 41829, 128, 1, 0, 0),
    "IRsort": (465, 1126, 1116, 10, 1, 0, 0),
}

#: Per unit, in order, ``(queries, job_cache_hits, job_full_recosts,
#: rrs_evaluations)`` summed over the unit's subplans.
UNIT_COUNTERS = {
    "IR": [
        (188, 495, 9, 185), (112, 291, 1, 110), (36, 72, 0, 35), (84, 168, 0, 83), (44, 88, 0, 43),
    ],
    "SN": [
        (196, 716, 8, 193), (68, 204, 0, 67), (44, 132, 0, 43), (136, 323, 1, 134),
        (96, 236, 0, 94),
    ],
    "LA": [
        (144, 568, 8, 142), (68, 272, 0, 67), (44, 176, 0, 43), (60, 240, 0, 59),
        (120, 411, 1, 118), (88, 316, 0, 86),
    ],
    "WG": [(52, 102, 2, 51), (52, 104, 0, 51), (68, 136, 0, 67), (52, 104, 0, 51)],
    "BA": [
        (168, 667, 5, 166), (92, 368, 0, 91), (84, 335, 1, 83), (60, 240, 0, 59),
        (108, 432, 0, 107), (60, 240, 0, 59), (60, 240, 0, 59), (52, 208, 0, 51),
    ],
    "BR": [
        (52, 357, 7, 51), (852, 5414, 6, 843), (84, 420, 0, 83), (52, 260, 0, 51), (36, 180, 0, 35),
        (152, 715, 1, 150), (76, 304, 0, 75), (68, 272, 0, 67), (36, 144, 0, 35),
    ],
    "PJ": [(232, 691, 5, 228), (36, 108, 0, 35), (92, 276, 0, 91), (36, 108, 0, 35)],
    "US": [(576, 1718, 10, 568), (36, 108, 0, 35), (60, 180, 0, 59), (36, 108, 0, 35)],
    "fanout32": [(100, 3165, 35, 99), (144, 3490, 2, 142)],
    "rollup31": [
        (108, 3308, 40, 107), (92, 2851, 1, 91), (36, 1116, 0, 35), (260, 3580, 4, 257),
        (88, 2620, 0, 86), (44, 1364, 0, 43),
    ],
    "rollup100": [
        (108, 10677, 123, 107), (108, 10799, 1, 107), (52, 5200, 0, 51), (228, 11836, 4, 225),
        (92, 1196, 0, 91), (152, 1536, 0, 150), (44, 572, 0, 43),
    ],
    "IRsort": [
        (188, 495, 9, 185), (112, 291, 1, 110), (36, 72, 0, 35), (84, 168, 0, 83), (44, 88, 0, 43),
    ],
}

#: Per plan, :func:`engine_digest` of its unoptimized workflow, its profile
#: and its optimized plan.
ENGINE_COUNTERS = {
    "IR": "9b0fda1ede94b99e024f0daba2e23dcfa6f5b9717c74263341eedc28f7e61551",
    "SN": "0b9a03846d594634ad68e149645e932c12f50b7f6f37752ac07b3d0ca7d19696",
    "LA": "bd827bf6a110a824051bddfcf72efa65c12775986c59fb5850c1d316cf5c4c06",
    "WG": "d0683acbcc77d6ccc606329575170ded8e877eb2057f328b026dbe5737acaed7",
    "BA": "0bd5d4b19b2bb5c7cb88ba5a16493361231d1a4e893cf6cac5007d20e7df22e6",
    "BR": "6745ed0d716e715756440d7e6ffd0403e862f8404dca6fc3adeb54921ce7aa4c",
    "PJ": "8f01d356ecce7edaa02885295d2ce43b0be39249c11588ba7c8bca58f7e8a4f2",
    "US": "2b9fdc8df2ad6e4052bdba9a961e467a97a4d90dd686b8d66b0bf857b8d77771",
    "fanout32": "19ea2332619dedc0a267db376a647e08a646376f1997d206511d87ce186fd901",
    "rollup31": "1811702e554980e43b1a20ab7e6dd59577673ecbe69a81eea54b8cba16c5dcc3",
    "rollup100": "5973cd00e066792895055cc646d9636eb5fb473ce2406feb22689f7733e655e2",
    "IRsort": "8653e9a8a4f49ea1ae637226b0311789287c0b987bc5eb1806ea0823f6c82a54",
}

#: Per plan, :func:`actual_digest` of its unoptimized workflow and its
#: optimized plan.
ACTUAL_COSTS = {
    "IR": "ed4252e341c4c9fd967072d3ce61f91621a39b79bfc12f596881fcc4bb832dec",
    "SN": "497e10fcbfcab1ccd79efb5ee17a2e6b0256d6a76949103788d8bd2a432b26bf",
    "LA": "aa85a0c92be3dbcd5887a40e9fdaeba4ce5a9db30a17b3e0e68157bd229ff546",
    "WG": "8b9a8b64d92187224a9fe524ad2fc690221ddc9bb3c17d6dbd6bbb05c5b026f2",
    "BA": "c17b018620e68a984c3790805ac6ae90863ec04181cf0a528693e05ca34adabb",
    "BR": "149d9bfeda0c50de009da1aed5cb4ae66de72872e0180333ca67a466fb754eee",
    "PJ": "7739d8aa71ced6c45cda5212a5be9784b317bcb1667ea4760eb783f060b17c96",
    "US": "1ee8d33033464e361cfbb08dbfc81e9d1f828c3aa054ceb0f3f71d86e63e399e",
    "fanout32": "a3e2b354f8cf238b5f5638ad9f84f38b0f9f7e9ae3eccc1a74377241ca3bfd2b",
    "rollup31": "512d918d1cfff4ed06b52f4bdf6c1d19d63290c7219e22dfb0bb2b2edb9f85d7",
    "rollup100": "9926e8753e253a0f37adc7679f0d70cf6088313ddae2d296aaadfedf2f35dc3a",
    "IRsort": "a7d226d6d920714216775d3a92804023833317a4f22ea6c455edb761f5315e09",
}

#: Per canned plan, :func:`starfish_digest` of a cold ``StarfishOptimizer(cluster)``
#: (re-pinned when Starfish stopped estimating the plan after its last choice:
#: one query fewer per plan, the plan, configs and cost unchanged).
STARFISH = {
    "IR": "d256cab0db6972b3775cea5112fdf795cb2e3a53f0babe583bfc607cc193e5b5",
    "SN": "60275b98eaf92fa62d7baf637af68b38862725337e1132d0ef6e1be2ee1611f5",
    "LA": "3ccc3478b5539b486a0eaf7c45a2233bbea548b3b17228454561f05bd4777fcb",
    "WG": "d73a00d0380a02c18c4da8fea1bdebc1cd5da4d1ad1872f83ddd6e5c40873ae3",
    "BA": "c03748cc05f0f29184aa8df8e6ae114bdda21131925c17a77cc421d94ce0f79b",
    "BR": "f019c49fc74416345d98820ce56c8459a0e8332f5652a2e9df920a72a11fb018",
    "PJ": "f83706dcbe7cf033fcbb05230e702e378b58cdf9f01e9f6f1cd39050e80976b1",
    "US": "eff9c5bde0a1721cf05c014d9bc54fcf252f488d7184a0987e0b2b5a4c01bde5",
}

HASH_SEEDS = ("0", "3")

#: The ``cold_wide`` DAGs (bench/common.py: ``WIDE_SHAPES``, ``WIDE_DAG_SEED``).
WIDE_SHAPES = (
    ("fanout32", "wide_fanout", {"num_jobs": 32}),
    ("rollup31", "telemetry_rollup", {"num_channels": 26, "fanin": 8}),
    ("rollup100", "telemetry_rollup", {"num_channels": 88, "fanin": 8}),
)


#: The eight canned workloads' labels.
CANNED = ("IR", "SN", "LA", "WG", "BA", "BR", "PJ", "US")


def _plans():
    """``(label, plan)`` of the twelve pinned plans, profiled."""
    for label in GOLDEN:
        yield label, plan_of(label)


def plan_of(label):
    """The pinned plan ``label``, profiled."""
    return _profiled(label)[0]


def _profiled(label):
    """``(plan, workflow, base datasets, profiling result)`` of plan ``label``."""
    from repro.profiler import Profiler
    from repro.verification import RandomWorkflowGenerator
    from repro.workloads import build_workload

    wide = {shape[0]: (offset, shape) for offset, shape in enumerate(WIDE_SHAPES)}
    if label == "IRsort":
        built = build_workload("IR", scale=0.15)
        _secondary_sort(built.workflow)
    elif label not in wide:
        built = build_workload(label, scale=0.15)
    else:
        offset, (_, method, shape) = wide[label]
        generator = RandomWorkflowGenerator().with_config(records_per_dataset=60, profile=False)
        built = getattr(generator, method)(1 + offset, **shape)
    profiling = Profiler().profile_workflow(built.workflow, built.base_datasets)
    return built.plan, built.workflow, built.base_datasets, profiling


def _secondary_sort(workflow):
    """Rebind IR's ``IR_J2`` to a secondary sort: its map keys on ``(doc, word)``,
    its reduce still groups on ``doc``, and an explicit hash partitioner on
    ``doc`` sorts each partition on ``(doc, word)`` — so the engine must build
    each group key from the group fields, not take the entry's sort key."""
    import dataclasses

    from repro.mapreduce.partitioner import PartitionFunction
    from repro.mapreduce.pipeline import map_operator
    from repro.workflow.annotations import SchemaAnnotation
    from repro.workloads import common

    def rebind(job):
        (pipeline,) = job.pipelines
        keyed = common.key_by(["doc", "word"], value_fields=["word", "tf"])
        wide = map_operator("IR_J2.map", keyed, cpu_cost_per_record=2.0)
        return dataclasses.replace(
            job,
            pipelines=[dataclasses.replace(pipeline, map_ops=[wide])],
            partitioner=PartitionFunction(kind="hash", fields=("doc",), sort_fields=("doc", "word")),
        )

    workflow.update_job("IR_J2", rebind)
    workflow.annotate_job("IR_J2", schema=SchemaAnnotation.of(
        k1=["doc", "word"], v1=["doc", "word", "tf"],
        k2=["doc", "word"], v2=["word", "tf"],
        k3=["doc"], v3=["word", "tf", "doc_total"],
    ))


def executions(workflow, base_datasets, optimized):
    """``(workflow, execution, filesystem)`` of the unoptimized ``workflow`` and
    then the ``optimized`` plan's workflow, each executed once over ``base_datasets``."""
    from repro.workflow.executor import WorkflowExecutor

    return [
        (target, *WorkflowExecutor().execute(target, base_datasets=base_datasets))
        for target in (workflow, optimized.workflow)
    ]


def engine_digest(executed, profiling):
    """sha256 of the ``repr`` of what the local engine counted for one plan.

    That is, for each of the two :func:`executions`: every job's name, whole
    ``ExecutionCounters`` (operators and key cardinalities included) and
    ``per_output_records``; then ``profiling``'s job profiles and dataset
    annotations.
    """
    counted = [
        [
            (name, job.counters, job.per_output_records)
            for name, job in execution.job_results.items()
        ]
        for _, execution, _ in executed
    ]
    pinned = (counted, profiling.job_profiles, profiling.dataset_annotations)
    return hashlib.sha256(repr(pinned).encode()).hexdigest()


def actual_digest(executed, cluster):
    """sha256 of the ``repr`` of what the judge (``ActualCostModel``) prices
    each of the two :func:`executions` at: its ``total_s``, then per job by
    name ``(name, num_map_tasks, num_reduce_tasks, total_s)``."""
    from repro.whatif import ActualCostModel

    judge = ActualCostModel(cluster)
    priced = []
    for workflow, execution, filesystem in executed:
        actual = judge.workflow_cost(workflow, execution, filesystem)
        priced.append((actual.total_s, [
            (name, job.num_map_tasks, job.num_reduce_tasks, job.total_s)
            for name, job in sorted(actual.per_job.items())
        ]))
    return hashlib.sha256(repr(priced).encode()).hexdigest()


def starfish_digest(result):
    """sha256 of the ``repr`` of a Starfish result: its plan's ``signature()``,
    each job's whole ``JobConfig.key`` by name, ``estimated_cost_s`` and
    ``cost_stats`` (as :data:`COST_STATS_FIELDS`)."""
    configs = sorted((vertex.name, vertex.job.config.key) for vertex in result.plan.workflow.jobs)
    stats = [getattr(result.cost_stats, name) for name in COST_STATS_FIELDS]
    pinned = (result.plan.signature(), configs, result.estimated_cost_s, stats)
    return hashlib.sha256(repr(pinned).encode()).hexdigest()


def compute():
    """``{"digests": ..., "cost_stats": ..., "unit_counters": ...,
    "engine_counters": ..., "actual_costs": ..., "starfish": ...}``, each by plan label."""
    from repro.baselines import StarfishOptimizer
    from repro.cluster import ClusterSpec
    from repro.core.optimizer import StubbyOptimizer

    cluster = ClusterSpec.paper_cluster()
    tables = {
        "digests": {}, "cost_stats": {}, "unit_counters": {}, "engine_counters": {},
        "actual_costs": {}, "starfish": {},
    }
    for label in GOLDEN:
        plan, workflow, base_datasets, profiling = _profiled(label)
        result = StubbyOptimizer(cluster, seed=17).optimize(plan)
        pinned = (result.decision_fingerprint(), result.estimated_cost_s, result.cost_stats.queries)
        tables["digests"][label] = hashlib.sha256(repr(pinned).encode()).hexdigest()
        stats = result.cost_stats
        tables["cost_stats"][label] = [getattr(stats, name) for name in COST_STATS_FIELDS]
        tables["unit_counters"][label] = [
            [
                sum(record.cost_stats.queries for record in report.subplans),
                sum(record.cost_stats.job_cache_hits for record in report.subplans),
                sum(record.cost_stats.job_full_recosts for record in report.subplans),
                sum(record.rrs_evaluations for record in report.subplans),
            ]
            for report in result.unit_reports
        ]
        executed = executions(workflow, base_datasets, result.plan)
        tables["engine_counters"][label] = engine_digest(executed, profiling)
        tables["actual_costs"][label] = actual_digest(executed, cluster)
        if label in CANNED:
            tables["starfish"][label] = starfish_digest(StarfishOptimizer(cluster).optimize(workflow))
    return tables


def _as_json(value):
    # A pinned value as it reads back from the script's JSON (tuples are lists).
    return json.loads(json.dumps(value))


#: The pinned tables, as :func:`compute` returns them.
PINNED = {
    "digests": GOLDEN,
    "cost_stats": COST_STATS,
    "unit_counters": UNIT_COUNTERS,
    "engine_counters": ENGINE_COUNTERS,
    "actual_costs": ACTUAL_COSTS,
    "starfish": STARFISH,
}


def run_script_under(hash_seed, script, *args):
    """Standard output of ``script`` (given ``args``) in a fresh interpreter under ``hash_seed``."""
    # No STUBBY_* variable reaches the child: a warm-start file would turn
    # searched units into replays and move the query count.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STUBBY_")}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.abspath(script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return done.stdout


#: The tables whose missed rows ``--check`` prints as ``pinned -> computed``.
COUNTER_TABLES = ("cost_stats", "unit_counters")


if __name__ == "__main__":
    tables = compute()
    print(json.dumps(tables))
    if "--check" in sys.argv[1:]:
        missed = [
            (table, label)
            for table, pinned in PINNED.items()
            for label in (CANNED if table == "starfish" else GOLDEN)
            if tables[table].get(label) != _as_json(pinned.get(label))
        ]
        matched = (
            f"all {len(GOLDEN)} match GOLDEN, COST_STATS, UNIT_COUNTERS, ENGINE_COUNTERS "
            f"and ACTUAL_COSTS, and all {len(CANNED)} STARFISH"
        )
        labels = [f"{table}:{label}" for table, label in missed]
        verdict = f"misses {labels}" if missed else matched
        print(sys.version.split()[0], verdict, file=sys.stderr)
        for table, label in missed:
            if table in COUNTER_TABLES:
                pinned = _as_json(PINNED[table].get(label))
                print(f"  {table}:{label} {pinned} -> {tables[table][label]}", file=sys.stderr)
        sys.exit(1 if missed else 0)
