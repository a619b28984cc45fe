"""Property tests for the incremental topology index (see ISSUE 6).

The contract under test: every structural query of :class:`Workflow` —
``producer_of``/``consumers_of``/``producer_jobs``/``consumer_jobs``/
``base_datasets``/``terminal_datasets``/``intermediate_datasets``/
``depends_on``/``topological_order``/``topological_levels`` — answers from
the incrementally maintained adjacency index with results **bit-identical**
(same elements, same order) to the brute-force scans of
``tests/graph_oracle.py``, after *any* sequence of mutations through the CoW
surface, applied to the original workflow and to structurally shared clones
alike; and the incrementally maintained index always equals a from-scratch
rebuild over the current job table.
"""

import random

import pytest

from repro.cluster import ClusterSpec
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import simple_job
from repro.verification import RandomWorkflowGenerator
from repro.whatif.model import WhatIfEngine
from repro.workflow.annotations import JobAnnotations
from repro.workflow.graph import TOPOLOGY_COUNTERS, Workflow, _TopologyIndex
from tests import graph_oracle as oracle


def _identity(key, value):
    yield {}, dict(value)


def _chain_job(name, inputs, output, reduce_key=None):
    return simple_job(
        name,
        inputs,
        output,
        _identity,
        reduce_fn=(lambda key, values: iter([(key, values[0])])) if reduce_key else None,
        group_fields=(reduce_key,) if reduce_key else (),
        config=JobConfig(num_reduce_tasks=2 if reduce_key else 0),
    )


def _snapshot(workflow):
    """Every structural answer of a workflow, as plain comparable data."""
    dataset_names = [d.name for d in workflow.datasets]
    job_names = workflow.job_names
    producer = {
        name: (workflow.producer_of(name).name if workflow.producer_of(name) else None)
        for name in dataset_names
    }
    consumers = {name: [c.name for c in workflow.consumers_of(name)] for name in dataset_names}
    upstream = {name: [p.name for p in workflow.producer_jobs(name)] for name in job_names}
    downstream = {name: [c.name for c in workflow.consumer_jobs(name)] for name in job_names}
    depends = {
        (a, b): workflow.depends_on(a, b) for a in job_names for b in job_names
    }
    return {
        "producer": producer,
        "consumers": consumers,
        "upstream": upstream,
        "downstream": downstream,
        "base": [d.name for d in workflow.base_datasets()],
        "terminal": [d.name for d in workflow.terminal_datasets()],
        "intermediate": [d.name for d in workflow.intermediate_datasets()],
        "order": [v.name for v in workflow.topological_order()],
        "levels": [[v.name for v in level] for level in workflow.topological_levels()],
        "depends": depends,
    }


def _scan_snapshot(workflow):
    """The same answers derived exclusively through the brute-force oracle."""
    dataset_names = [d.name for d in workflow.datasets]
    job_names = workflow.job_names
    producer = {
        name: (
            oracle.producer_of(workflow, name).name
            if oracle.producer_of(workflow, name)
            else None
        )
        for name in dataset_names
    }
    consumers = {
        name: [c.name for c in oracle.consumers_of(workflow, name)] for name in dataset_names
    }
    upstream = {
        name: [p.name for p in oracle.producer_jobs(workflow, name)] for name in job_names
    }
    downstream = {
        name: [c.name for c in oracle.consumer_jobs(workflow, name)] for name in job_names
    }
    depends = {
        (a, b): oracle.depends_on(workflow, a, b) for a in job_names for b in job_names
    }
    return {
        "producer": producer,
        "consumers": consumers,
        "upstream": upstream,
        "downstream": downstream,
        "base": [d.name for d in oracle.base_datasets(workflow)],
        "terminal": [d.name for d in oracle.terminal_datasets(workflow)],
        "intermediate": [d.name for d in oracle.intermediate_datasets(workflow)],
        "order": [v.name for v in oracle.topological_order(workflow)],
        "levels": [[v.name for v in level] for level in oracle.topological_levels(workflow)],
        "depends": depends,
    }


def _assert_index_consistent(workflow):
    """Indexed answers == oracle scans, and the index == a fresh rebuild."""
    assert _snapshot(workflow) == _scan_snapshot(workflow)
    maintained = workflow._topology()
    rebuilt = _TopologyIndex.build(workflow._jobs)
    assert maintained.producers == rebuilt.producers
    assert maintained.consumers == rebuilt.consumers
    # Relative order of the maintained keys must equal job insertion order.
    keys = maintained.order_keys
    assert sorted(keys, key=keys.__getitem__) == workflow.job_names


def _build_base(num_jobs=6):
    workflow = Workflow("prop")
    workflow.add_job(_chain_job("J0", "SRC", "D0", reduce_key="k"))
    for index in range(1, num_jobs):
        workflow.add_job(_chain_job(f"J{index}", f"D{index - 1}", f"D{index}"))
    return workflow


class TestRandomMutationSequences:
    """Any mutation sequence, on the original and CoW clones alike."""

    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_index_equals_rebuild_after_random_mutations(self, seed):
        rng = random.Random(seed)
        workflows = [_build_base(num_jobs=rng.randint(3, 7))]
        counter = [100 * seed]

        def fresh_name(prefix):
            counter[0] += 1
            return f"{prefix}{counter[0]}"

        def op_add(w):
            inputs = rng.choice([d.name for d in w.datasets])
            w.add_job(_chain_job(fresh_name("A"), inputs, fresh_name("out")))

        def op_remove(w):
            if w.num_jobs <= 1:
                return
            w.remove_job(rng.choice(w.job_names))

        def op_replace(w):
            victim = rng.choice(w.job_names)
            old = w.job(victim).job
            # Reading the victim's own inputs keeps the graph acyclic.
            output = rng.choice([old.output_datasets[0], fresh_name("rep")])
            w.replace_job(victim, _chain_job(fresh_name("R"), old.input_datasets, output))

        def op_update_config(w):
            name = rng.choice(w.job_names)
            w.update_job(
                name,
                lambda job: job.with_config(
                    job.config.replace(num_reduce_tasks=rng.randint(0, 6))
                ),
            )

        def op_update_edges(w):
            name = rng.choice(w.job_names)
            base = [d.name for d in w.base_datasets()]
            if not base:
                return
            new_input = rng.choice(base)
            old = w.job(name).job
            w.update_job(
                name, lambda job: _chain_job(name, new_input, old.output_datasets[0])
            )

        def op_annotate(w):
            name = rng.choice(w.job_names)
            conditions = {**w.job(name).annotations.conditions, fresh_name("c"): True}
            w.annotate_job(name, conditions=conditions)

        def op_prune(w):
            w.prune_orphan_datasets()

        def op_copy(w):
            if len(workflows) < 4:
                workflows.append(w.copy())

        ops = [
            op_add, op_add, op_remove, op_replace, op_update_config,
            op_update_edges, op_annotate, op_prune, op_copy,
        ]
        for _ in range(30):
            target = rng.choice(workflows)
            rng.choice(ops)(target)
            _assert_index_consistent(target)
        for workflow in workflows:
            _assert_index_consistent(workflow)

    @pytest.mark.parametrize("seed", (11, 23))
    def test_generated_workflows_agree_with_scans(self, seed):
        generator = RandomWorkflowGenerator().with_config(
            min_jobs=6, max_jobs=10, profile=False
        )
        _assert_index_consistent(generator.generate(seed).workflow)
        _assert_index_consistent(generator.diamond_shared_sink(seed).workflow)
        _assert_index_consistent(generator.wide_fanout(seed, num_jobs=20).workflow)
        _assert_index_consistent(
            generator.telemetry_rollup(seed, num_channels=20, fanin=6).workflow
        )


#: The wide input of the counter contracts: a ~100-job telemetry rollup (88
#: fan-out channels into staged fan-in rollups), where a per-candidate
#: rebuild would cost a full pass over the job table.
def _build_wide():
    generator = RandomWorkflowGenerator().with_config(profile=False, records_per_dataset=60)
    return generator.telemetry_rollup(99, num_channels=88, fanin=8).workflow


BUILDERS = pytest.mark.parametrize(
    "build", (_build_base, _build_wide), ids=("chain6", "rollup100")
)


class TestCounterContracts:
    """The index is built once, updated incrementally, shared across CoW."""

    @BUILDERS
    def test_config_only_mutations_keep_the_cached_topology(self, build):
        workflow = build()
        names = workflow.job_names
        workflow.topological_levels()  # build index + caches
        TOPOLOGY_COUNTERS.reset()
        clone = workflow.copy()
        clone.topological_levels()  # shared warm cache
        clone.update_job(
            names[2], lambda job: job.with_config(job.config.replace(num_reduce_tasks=5))
        )
        clone.annotate_job(names[3], conditions={"x": True})
        clone.topological_levels()
        clone.topological_order()
        # The cached order answers every walk; nothing else moves.
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot == {**dict.fromkeys(snapshot, 0), "toposort_cache_hits": 3}

    @BUILDERS
    def test_structural_mutation_privatizes_and_updates_incrementally(self, build):
        workflow = build()
        names = workflow.job_names
        workflow.topological_levels()
        TOPOLOGY_COUNTERS.reset()
        clone = workflow.copy()
        old = clone.job(names[2]).job
        clone.replace_job(
            names[2], _chain_job(f"{names[2]}b", old.input_datasets, old.output_datasets[0])
        )
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot["index_copies"] == 1  # privatized once...
        assert snapshot["incremental_updates"] == 1  # ...then patched in place
        assert snapshot["index_builds"] == 0  # never rebuilt from scratch
        feed = clone.job(names[-2]).job.output_datasets[0]
        clone.remove_job(names[-1])
        clone.add_job(_chain_job("Jextra", feed, "Dextra"))
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot["index_copies"] == 1  # already private: no more copies
        assert snapshot["incremental_updates"] == 3
        # The clone re-sorts; the original's cached topology is untouched.
        clone.topological_order()
        workflow.topological_order()
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot["toposort_builds"] == 1
        assert snapshot["toposort_cache_hits"] == 1
        _assert_index_consistent(clone)
        _assert_index_consistent(workflow)

    @BUILDERS
    def test_costing_a_candidate_does_not_rebuild_the_index(self, build):
        """The search hot loop: copy, reconfigure one job, re-walk topology."""
        workflow = build()
        names = workflow.job_names
        workflow.topological_levels()
        TOPOLOGY_COUNTERS.reset()
        for sample in range(10):
            candidate = workflow.copy()
            candidate.update_job(
                names[sample % len(names)],
                lambda job: job.with_config(job.config.replace(num_reduce_tasks=sample + 1)),
            )
            candidate.topological_levels()
            candidate.base_datasets()
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot["index_builds"] == 0
        assert snapshot["index_copies"] == 0
        assert snapshot["toposort_builds"] == 0
        assert snapshot["toposort_cache_hits"] == 10

    # Total jobs = channels + ceil(channels / 8) + 1 grand rollup (skipped
    # when a single rollup suffices): 10, 31, 100, 298, 996.
    @pytest.mark.parametrize("channels", (8, 26, 88, 264, 884))
    def test_warm_costing_queries_never_walk_the_graph(self, channels):
        """Zero from-scratch index or toposort builds over three costing
        queries on a warm workflow, at every width: every structural answer
        comes from the index.  The time this buys is
        ``workflow.graph.index_copies`` / ``.toposort_builds`` next to
        ``optimize_sweep_s`` on ``cold_wide`` (``bench/README.md``)."""
        generator = RandomWorkflowGenerator().with_config(records_per_dataset=60)
        workflow = generator.telemetry_rollup(
            4242 + channels, num_channels=channels, fanin=8
        ).workflow
        engine = WhatIfEngine(ClusterSpec.paper_cluster())
        workflow.topological_levels()  # warm the index + caches
        TOPOLOGY_COUNTERS.reset()
        for _ in range(3):
            engine.estimate_workflow(workflow)
        assert TOPOLOGY_COUNTERS.snapshot()["index_queries"] > 0
        assert TOPOLOGY_COUNTERS.scan_equivalents() == 0
