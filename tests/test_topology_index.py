"""Property tests for the topology index.

The contract under test: every structural query of :class:`Workflow` —
``producer_of``/``consumers_of``/``producer_jobs``/``consumer_jobs``/
``base_datasets``/``terminal_datasets``/``intermediate_datasets``/
``depends_on``/``topological_order``/``topological_levels``/
``job_adjacency`` — answers from
the adjacency index with results **bit-identical** (same elements, same
order) to the brute-force scans of ``tests/graph_oracle.py``, after *any*
sequence of edits, applied to the original workflow and to clones sharing
its index alike.  The index is built in one pass and never edited: copies
share it, an edit that moves an edge drops it, and the next structural query
rebuilds it.
"""

import random

import pytest

from repro.cluster import ClusterSpec
from repro.common.errors import WorkflowValidationError
from repro.mapreduce.config import JobConfig
from repro.mapreduce.job import simple_job
from repro.verification import RandomWorkflowGenerator
from repro.whatif.model import WhatIfEngine
from repro.workflow.annotations import JobAnnotations
from repro.workflow.graph import TOPOLOGY_COUNTERS, Workflow
from tests import graph_oracle as oracle
from tests.conftest import diamond_shared_sink


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
    adjacency = workflow.job_adjacency()
    return {
        "producer": producer,
        "consumers": consumers,
        "upstream": upstream,
        "downstream": downstream,
        "adjacency": (
            list(adjacency.order),
            {name: list(names) for name, names in adjacency.upstream.items()},
            {name: list(names) for name, names in adjacency.downstream.items()},
        ),
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
    order = [v.name for v in oracle.topological_order(workflow)]
    return {
        "producer": producer,
        "consumers": consumers,
        "upstream": upstream,
        "downstream": downstream,
        "adjacency": (order, upstream, downstream),
        "base": [d.name for d in oracle.base_datasets(workflow)],
        "terminal": [d.name for d in oracle.terminal_datasets(workflow)],
        "intermediate": [d.name for d in oracle.intermediate_datasets(workflow)],
        "order": order,
        "levels": [[v.name for v in level] for level in oracle.topological_levels(workflow)],
        "depends": depends,
    }


def _assert_index_consistent(workflow):
    """Indexed answers == oracle scans, and ``order`` == job-dict positions."""
    assert _snapshot(workflow) == _scan_snapshot(workflow)
    order = workflow._topology().order
    assert list(order.items()) == [(name, i) for i, name in enumerate(workflow.job_names)]


def _build_base(num_jobs=6):
    workflow = Workflow("prop")
    workflow.add_job(_chain_job("J0", "SRC", "D0", reduce_key="k"))
    for index in range(1, num_jobs):
        workflow.add_job(_chain_job(f"J{index}", f"D{index - 1}", f"D{index}"))
    return workflow


class TestRandomMutationSequences:
    """Any mutation sequence, on the original and index-sharing clones alike."""

    @pytest.mark.parametrize("seed", range(8))
    def test_indexed_answers_equal_the_oracle_after_random_mutations(self, seed):
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
        _assert_index_consistent(diamond_shared_sink(generator, seed).workflow)
        _assert_index_consistent(generator.wide_fanout(seed, num_jobs=20).workflow)
        _assert_index_consistent(
            generator.telemetry_rollup(seed, num_channels=20, fanin=6).workflow
        )


def _generated_dags(seed):
    generator = RandomWorkflowGenerator().with_config(min_jobs=6, max_jobs=10, profile=False)
    return (
        generator.generate(seed).workflow,
        diamond_shared_sink(generator, seed).workflow,
        generator.wide_fanout(seed, num_jobs=20).workflow,
        generator.telemetry_rollup(seed, num_channels=20, fanin=6).workflow,
    )


def _assert_depends_on_equals_the_oracle(workflow):
    names = workflow.job_names
    ours = {(a, b): workflow.depends_on(a, b) for a in names for b in names}
    assert ours == {(a, b): oracle.depends_on(workflow, a, b) for a in names for b in names}
    assert any(ours.values()) or len(names) < 2 or not workflow.intermediate_datasets()


class TestAncestorTable:
    """``depends_on`` answers from an ancestor table the index fills at the
    first call: equal to the upward walk of ``tests/graph_oracle.py`` for
    every pair, shared by copies like the cached order, and gone with the
    index an edge-moving edit drops."""

    @pytest.mark.parametrize("seed", (5, 11, 23))
    def test_every_pair_equals_the_oracle_before_and_after_edge_moving_edits(self, seed):
        rng = random.Random(seed)
        for workflow in _generated_dags(seed):
            _assert_depends_on_equals_the_oracle(workflow)
            for step in range(6):
                names = workflow.job_names
                edit = step % 3
                if edit == 0 and len(names) > 2:
                    workflow.remove_job(rng.choice(names))
                elif edit == 1:
                    # Rewired onto a base input: every edge into the job moves.
                    victim = rng.choice(names)
                    old = workflow.job(victim).job
                    source = rng.choice([d.name for d in workflow.base_datasets()])
                    workflow.replace_job(
                        victim, _chain_job(f"R{step}", source, old.output_datasets[0])
                    )
                else:
                    feed = rng.choice([d.name for d in workflow.datasets])
                    workflow.add_job(_chain_job(f"A{step}", feed, f"out{seed}_{step}"))
                assert workflow._topo_index is None
                _assert_depends_on_equals_the_oracle(workflow)

    def test_a_copy_reads_the_table_and_an_edge_moving_edit_drops_it(self):
        workflow = _build_wide()
        names = workflow.job_names
        assert workflow.depends_on(names[-1], names[0]) == oracle.depends_on(
            workflow, names[-1], names[0]
        )
        table = workflow._topo_index.ancestors
        assert table is not None
        TOPOLOGY_COUNTERS.reset()
        clone = workflow.copy()
        _assert_depends_on_equals_the_oracle(clone)
        # Read through the copy: the same table, nothing built or sorted.
        assert clone._topo_index.ancestors is table
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot["index_builds"] == snapshot["toposort_builds"] == 0
        clone.remove_job(names[-1])
        assert clone._topo_index is None and workflow._topo_index.ancestors is table
        _assert_depends_on_equals_the_oracle(clone)
        assert clone._topo_index.ancestors is not table
        assert TOPOLOGY_COUNTERS.snapshot()["index_builds"] == 1
        _assert_depends_on_equals_the_oracle(workflow)

    def test_the_job_adjacency_table_is_built_once_per_index_and_shared(self):
        workflow = _build_wide()
        table = workflow.job_adjacency()
        TOPOLOGY_COUNTERS.reset()
        assert workflow.job_adjacency() is table
        assert [v.name for v in workflow.topological_order()] == table.order
        clone = workflow.copy()
        clone.update_job(
            table.order[3], lambda job: job.with_config(job.config.replace(num_reduce_tasks=9))
        )
        # A config-only rebind keeps the index, and the copy reads the same table.
        assert clone.job_adjacency() is table
        assert TOPOLOGY_COUNTERS.snapshot()["toposort_builds"] == 0
        clone.remove_job(table.order[-1])
        rebuilt = clone.job_adjacency()
        assert rebuilt is not table and workflow.job_adjacency() is table
        assert TOPOLOGY_COUNTERS.snapshot()["toposort_builds"] == 1
        assert list(rebuilt.upstream) == clone.job_names == list(rebuilt.downstream)
        _assert_index_consistent(clone)

    def test_an_unknown_consumer_raises_and_an_unknown_producer_is_no_ancestor(self):
        workflow = _build_base()
        with pytest.raises(WorkflowValidationError, match="job 'nope' not in workflow"):
            workflow.depends_on("nope", "J0")
        assert workflow.depends_on("J3", "J0") and not workflow.depends_on("J0", "J3")
        assert not workflow.depends_on("J3", "nope")


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
    """The index is built once per edge structure and shared across copies."""

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
    def test_a_structural_edit_drops_the_index_and_one_query_rebuilds_it(self, build):
        workflow = build()
        names = workflow.job_names
        workflow.topological_levels()
        TOPOLOGY_COUNTERS.reset()
        clone = workflow.copy()
        assert clone._topo_index is workflow._topo_index
        old = clone.job(names[2]).job
        clone.replace_job(
            names[2], _chain_job(f"{names[2]}b", old.input_datasets, old.output_datasets[0])
        )
        feed = clone.job(names[-2]).job.output_datasets[0]
        clone.remove_job(names[-1])
        clone.add_job(_chain_job("Jextra", feed, "Dextra"))
        # Three edits: the clone dropped its reference, nothing was built.
        assert clone._topo_index is None and workflow._topo_index is not None
        assert TOPOLOGY_COUNTERS.snapshot()["index_builds"] == 0
        # The clone's next query rebuilds once and re-sorts once; the
        # original still answers from its cached order.
        clone.topological_order()
        workflow.topological_order()
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot["index_builds"] == 1
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
        ``workflow.graph.toposort_builds`` next to ``optimize_sweep_s`` on
        ``cold_wide`` (``bench/README.md``)."""
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
        snapshot = TOPOLOGY_COUNTERS.snapshot()
        assert snapshot["index_builds"] + snapshot["toposort_builds"] == 0
