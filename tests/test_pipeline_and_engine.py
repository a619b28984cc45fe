"""Tests for the operator pipeline machinery and the local MapReduce engine."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.common.hashing import stable_hash
from repro.dfs import DataLayout, Dataset, InMemoryFileSystem, PartitionScheme
from repro.dfs import dataset as dataset_module
from repro.mapreduce import (
    JobConfig,
    LocalEngine,
    MapReduceJob,
    PartitionFunction,
    Pipeline,
    map_operator,
    reduce_operator,
)
from repro.mapreduce import engine as engine_module
from repro.mapreduce import partitioner as partitioner_module
from repro.mapreduce.job import simple_job
from repro.mapreduce.pipeline import (
    OperatorStats,
    run_map_chain,
    run_reduce_chain,
)
from repro.profiler import Profiler
from repro.verification import RandomWorkflowGenerator
from repro.whatif import ActualCostModel
from repro.workflow.executor import WorkflowExecutor
from repro.workflow.graph import Workflow
from repro.workloads import WORKLOAD_ORDER, build_workload
from tests import engine_oracle, key_oracle


def word_map(key, value):
    for word in str(value.get("text", "")).split():
        yield {"word": word}, {"n": 1.0}


def count_reduce(key, values):
    yield key, {"count": float(sum(v.get("n", 0) for v in values))}


def count_combine(key, values):
    yield key, {"n": float(sum(v.get("n", 0) for v in values))}


def _word_dataset(texts):
    return Dataset("docs", records=[{"text": t} for t in texts])


def _wordcount_job(config=None, combiner=None):
    return simple_job(
        name="wordcount",
        input_dataset="docs",
        output_dataset="counts",
        map_fn=word_map,
        reduce_fn=count_reduce,
        group_fields=("word",),
        combiner=combiner,
        config=config or JobConfig(num_reduce_tasks=3),
    )


class TestOperators:
    def test_reduce_operator_requires_group_fields(self):
        with pytest.raises(ValueError):
            reduce_operator("r", count_reduce, group_fields=[])

    def test_invalid_kind_rejected(self):
        from repro.mapreduce.pipeline import Operator

        with pytest.raises(ValueError):
            Operator(name="x", kind="shuffle", fn=word_map)

    def test_negative_cpu_cost_rejected(self):
        with pytest.raises(ValueError):
            map_operator("m", word_map, cpu_cost_per_record=-1)


class TestPipelineValidation:
    def test_requires_inputs_and_output(self):
        with pytest.raises(ValueError):
            Pipeline(tag="t", input_datasets=(), map_ops=[], output_dataset="o")
        with pytest.raises(ValueError):
            Pipeline(tag="t", input_datasets=("a",), map_ops=[], output_dataset="")

    def test_map_only_and_group_fields(self):
        pipeline = Pipeline(
            tag="t",
            input_datasets=("a",),
            map_ops=[map_operator("m", word_map)],
            reduce_ops=[reduce_operator("r", count_reduce, ("word",))],
            output_dataset="o",
        )
        assert not pipeline.is_map_only
        assert pipeline.shuffle_group_fields == ("word",)
        assert pipeline.reads("a") and not pipeline.reads("b")


class TestJobDerivedFacts:
    """What follows from a frozen job's fields is worked out once per job."""

    FACTS = ("is_map_only", "input_datasets", "output_datasets", "has_combiner",
             "effective_partitioner", "shape_key")

    def test_two_reads_return_the_same_object(self):
        job = _wordcount_job(combiner=count_combine)
        for name in self.FACTS:
            assert getattr(job, name) is getattr(job, name), name
        assert job.effective_partitioner == PartitionFunction.default_hash(["word"])
        assert (job.input_datasets, job.output_datasets) == (("docs",), ("counts",))
        assert job.has_combiner and not job.is_map_only

    def test_with_config_shares_what_the_pipelines_decide_and_nothing_else(self):
        job = _wordcount_job(combiner=count_combine)
        facts = {name: getattr(job, name) for name in self.FACTS}
        chained = job.with_config(job.config.replace(max_parallel_maps_per_producer_reduce=1))
        for name, value in facts.items():
            assert getattr(chained, name) is value, name
        assert chained.structure_key == job.shape_key + (True,) != job.structure_key
        # Nothing was read on this one: the derived job works it out itself.
        unread = _wordcount_job()
        assert unread.with_config(JobConfig(num_reduce_tasks=5)).input_datasets == ("docs",)

    def test_with_partitioner_does_not_inherit_a_stale_effective_partitioner(self):
        job = _wordcount_job()
        default = job.effective_partitioner
        before = job.structure_key
        ranged = PartitionFunction(kind="range", fields=("word",), split_points=(1.0,))
        derived = job.with_partitioner(ranged)
        assert derived.effective_partitioner is ranged is not default
        assert derived.structure_key[2:6] == ranged.key != before[2:6]
        assert dataclasses.replace(job, partitioner=ranged).effective_partitioner is ranged
        assert job.effective_partitioner is default and job.structure_key == before


class TestChains:
    def test_map_chain_counts_records(self):
        stats = OperatorStats()
        op = map_operator("m", word_map)
        out = list(run_map_chain([op], [({}, {"text": "a b a"})], stats))
        assert len(out) == 3
        assert stats.records_in["m"] == 1
        assert stats.records_out["m"] == 3

    def test_map_chain_merges_key_into_record(self):
        def project_map(key, value):
            yield {"k": value.get("k")}, {"v": value.get("v")}

        def downstream_map(key, value):
            # The downstream stage must see the upstream key field in its record.
            assert value.get("k") is not None
            yield key, {"seen": value["k"]}

        out = list(
            run_map_chain(
                [map_operator("a", project_map), map_operator("b", downstream_map)],
                [({}, {"k": 7, "v": 1})],
            )
        )
        assert out[0][1]["seen"] == 7

    def test_grouped_reduce_in_map_chain_groups_consecutive(self):
        op = reduce_operator("r", count_reduce, ("word",))
        pairs = [
            ({"word": "a"}, {"n": 1.0}),
            ({"word": "a"}, {"n": 1.0}),
            ({"word": "b"}, {"n": 1.0}),
        ]
        out = list(run_map_chain([op], pairs))
        assert ({"word": "a"}, {"count": 2.0}) == (out[0][0], out[0][1])
        assert out[1][1]["count"] == 1.0

    def test_reduce_chain_requires_reduce_first(self):
        from repro.common.errors import ExecutionError

        with pytest.raises(ExecutionError):
            list(run_reduce_chain([map_operator("m", word_map)], []))

    def test_reduce_chain_with_downstream_stage(self):
        def rescale_map(key, value):
            yield key, {"count": value["count"] * 10}

        chain = [
            reduce_operator("r", count_reduce, ("word",)),
            map_operator("m", rescale_map),
        ]
        groups = [({"word": "a"}, [{"n": 1.0}, {"n": 1.0}])]
        out = list(run_reduce_chain(chain, groups))
        assert out[0][1]["count"] == 20.0


class TestOperatorCountOrder:
    """An operator's entries are made at its first record in and its first
    record out, whatever stage adds the counts; an operator that saw no
    record, or produced none, has no entry."""

    @staticmethod
    def _pairs():
        return [({}, {"k": float(i // 3), "v": float(i)}) for i in range(9)]

    @staticmethod
    def _late_map(name, skip):
        """A map that drops its first ``skip`` records."""
        def fn(key, value):
            if value["v"] >= skip:
                yield {"k": value["k"]}, {"v": value["v"]}

        return map_operator(name, fn)

    @staticmethod
    def _sum_reduce(name):
        def fn(key, values):
            yield key, {"v": float(sum(v["v"] for v in values))}

        return reduce_operator(name, fn, ("k",))

    def test_a_map_chain_counts_in_first_record_order(self):
        stats = OperatorStats()
        chain = [self._late_map("m", 4), self._sum_reduce("r")]
        out = list(run_map_chain(chain, self._pairs(), stats))
        assert [value["v"] for _, value in out] == [9.0, 21.0]
        assert list(stats.records_in.items()) == [("m", 9), ("r", 5)]
        assert list(stats.records_out.items()) == [("m", 5), ("r", 2)]

    def test_a_reduce_chain_counts_in_first_record_order(self):
        stats = OperatorStats()
        groups = [({"k": 1.0}, [{"v": 1.0}, {"v": 2.0}]), ({"k": 2.0}, [{"v": 5.0}])]
        chain = [self._sum_reduce("r"), self._late_map("m", 4)]
        out = list(run_reduce_chain(chain, groups, stats))
        assert out == [({"k": 2.0}, {"v": 5.0})]
        assert list(stats.records_in.items()) == [("r", 3), ("m", 2)]
        assert list(stats.records_out.items()) == [("r", 2), ("m", 1)]

    def test_an_operator_with_nothing_in_or_out_has_no_entry(self):
        stats = OperatorStats()
        chain = [self._late_map("drops", 100), self._sum_reduce("starved")]
        assert list(run_map_chain(chain, self._pairs(), stats)) == []
        assert stats.records_in == {"drops": 9} and stats.records_out == {}
        assert list(run_map_chain([self._late_map("idle", 0)], [], stats)) == []
        assert "idle" not in stats.records_in and "idle" not in stats.records_out

    def test_a_later_first_record_comes_later_across_runs_sharing_the_stats(self):
        stats = OperatorStats()
        list(run_map_chain([self._late_map("a", 0)], [], stats))
        list(run_map_chain([self._late_map("b", 0)], self._pairs(), stats))
        list(run_map_chain([self._late_map("a", 0)], self._pairs()[:2], stats))
        assert list(stats.records_in.items()) == [("b", 9), ("a", 2)]
        assert list(stats.records_out.items()) == [("b", 9), ("a", 2)]

    def test_a_stream_closed_early_counts_what_it_read_in_first_record_order(self):
        stats = OperatorStats()
        chain = [self._late_map("first", 0), self._late_map("second", 0)]
        stream = run_map_chain(chain, self._pairs(), stats)
        next(stream), next(stream)
        # Closing runs the last stage's clean-up before the first stage's.
        stream.close()
        del stream
        assert list(stats.records_in.items()) == [("first", 2), ("second", 2)]
        assert list(stats.records_out.items()) == [("first", 2), ("second", 2)]


def _mutating_map(key, record):
    """Edits its key and its record, and passes the record on as the value."""
    key["k"] = "edited"
    record["extra"] = "edited"
    record["text"] = "edited"
    yield {"k": record["k"]}, record


def _mutating_reduce(key, values):
    """Edits its key and every value before summing them."""
    key["k"] = "edited"
    for value in values:
        value["text"] = "edited"
        value.pop("v", None)
    yield {"k": 0.0}, {"n": float(len(values))}


_EDITING_MAP = map_operator("edit.map", _mutating_map)
_EDITING_REDUCE = reduce_operator("edit.reduce", _mutating_reduce, ("k",), combiner=_mutating_reduce)


def _editing_job(name, inputs, map_ops, reduce_ops):
    """One pipeline from ``inputs`` to ``<name>_out``, combining if it reduces."""
    pipeline = Pipeline(name, tuple(inputs), map_ops, reduce_ops, output_dataset=f"{name}_out")
    config = JobConfig(num_reduce_tasks=3 if reduce_ops else 0, combiner_enabled=True)
    return MapReduceJob(name, (pipeline,), config=config)


#: Jobs whose user functions edit everything they are handed.
_EDITING_JOBS = {
    "map_edits_record_and_key": _editing_job("m", ["flat"], (_EDITING_MAP,), (_EDITING_REDUCE,)),
    "leading_map_side_reduce": _editing_job("lr", ["sorted"], (_EDITING_REDUCE, _EDITING_MAP), ()),
    "no_map_op": _editing_job("nm", ["flat", "sorted"], (), (_EDITING_REDUCE,)),
    "no_operator_at_all": _editing_job("none", ["sorted"], (), ()),
    "reduce_edits_values": _editing_job("rv", ["flat"], (_EDITING_MAP,), (_EDITING_REDUCE, _EDITING_MAP)),
}


class TestStoredRecordsAreNeverEdited:
    """Whatever a user function does to what it is handed, no stored record
    changes: a leading map operator merges each stored record into a fresh
    one, and any other chain is handed a copy."""

    @staticmethod
    def _filesystem():
        fs = InMemoryFileSystem()
        records = [{"k": float(i % 7), "text": f"w{i % 5}", "v": float(i)} for i in range(300)]
        fs.put(Dataset("flat", records=records))
        sorted_layout = DataLayout(partitioning=PartitionScheme.hashed("k"), sort_fields=("k",))
        fs.put(Dataset("sorted", records=records, layout=sorted_layout))
        return fs

    @staticmethod
    def _snapshot(fs):
        """Per dataset: each partition's records as text, ``raw_bytes`` and
        the (now cached) content fingerprint."""
        return {
            name: (
                [repr(partition.records) for partition in fs.get(name).partitions],
                fs.get(name).raw_bytes,
                fs.get(name).content_fingerprint,
            )
            for name in sorted(fs._datasets)
        }

    def _assert_unchanged(self, fs, snapshot):
        assert {name: self._snapshot(fs)[name] for name in snapshot} == snapshot
        for name in snapshot:
            key_oracle.assert_statistics_match_a_recount(fs.get(name))

    @pytest.mark.parametrize("label", sorted(_EDITING_JOBS))
    def test_no_stored_record_changes(self, label):
        fs = self._filesystem()
        job = _EDITING_JOBS[label]
        inputs = self._snapshot(fs)
        LocalEngine().execute_job(job, fs)
        self._assert_unchanged(fs, inputs)
        # A job reading the first one's output edits none of it either.
        written = self._snapshot(fs)
        LocalEngine().execute_job(_editing_job("again", [f"{job.name}_out"], (), (_EDITING_REDUCE,)), fs)
        self._assert_unchanged(fs, written)


class TestLocalEngineWordCount:
    def test_wordcount_counts_are_correct(self):
        fs = InMemoryFileSystem()
        fs.put(_word_dataset(["a b a", "b c", "a"]))
        result = LocalEngine().execute_job(_wordcount_job(), fs)
        counts = {r["word"]: r["count"] for r in fs.get("counts").all_records()}
        assert counts == {"a": 3.0, "b": 2.0, "c": 1.0}
        assert result.counters.map_input_records == 3
        assert result.counters.map_output_records == 6
        assert result.counters.reduce_input_groups == 3

    def test_wordcount_key_cardinalities_recorded(self):
        fs = InMemoryFileSystem()
        fs.put(_word_dataset(["a b a", "b c"]))
        result = LocalEngine().execute_job(_wordcount_job(), fs)
        assert result.counters.key_cardinalities[("word",)] == 3

    def test_combiner_reduces_shuffle(self):
        fs = InMemoryFileSystem()
        fs.put(_word_dataset(["a a a a b", "a a b b b"]))
        plain = LocalEngine().execute_job(_wordcount_job(), fs)
        with_combiner = LocalEngine().execute_job(
            _wordcount_job(
                config=JobConfig(num_reduce_tasks=3, combiner_enabled=True),
                combiner=count_combine,
            ),
            fs,
        )
        assert with_combiner.counters.spilled_records < plain.counters.spilled_records
        counts = {r["word"]: r["count"] for r in fs.get("counts").all_records()}
        assert counts == {"a": 6.0, "b": 4.0}

    def test_results_independent_of_reduce_task_count(self):
        fs = InMemoryFileSystem()
        fs.put(_word_dataset(["x y z x", "y z y"]))
        LocalEngine(max_exec_reduce_tasks=1).execute_job(_wordcount_job(), fs)
        single = {r["word"]: r["count"] for r in fs.get("counts").all_records()}
        LocalEngine(max_exec_reduce_tasks=7).execute_job(
            _wordcount_job(config=JobConfig(num_reduce_tasks=7)), fs
        )
        many = {r["word"]: r["count"] for r in fs.get("counts").all_records()}
        assert single == many


class TestLocalEngineShapes:
    def test_map_only_job(self):
        fs = InMemoryFileSystem()
        fs.put(Dataset("numbers", records=[{"x": float(i)} for i in range(10)]))

        def double_map(key, value):
            yield {}, {"x": value["x"] * 2}

        job = simple_job("doubler", "numbers", "doubled", double_map)
        result = LocalEngine().execute_job(job, fs)
        assert job.is_map_only
        assert result.counters.num_reduce_tasks == 0
        assert sorted(r["x"] for r in fs.get("doubled").all_records()) == [float(2 * i) for i in range(10)]

    def test_partition_pruning_skips_partitions(self):
        layout = DataLayout(partitioning=PartitionScheme.ranged("x", [5.0]))
        fs = InMemoryFileSystem()
        fs.put(Dataset("numbers", records=[{"x": float(i)} for i in range(10)], layout=layout))

        def identity_map(key, value):
            yield {}, dict(value)

        job = simple_job("reader", "numbers", "read", identity_map)
        pruned = job.pipelines[0].with_partition_filter("numbers", (0,))
        job = dataclasses.replace(job, pipelines=[pruned])
        result = LocalEngine().execute_job(job, fs)
        assert result.counters.map_input_records == 5
        assert all(r["x"] < 5 for r in fs.get("read").all_records())

    def test_chained_input_uses_one_split_per_partition(self):
        layout = DataLayout(partitioning=PartitionScheme.ranged("x", [5.0]), sort_fields=("x",))
        fs = InMemoryFileSystem()
        fs.put(Dataset("numbers", records=[{"x": float(i)} for i in range(10)], layout=layout))

        def identity_map(key, value):
            yield {}, dict(value)

        job = simple_job(
            "chained",
            "numbers",
            "out",
            identity_map,
            config=JobConfig(num_reduce_tasks=0, max_parallel_maps_per_producer_reduce=1),
        )
        result = LocalEngine().execute_job(job, fs)
        assert result.counters.num_map_tasks == 2

    def test_tagged_multi_pipeline_job_shares_scan(self):
        fs = InMemoryFileSystem()
        fs.put(_word_dataset(["a b", "a c c"]))

        def letter_map(key, value):
            for word in str(value.get("text", "")).split():
                yield {"word": word}, {"n": 1.0}

        def length_map(key, value):
            yield {"len": float(len(str(value.get("text", ""))))}, {"n": 1.0}

        pipelines = [
            Pipeline(
                tag="counts",
                input_datasets=("docs",),
                map_ops=[map_operator("m1", letter_map)],
                reduce_ops=[reduce_operator("r1", count_reduce, ("word",))],
                output_dataset="word_counts",
            ),
            Pipeline(
                tag="lengths",
                input_datasets=("docs",),
                map_ops=[map_operator("m2", length_map)],
                reduce_ops=[reduce_operator("r2", count_reduce, ("len",))],
                output_dataset="length_counts",
            ),
        ]
        job = MapReduceJob(name="packed", pipelines=pipelines, config=JobConfig(num_reduce_tasks=2))
        result = LocalEngine().execute_job(job, fs)
        # Scan sharing: the two-pipeline job reads each input record once.
        assert result.counters.map_input_records == 2
        word_counts = {r["word"]: r["count"] for r in fs.get("word_counts").all_records()}
        assert word_counts == {"a": 2.0, "b": 1.0, "c": 2.0}
        assert fs.get("length_counts").num_records == 2

    def test_forced_single_reduce_sees_all_records(self):
        fs = InMemoryFileSystem()
        fs.put(Dataset("numbers", records=[{"g": 0.0, "x": float(i)} for i in range(20)]))

        def key_map(key, value):
            yield {"g": 0.0}, {"x": value["x"]}

        def top_reduce(key, values):
            best = max(v["x"] for v in values)
            yield key, {"best": best}

        job = simple_job(
            "top",
            "numbers",
            "best",
            key_map,
            top_reduce,
            group_fields=("g",),
            config=JobConfig(num_reduce_tasks=1, forced_single_reduce=True),
        )
        LocalEngine().execute_job(job, fs)
        assert fs.get("best").all_records() == [{"g": 0.0, "best": 19.0}]

    def test_output_layout_reflects_partitioner(self):
        fs = InMemoryFileSystem()
        fs.put(_word_dataset(["a b", "c"]))
        job = _wordcount_job()
        job = job.with_partitioner(
            PartitionFunction(kind="range", fields=("word",), split_points=(1.0,))
        )
        LocalEngine().execute_job(job, fs)
        layout = fs.get("counts").layout
        assert layout.partitioning.kind == "range"
        assert layout.sort_fields == ("word",)


class TestEngineGroupByProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 100)),
            min_size=1,
            max_size=60,
        )
    )
    def test_group_sum_matches_python(self, pairs):
        records = [{"k": float(k), "v": float(v)} for k, v in pairs]
        fs = InMemoryFileSystem()
        fs.put(Dataset("data", records=records))

        def key_map(key, value):
            yield {"k": value["k"]}, {"v": value["v"]}

        def sum_reduce(key, values):
            yield key, {"total": float(sum(v["v"] for v in values))}

        job = simple_job(
            "sums", "data", "sums_out", key_map, sum_reduce, group_fields=("k",),
            config=JobConfig(num_reduce_tasks=4),
        )
        LocalEngine().execute_job(job, fs)
        got = {r["k"]: r["total"] for r in fs.get("sums_out").all_records()}
        expected = {}
        for k, v in pairs:
            expected[float(k)] = expected.get(float(k), 0.0) + float(v)
        assert got == expected


def _pair_bytes(pairs):
    return sum(engine_oracle.record_size_bytes(k) + engine_oracle.record_size_bytes(v) for k, v in pairs)


class TestCountersEqualARecount:
    def test_a_combined_shuffle_is_sized_after_the_combiner(self):
        fs = InMemoryFileSystem()
        fs.put(_word_dataset(["a b", "a c c"]))
        job = _wordcount_job(
            config=JobConfig(num_reduce_tasks=2, combiner_enabled=True), combiner=count_combine
        )
        counters = LocalEngine().execute_job(job, fs).counters
        emitted = [({"word": w}, {"n": 1.0}) for w in "a b a c c".split()]
        combined = [({"word": w}, {"n": n}) for w, n in (("a", 2.0), ("b", 1.0), ("c", 2.0))]
        assert counters.map_output_bytes == _pair_bytes(emitted)
        assert counters.spilled_bytes == counters.shuffle_bytes == _pair_bytes(combined)
        stored = fs.get("counts").all_records()
        assert counters.output_bytes == counters.reduce_output_bytes == sum(
            map(engine_oracle.record_size_bytes, stored)
        )

    def test_an_explicit_partitioner_sorting_on_more_fields_still_groups_on_the_group_fields(self):
        records = [{"k": float(i % 3), "s": float(i % 4), "v": 1.0} for i in range(24)]
        fs = InMemoryFileSystem()
        fs.put(Dataset("data", records=records))

        def key_map(key, value):
            yield {"k": value["k"], "s": value["s"]}, {"v": value["v"]}

        def sum_reduce(key, values):
            yield key, {"total": float(sum(v["v"] for v in values))}

        job = simple_job(
            "sums", "data", "sums_out", key_map, sum_reduce, group_fields=("k",),
            config=JobConfig(num_reduce_tasks=2),
        ).with_partitioner(PartitionFunction(kind="hash", fields=("k",), sort_fields=("k", "s")))
        counters = LocalEngine().execute_job(job, fs).counters
        assert counters.reduce_input_groups == 3
        assert counters.key_cardinalities == {("k",): 3}
        got = {r["k"]: r["total"] for r in fs.get("sums_out").all_records()}
        assert got == {0.0: 8.0, 1.0: 8.0, 2.0: 8.0}

    @pytest.mark.parametrize("compress_output", (False, True))
    def test_output_bytes_are_raw_whether_or_not_the_job_compresses(self, compress_output):
        """The engine, the judge and the profiler all read raw output bytes:
        only the job model prices compression."""
        docs = _word_dataset(["a b a", "b c", "a d d d"])
        job = _wordcount_job(config=JobConfig(num_reduce_tasks=2, compress_output=compress_output))
        workflow = Workflow()
        vertex = workflow.add_job(job)
        execution, fs = WorkflowExecutor().execute(workflow, base_datasets={"docs": docs})
        counters = execution.counters_for(job.name)
        stored = fs.get("counts")
        assert stored.layout.compressed is compress_output
        assert counters.output_bytes == stored.raw_bytes
        judged = ActualCostModel(ClusterSpec.paper_cluster()).dataflow_from_counters(vertex, counters, fs)
        assert judged.output_bytes == stored.raw_bytes
        profile = Profiler().profile_workflow(workflow, {"docs": docs}, attach=False).job_profiles[job.name]
        assert profile.output_record_bytes == stored.raw_bytes / stored.num_records


def _join_map(key, value):
    yield {"k": value["k"]}, {"v": value["v"]}


def _join_reduce(key, values):
    yield key, {"n": float(len(values))}


class TestOneScaleRule:
    """A job's logical scale is ``Σ Nᵢ·sᵢ / Σ Nᵢ`` over its whole inputs, one
    rule for the output's stamp and the judge, whatever partitions it prunes."""

    @pytest.mark.parametrize("pruned", (False, True))
    def test_a_join_of_inputs_sampled_at_different_rates(self, pruned):
        ranged = DataLayout(partitioning=PartitionScheme.ranged("v", [10.0, 20.0]))
        visits = Dataset(
            "visits", records=[{"k": float(i % 4), "v": float(i)} for i in range(30)],
            layout=ranged, scale_factor=4.0,
        )
        ranks = Dataset("ranks", records=[{"k": float(i), "v": 0.5} for i in range(10)], scale_factor=16.0)
        inputs = {"visits": visits, "ranks": ranks}
        expected = sum(d.num_records * d.scale_factor for d in inputs.values()) / sum(
            d.num_records for d in inputs.values()
        )
        assert expected == 7.0
        job = simple_job(
            "join", ("visits", "ranks"), "joined", _join_map, _join_reduce, group_fields=("k",),
            config=JobConfig(num_reduce_tasks=2),
        )
        if pruned:
            (pipeline,) = job.pipelines
            job = dataclasses.replace(job, pipelines=[pipeline.with_partition_filter("visits", (1, 2))])
        workflow = Workflow()
        vertex = workflow.add_job(job)
        execution, fs = WorkflowExecutor().execute(workflow, base_datasets=inputs)
        counters = execution.counters_for("join")
        assert counters.map_input_records == (30 if not pruned else 20) + 10
        assert fs.get("joined").scale_factor == expected
        judged = ActualCostModel(ClusterSpec.paper_cluster()).dataflow_from_counters(vertex, counters, fs)
        assert judged.input_bytes == counters.map_input_bytes * expected
        assert judged.output_records == counters.output_records * expected


def _exercising_generated_dag():
    """A generated DAG whose execution combines, reads chained and prunes.

    Its first base dataset is re-stored range-partitioned on ``x``; every
    pipeline reading it skips partition 0, every job enables its combiner,
    and every other job reads its input one split per stored partition.
    """
    generated = RandomWorkflowGenerator().with_config(
        min_jobs=5, max_jobs=5, combiner_probability=1.0, records_per_dataset=150, profile=False
    ).generate(11)
    base = dict(generated.base_datasets)
    name = sorted(base)[0]
    layout = DataLayout(partitioning=PartitionScheme.ranged("x", [25.0, 50.0, 75.0]), sort_fields=("k",))
    base[name] = Dataset(name, records=base[name].all_records(), layout=layout)
    workflow = generated.workflow
    for index, job_name in enumerate(workflow.job_names):
        def derive(job, index=index):
            config = job.config.replace(
                combiner_enabled=True, max_parallel_maps_per_producer_reduce=index % 2
            )
            pipelines = [
                p.with_partition_filter(name, (1, 2, 3)) if p.reads(name) else p for p in job.pipelines
            ]
            return dataclasses.replace(job, pipelines=pipelines).with_config(config)

        workflow.update_job(job_name, derive)
    return workflow, base, name


def _material(key, fields):
    """What a hash placement of ``key`` on ``fields`` is a function of."""
    if fields:
        return tuple(str(key.get(f)) for f in fields)
    return tuple(sorted((k, str(v)) for k, v in key.items()))


class TestEachKeyIsHashedOnce:
    """A job calls ``stable_hash`` once per distinct key material (the
    ``str()`` of each key field) its shuffle or its output loads place, and a
    load outside a job once per material it places; every record still lands
    where an uncached ``stable_hash`` puts it."""

    @staticmethod
    def _spy(monkeypatch):
        """Counts ``stable_hash`` calls through the partitioner and the dataset
        module per scope (one ``execute_job``, or one load outside a job), and
        the distinct materials each scope's shuffles and multi-partition hash
        loads place; records each shuffle placement as ``(key, fields,
        partitions, index)``.  A scope is ``(hashed, placed)``: the materials
        ``stable_hash`` folded and the set the scope needed."""
        scopes, active, shuffles, loads, placements = [], [], [], [], []
        for module in (partitioner_module, dataset_module):
            def counting(material, original=module.stable_hash):
                active[-1][0].append(material)
                return original(material)

            monkeypatch.setattr(module, "stable_hash", counting)

        def scoped(method):
            def run(self, *args, **kwargs):
                opened = not active or method is original_execute
                if opened:
                    active.append(([], set()))
                    scopes.append(active[-1])
                try:
                    return method(self, *args, **kwargs)
                finally:
                    if opened:
                        active.pop()

            return run

        original_placer = PartitionFunction.placer

        def placer(self, num_partitions, *args):
            place = original_placer(self, num_partitions, *args)
            seen = set()
            shuffles.append(seen)

            def spied(key):
                index = place(key)
                seen.add(_material(key, self.fields))
                if self.kind == "hash" and num_partitions > 1:
                    active[-1][1].add(_material(key, self.fields))
                placements.append((key, self.fields, num_partitions, index))
                return index

            return spied

        original_load = Dataset.load

        def load(self, records, *args):
            records = list(records)
            original_load(self, records, *args)
            scheme = self.layout.partitioning
            if scheme.kind == "hash":
                materials = {_material(r, scheme.fields) for r in records}
                loads.append(materials)
                if len(self.partitions) > 1:
                    active[-1][1].update(materials)

        original_execute = LocalEngine.execute_job
        monkeypatch.setattr(PartitionFunction, "placer", placer)
        monkeypatch.setattr(Dataset, "load", scoped(load))
        monkeypatch.setattr(LocalEngine, "execute_job", scoped(original_execute))
        return scopes, shuffles, loads, placements

    @staticmethod
    def _hashed(scopes):
        return [material for hashed, _ in scopes for material in hashed]

    @staticmethod
    def _assert_one_hash_per_material(scopes):
        for hashed, placed in scopes:
            assert len(hashed) == len(set(hashed)) and set(hashed) == placed

    @pytest.mark.parametrize("label", WORKLOAD_ORDER)
    def test_canned_workflows(self, label, monkeypatch):
        workload = build_workload(label, scale=0.05)
        scopes, shuffles, loads, placements = self._spy(monkeypatch)
        WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        hashed = self._hashed(scopes)
        assert shuffles and placements
        assert 0 < len(hashed) <= sum(map(len, shuffles)) + sum(map(len, loads))
        assert len(hashed) < len(placements)
        self._assert_one_hash_per_material(scopes)
        for key, fields, partitions, index in placements:
            if fields and partitions > 1:
                assert index == stable_hash([key.get(f) for f in fields]) % partitions

    def test_mixed_keys_land_where_an_uncached_hash_puts_them(self, monkeypatch):
        values = [1, 1.0, True, "1", None]
        records = [{"k": values[i % 5], "v": float(i)} for i in range(400)]
        scopes, shuffles, loads, placements = self._spy(monkeypatch)
        stored = Dataset("mixed", records=records, layout=DataLayout(partitioning=PartitionScheme.hashed("k")))
        assert len(stored.partitions) > 1
        for partition in stored.partitions:
            for record in partition.records:
                assert stable_hash((record.get("k"),)) % len(stored.partitions) == partition.index
        assert [len(seen) for seen in loads] == [4] and len(self._hashed(scopes)) == 4

        def key_map(key, value):
            yield {"k": value["k"]}, {"v": value["v"]}

        def total_reduce(key, values):
            yield key, {"total": float(sum(v["v"] for v in values))}

        fs = InMemoryFileSystem()
        fs.put(Dataset("data", records=records))
        job = simple_job(
            "mixed_sums", "data", "mixed_out", key_map, total_reduce, group_fields=("k",),
            config=JobConfig(num_reduce_tasks=4),
        )
        del scopes[:], loads[:]
        counters = LocalEngine().execute_job(job, fs).counters
        placed = {(str(key["k"]), index) for key, _, _, index in placements}
        assert placed == {(str(v), stable_hash((v,)) % 4) for v in values}
        assert len(placements) == len(records) and [len(seen) for seen in shuffles] == [4]
        assert len(scopes) == 1 and len(self._hashed(scopes)) == 4
        self._assert_one_hash_per_material(scopes)
        assert counters.reduce_input_records == len(records)

    def test_a_job_hashes_a_material_its_shuffle_hashed_not_again_in_its_output_load(self, monkeypatch):
        records = [{"k": float(i % 40), "v": float(i)} for i in range(400)]
        fs = InMemoryFileSystem()
        fs.put(Dataset("data", records=records))

        def key_map(key, value):
            yield {"k": value["k"]}, {"v": value["v"]}

        def copies_reduce(key, values):
            for value in values:
                yield key, value

        job = simple_job(
            "copies", "data", "copies_out", key_map, copies_reduce, group_fields=("k",),
            config=JobConfig(num_reduce_tasks=4),
        )
        scopes, shuffles, loads, _ = self._spy(monkeypatch)
        LocalEngine().execute_job(job, fs)
        assert len(fs.get("copies_out").partitions) > 1
        assert [len(seen) for seen in shuffles] == [40] and [len(seen) for seen in loads] == [40]
        assert len(scopes) == 1 and len(self._hashed(scopes)) == 40
        self._assert_one_hash_per_material(scopes)


class TestEachRecordIsSizedOnce:
    """No input record is sized, and a shuffle-pair half, a combined pair's
    half and a stored record at most once each: the map input counters come
    from the stored partitions, the spill and the shuffle reuse the map
    output's sizes unless a combiner rewrote the pairs, and the output
    counters come from the loads that store the records."""

    @staticmethod
    def _count_sizings(monkeypatch):
        """Every record a ``records_size_bytes`` call through the engine or the
        dataset module iterates (a shuffle pair is two records)."""
        sized = []
        for module in (engine_module, dataset_module):
            def counting(records, original=module.records_size_bytes):
                records = list(records)
                sized.extend(records)
                return original(records)

            monkeypatch.setattr(module, "records_size_bytes", counting)
        return sized

    def _assert_sized_once(self, monkeypatch, workflow, base_datasets):
        stored_inputs = {id(r) for d in base_datasets.values() for p in d.partitions for r in p.records}
        sized = self._count_sizings(monkeypatch)
        execution, _ = WorkflowExecutor().execute(workflow, base_datasets=base_datasets)
        bound = 0
        for result in execution.job_results.values():
            counters = result.counters
            bound += 2 * counters.map_output_records + 2 * counters.combine_output_records
            bound += sum(result.per_output_records.values())
        assert not any(id(record) in stored_inputs for record in sized)
        assert 0 < len(sized) <= bound
        return execution

    @pytest.mark.parametrize("label", WORKLOAD_ORDER)
    def test_canned_workflows(self, label, monkeypatch):
        workload = build_workload(label, scale=0.05)
        self._assert_sized_once(monkeypatch, workload.workflow, workload.base_datasets)

    def test_a_generated_dag_that_combines_reads_chained_and_prunes(self, monkeypatch):
        workflow, base, ranged = _exercising_generated_dag()
        execution = self._assert_sized_once(monkeypatch, workflow, base)
        counters = [result.counters for result in execution.job_results.values()]
        assert any(c.combine_input_records > c.combine_output_records > 0 for c in counters)
        assert any(vertex.job.config.chained_input for vertex in workflow.jobs)
        pruned = [v.name for v in workflow.jobs if v.job.pipelines[0].allowed_partitions(ranged)]
        assert pruned and all(
            execution.counters_for(name).map_input_records < base[ranged].num_records
            for name in pruned
        )
