"""Tests for the operator pipeline machinery and the local MapReduce engine."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.dfs import DataLayout, Dataset, InMemoryFileSystem, PartitionScheme
from repro.mapreduce import (
    JobConfig,
    LocalEngine,
    MapReduceJob,
    PartitionFunction,
    Pipeline,
    map_operator,
    reduce_operator,
)
from repro.mapreduce.job import simple_job
from repro.mapreduce.pipeline import (
    OperatorStats,
    run_map_chain,
    run_reduce_chain,
)


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
        ranged = PartitionFunction.ranged("word", [1.0], sort_fields=("word",))
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
        job = job.with_partitioner(PartitionFunction.ranged("word", [1.0], sort_fields=["word"]))
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
