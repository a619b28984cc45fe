"""Tests for the operator pipeline machinery and the local MapReduce engine."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.mapreduce.job import simple_job
from repro.mapreduce.pipeline import (
    OperatorStats,
    run_map_chain,
    run_reduce_chain,
)
from repro.verification import RandomWorkflowGenerator
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import WORKLOAD_ORDER, build_workload
from tests import engine_oracle


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


class TestEachRecordIsSizedOnce:
    """No input record is sized, and a shuffle-pair half, a combined pair's
    half and a stored record at most once each: the map input counters come
    from the stored partitions, the spill and the shuffle reuse the map
    output's sizes unless a combiner rewrote the pairs, and the output
    counters come from the loads that store the records."""

    @staticmethod
    def _count_sizings(monkeypatch):
        sized = []
        for module in (engine_module, dataset_module):
            def counting(record, original=module.record_size_bytes):
                sized.append(record)
                return original(record)

            monkeypatch.setattr(module, "record_size_bytes", counting)
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
