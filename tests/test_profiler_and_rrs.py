"""Tests for the profiler and Recursive Random Search."""

import collections
import random

import pytest

from repro.common.rng import DeterministicRNG
from repro.core.rrs import RecursiveRandomSearch
from repro.mapreduce.config import ConfigDimension, ConfigurationSpace
from repro.profiler import Profiler
from repro.workloads import build_workload


class TestProfiler:
    @pytest.fixture(scope="class")
    def ir_workload(self):
        return build_workload("IR", scale=0.15)

    def test_profiles_every_job(self, ir_workload):
        result = Profiler().profile_workflow(
            ir_workload.workflow.copy(), ir_workload.base_datasets, attach=False
        )
        assert set(result.job_profiles) == {"IR_J1", "IR_J2", "IR_J3"}
        assert "corpus" in result.dataset_annotations

    def test_attach_sets_annotations(self, ir_workload):
        workflow = ir_workload.workflow.copy()
        Profiler().profile_workflow(workflow, ir_workload.base_datasets, attach=True)
        assert all(vertex.annotations.has_profile for vertex in workflow.jobs)
        assert workflow.dataset("corpus").annotation is not None

    def test_operator_profiles_and_selectivities(self, ir_workload):
        result = Profiler().profile_workflow(
            ir_workload.workflow.copy(), ir_workload.base_datasets, attach=False
        )
        j1 = result.job_profiles["IR_J1"]
        assert "IR_J1.map" in j1.operator_profiles
        assert "IR_J1.reduce" in j1.operator_profiles
        # The TF job's reduce aggregates (doc, word) groups: selectivity < 1.
        assert j1.operator_profiles["IR_J1.reduce"].selectivity < 1.0
        assert j1.cardinality(("doc", "word")) > 0

    def test_dataset_annotation_contents(self, ir_workload):
        annotation = Profiler().annotate_dataset(ir_workload.base_datasets["corpus"])
        assert annotation.partition_kind == "hash"
        assert annotation.partition_fields == ("doc",)
        assert annotation.size_bytes > 0
        assert "doc" in (annotation.schema or ())


class TestRecursiveRandomSearch:
    def _space(self):
        return ConfigurationSpace(
            dimensions=[
                ConfigDimension("x", "int", 0, 100),
                ConfigDimension("y", "int", 0, 100),
                ConfigDimension("flag", "bool"),
            ]
        )

    def test_finds_near_optimal_point(self):
        calls = []

        def objective(point):
            calls.append(point)
            x, y, flag = point
            return (x - 70) ** 2 + (y - 30) ** 2 + (0.0 if flag else 25.0)

        rrs = RecursiveRandomSearch(seed=3)
        result = rrs.search(self._space(), objective)
        assert result.best_value <= 400
        assert result.evaluations == len(calls)

    def test_never_worse_than_initial_point(self):
        def objective(point):
            return abs(point[0] - 10) + abs(point[1] - 10)

        initial = {"x": 10, "y": 10, "flag": False}
        result = RecursiveRandomSearch(seed=1).search(self._space(), objective, initial_point=initial)
        assert result.best_value <= objective(tuple(initial.values()))
        assert result.best_point == initial  # the optimum, by dimension name

    def test_deterministic_given_rng(self):
        def objective(point):
            return point[0] + point[1]

        space = self._space()
        a = RecursiveRandomSearch(seed=9).search(space, objective, rng=DeterministicRNG(4))
        b = RecursiveRandomSearch(seed=9).search(space, objective, rng=DeterministicRNG(4))
        assert a.best_point == b.best_point
        assert a.best_value == b.best_value

    def test_empty_space(self):
        result = RecursiveRandomSearch().search(ConfigurationSpace(dimensions=[]), lambda p: 42.0)
        assert result.best_value == 42.0
        assert result.best_point == {}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RecursiveRandomSearch(exploration_samples=0)
        with pytest.raises(ValueError):
            RecursiveRandomSearch(shrink_factor=1.5)


def _oracle_sample(dim, rng):
    """``ConfigDimension.sample`` as it was before points became value tuples."""
    if dim.kind == "bool":
        return rng.random() < 0.5
    return int(round(rng.uniform(dim.low, dim.high)))


def _oracle_sample_near(dim, center, radius, rng):
    """``ConfigDimension.sample_near`` as it was before points became value tuples."""
    if dim.kind == "bool":
        if rng.random() < radius:
            return rng.random() < 0.5
        return bool(center)
    span = (dim.high - dim.low) * radius
    return dim.clamp(rng.uniform(float(center) - span, float(center) + span))


class TestSamplerDrawOrder:
    """The space's tuple samplers consume the stream exactly as the
    per-dimension samplers they replaced: same values, same generator state,
    so every RRS run — and every decision built on one — is unchanged.  A
    neighbourhood generation of ``count`` points equals ``count`` sequential
    draws of the oracle."""

    @staticmethod
    def _random_space(maker):
        dims = []
        for index in range(maker.randint(1, 12)):
            if maker.random() < 0.4:
                dims.append(ConfigDimension(f"d{index}", "bool"))
                continue
            low = maker.choice([0, 1, 8, 32, 64, maker.uniform(-50.0, 50.0)])
            width = maker.choice([0, 1, 7, 255, maker.uniform(0.0, 900.0)])
            dims.append(ConfigDimension(f"d{index}", "int", low, low + width))
        return ConfigurationSpace(dimensions=dims)

    @staticmethod
    def _random_centre(maker, space):
        return tuple(
            maker.random() < 0.5
            if dim.kind == "bool"
            else maker.choice([dim.low, dim.high, int(dim.high) + 40, maker.uniform(dim.low, dim.high)])
            for dim in space.dimensions
        )

    def test_tuple_samplers_draw_as_the_per_dimension_samplers_did(self):
        maker = random.Random(2024)
        for trial in range(250):
            space = self._random_space(maker)
            seed = maker.randrange(2**31)
            ours, oracle = DeterministicRNG(seed), DeterministicRNG(seed)
            point = space.sample(ours)
            expected = tuple(_oracle_sample(dim, oracle) for dim in space.dimensions)
            assert [(type(v), v) for v in point] == [(type(v), v) for v in expected], trial
            assert ours._random.getstate() == oracle._random.getstate(), trial
            for step in range(6):
                centre = point if step % 2 else self._random_centre(maker, space)
                radius = maker.choice([0.05, 0.3, 1.0, maker.random()])
                # A generation is ``count`` sequential draws of the oracle.
                count = (1, 2, 10)[step % 3]
                points = space.sample_near(centre, radius, ours, count)
                expected = [
                    tuple(
                        _oracle_sample_near(dim, value, radius, oracle)
                        for dim, value in zip(space.dimensions, centre)
                    )
                    for _ in range(count)
                ]
                context = f"trial={trial} step={step} count={count}"
                assert len(points) == count, context
                for point, want in zip(points, expected):
                    assert [(type(v), v) for v in point] == [(type(v), v) for v in want], context
                assert ours._random.getstate() == oracle._random.getstate(), context
                point = points[-1]

    def test_generations_at_the_bounds_mix_clamped_and_unclamped_ints(self):
        """Centres at and near each int's bounds and in its middle, under
        radii small enough that some neighbourhoods stay inside the range
        (drawn without a clamp) and large enough that others do not: the
        same values, types and generator state as the oracle's draws."""
        maker = random.Random(7)
        cases = collections.Counter()
        for trial in range(120):
            dims = [ConfigDimension("flag", "bool")]
            for index in range(maker.randint(2, 8)):
                low = maker.choice([0, 1, 8, maker.uniform(-50.0, 50.0)])
                width = maker.choice([1, 7, 255, maker.uniform(0.5, 900.0)])
                dims.append(ConfigDimension(f"d{index}", "int", low, low + width))
            space = ConfigurationSpace(dimensions=dims)
            seed = maker.randrange(2**31)
            ours, oracle = DeterministicRNG(seed), DeterministicRNG(seed)
            for step in range(4):
                centre = tuple(
                    maker.random() < 0.5
                    if dim.kind == "bool"
                    else maker.choice([
                        dim.low, dim.high, int(dim.low), int(dim.high),
                        (dim.low + dim.high) / 2, round((dim.low + dim.high) / 2),
                    ])
                    for dim in dims
                )
                radius = maker.choice([0.0, 1e-9, 0.01, 0.05, 0.3, 1.0])
                for dim, value in zip(dims[1:], centre[1:]):
                    span = (dim.high - dim.low) * radius
                    inside = dim.low <= float(value) - span and float(value) + span <= dim.high
                    cases["unclamped" if inside else "clamped"] += 1
                count = (1, 3, 10, 2)[step]
                points = space.sample_near(centre, radius, ours, count)
                expected = [
                    tuple(
                        _oracle_sample_near(dim, value, radius, oracle)
                        for dim, value in zip(dims, centre)
                    )
                    for _ in range(count)
                ]
                context = f"trial={trial} step={step} radius={radius}"
                for point, want in zip(points, expected):
                    assert [(type(v), v) for v in point] == [(type(v), v) for v in want], context
                assert ours._random.getstate() == oracle._random.getstate(), context
        assert cases["unclamped"] > 100 and cases["clamped"] > 100, cases
