"""Tests for the experiment harness and the Figure 5 micro-benchmarks."""

from types import SimpleNamespace

import pytest

from repro.cluster import ClusterSpec
from repro.common.records import diff_record_multisets
from repro.core.optimizer import OptimizationResult
from repro.core.plan import Plan
from repro.dfs.dataset import Dataset
from repro.experiments import (
    ExperimentHarness,
    horizontal_packing_tradeoff,
    vertical_packing_tradeoff,
)
from repro.mapreduce.job import simple_job
from repro.workflow.graph import Workflow
from repro.workloads import common


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(cluster=ClusterSpec.paper_cluster(), scale=0.15)


@pytest.fixture(scope="module")
def pj_comparison(harness):
    return harness.compare("PJ", optimizers=("Baseline", "Stubby", "Vertical", "Horizontal"))


class TestHarness:
    def test_comparison_contains_all_optimizers(self, pj_comparison):
        assert set(pj_comparison.runs) == {"Baseline", "Stubby", "Vertical", "Horizontal"}

    def test_every_optimized_plan_is_equivalent(self, pj_comparison):
        assert all(run.output_equivalent for run in pj_comparison.runs.values())

    def test_output_equivalence_is_the_differential_batterys(self, harness):
        # Two floats 2e-16 apart that straddle a 9-digit rounding boundary:
        # the battery's comparison accepts them, so the harness must too.
        value = 0.1234567895
        workflow = Workflow(name="copy")
        workflow.add_job(simple_job("J", "base", "out", map_fn=common.key_by(("k",))))
        result = OptimizationResult(
            plan=Plan(workflow), estimated_cost_s=0.0, optimization_time_s=0.0, optimizer="copy"
        )
        workload = SimpleNamespace(
            base_datasets={"base": Dataset("base", records=[{"k": "a", "v": value}])}
        )

        def judged(reference):
            return harness._evaluate(result, workload, {"out": reference}).output_equivalent

        shifted = [{"k": "a", "v": value + 2e-16}]
        assert diff_record_multisets(shifted, [{"k": "a", "v": value}]) == ([], [])
        assert judged(shifted)
        assert not judged([{"k": "a", "v": value + 1e-3}])
        assert not judged([{"k": "a", "v": value}, {"k": "a", "v": value}])

    def test_baseline_speedup_is_one(self, pj_comparison):
        assert pj_comparison.speedup("Baseline") == pytest.approx(1.0)

    def test_stubby_beats_baseline_on_pj(self, pj_comparison):
        assert pj_comparison.speedup("Stubby") > 1.0

    def test_cost_based_optimizers_do_not_pack_pj(self, pj_comparison):
        # The Baseline packs the two consumer jobs; Stubby keeps them separate.
        assert pj_comparison.runs["Baseline"].num_jobs == 2
        assert pj_comparison.runs["Stubby"].num_jobs == 3

    def test_state_of_the_art_comparison(self, harness):
        comparison = harness.compare("PJ", optimizers=("Baseline", "Stubby", "MRShare"))
        assert comparison.speedup("Stubby") >= comparison.speedup("MRShare") * 0.9
        assert comparison.runs["MRShare"].num_jobs == 3

    def test_optimization_overhead_recorded(self, pj_comparison):
        stubby = pj_comparison.runs["Stubby"]
        assert stubby.optimization_time_s > 0.0

    def test_format_tables(self, harness, pj_comparison):
        speedups = harness.format_speedup_table([pj_comparison], ("Baseline", "Stubby"))
        assert "PJ" in speedups and "Stubby" in speedups
        overhead = harness.format_overhead_table([pj_comparison])
        assert "PJ" in overhead

    def test_unknown_optimizer_rejected(self, harness):
        with pytest.raises(KeyError):
            harness.make_optimizer("Oracle")

    def test_unit_deep_dive_shape(self, harness):
        rows = harness.unit_deep_dive("IR")
        assert len(rows) >= 2
        for transformations, estimated, actual in rows:
            assert estimated > 0 and actual > 0


class TestFigure5Microbenchmarks:
    def test_vertical_packing_tradeoff_directions(self):
        tradeoff = vertical_packing_tradeoff(num_records=600, logical_gb=150.0)
        assert tradeoff.favourable_speedup > 1.0
        assert tradeoff.unfavourable_speedup < 1.0
        assert tradeoff.favourable_speedup > tradeoff.unfavourable_speedup

    def test_horizontal_packing_tradeoff_directions(self):
        tradeoff = horizontal_packing_tradeoff(num_records=600, large_gb=400.0, small_gb=2.0)
        assert tradeoff.favourable_speedup > 1.0
        assert tradeoff.favourable_speedup > tradeoff.unfavourable_speedup
