"""Tests for the baseline optimizers and the eight evaluation workloads."""

import math

import pytest

from repro.baselines import (
    OPTIMIZER_NAMES,
    MRShareOptimizer,
    PigBaselineOptimizer,
    StarfishOptimizer,
    YSmartOptimizer,
    make_optimizer,
)
from repro.cluster import ClusterSpec
from repro.common.records import records_equal
from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer
from repro.core.subresults import SubResultCatalog
from repro.whatif.service import CostService
from repro.profiler import Profiler
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import WORKLOAD_ORDER, build_workload

CLUSTER = ClusterSpec.paper_cluster()


def _profiled(abbr, scale=0.15):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload


class TestBaselines:
    def test_pig_baseline_packs_shared_input(self):
        workload = _profiled("PJ")
        result = PigBaselineOptimizer(CLUSTER).optimize(workload.plan)
        assert result.num_jobs == 2  # PJ_J2 and PJ_J3 packed unconditionally
        assert result.optimizer == "Baseline"

    def test_pig_baseline_applies_rule_of_thumb_config(self):
        workload = _profiled("IR")
        result = PigBaselineOptimizer(CLUSTER).optimize(workload.plan)
        config = result.plan.job("IR_J1").job.config
        assert config.num_reduce_tasks == max(1, int(CLUSTER.total_reduce_slots * 0.9))
        assert config.combiner_enabled  # IR_J1 has a combine function

    def test_starfish_changes_only_configurations(self):
        workload = _profiled("IR")
        result = StarfishOptimizer(CLUSTER).optimize(workload.plan)
        assert result.num_jobs == workload.num_jobs
        assert set(result.plan.workflow.job_names) == set(workload.workflow.job_names)
        assert any(t == "configuration" for t in result.plan.transformations_applied())

    def test_starfish_improves_estimated_cost(self):
        workload = _profiled("IR")
        starfish = StarfishOptimizer(CLUSTER)
        before = starfish.whatif.estimate_workflow(workload.plan.workflow).total_s
        result = starfish.optimize(workload.plan)
        assert result.estimated_cost_s <= before

    def test_ysmart_minimizes_job_count(self):
        workload = _profiled("BR")
        result = YSmartOptimizer(CLUSTER).optimize(workload.plan)
        assert result.num_jobs < workload.num_jobs

    def test_ysmart_packs_pj_even_though_it_hurts(self):
        workload = _profiled("PJ")
        result = YSmartOptimizer(CLUSTER).optimize(workload.plan)
        assert result.num_jobs <= 2

    def test_mrshare_declines_packing_for_pj(self):
        workload = _profiled("PJ")
        result = MRShareOptimizer(CLUSTER).optimize(workload.plan)
        assert result.num_jobs == 3

    def test_mrshare_only_considers_horizontal(self):
        workload = _profiled("IR")
        result = MRShareOptimizer(CLUSTER).optimize(workload.plan)
        assert result.num_jobs == workload.num_jobs

    def test_baseline_plans_remain_equivalent(self):
        workload = _profiled("PJ")
        executor = WorkflowExecutor()
        _, reference_fs = executor.execute(workload.workflow.copy(), base_datasets=workload.base_datasets)
        for optimizer in (
            PigBaselineOptimizer(CLUSTER),
            StarfishOptimizer(CLUSTER),
            YSmartOptimizer(CLUSTER),
            MRShareOptimizer(CLUSTER),
        ):
            result = optimizer.optimize(workload.plan)
            _, fs = executor.execute(result.plan.workflow, base_datasets=workload.base_datasets)
            for name in ("pj_cov", "pj_corr"):
                assert records_equal(reference_fs.get(name).all_records(), fs.get(name).all_records()), optimizer.name


    @pytest.mark.parametrize(
        "baseline",
        [PigBaselineOptimizer, StarfishOptimizer, YSmartOptimizer, MRShareOptimizer],
        ids=lambda cls: cls.name,
    )
    def test_baselines_take_no_decision_cache(self, baseline, monkeypatch, tmp_path):
        # Rule-based optimizers never run the unit search: they neither
        # accept a decision cache nor open the persisted one on their own.
        path = tmp_path / "decisions.bin"
        monkeypatch.setenv("STUBBY_DECISION_CACHE", str(path))
        optimizer = baseline(CLUSTER)
        optimizer.optimize(_profiled("PJ", scale=0.1).plan)
        assert not hasattr(optimizer, "decisions") and not path.exists()
        with pytest.raises(TypeError, match="decision_cache"):
            baseline(CLUSTER, decision_cache=None)


class TestMakeOptimizer:
    """The one name → optimizer registry (harness, server and oracle use it)."""

    def test_builds_all_seven_display_names_over_the_shared_stores(self):
        costs, decisions = CostService(CLUSTER), DecisionCache(CLUSTER)
        catalog = SubResultCatalog(CLUSTER)
        assert OPTIMIZER_NAMES == (
            "Stubby", "Vertical", "Horizontal", "Baseline", "Starfish", "YSmart", "MRShare"
        )
        phases = {
            "Stubby": ("vertical", "horizontal"),
            "Vertical": ("vertical",),
            "Horizontal": ("horizontal",),
        }
        for name in OPTIMIZER_NAMES:
            optimizer = make_optimizer(
                name,
                CLUSTER,
                seed=5,
                cost_service=costs,
                decision_cache=decisions,
                subresult_catalog=catalog,
            )
            assert optimizer.costs is costs
            if name in phases:
                assert isinstance(optimizer, StubbyOptimizer)
                assert optimizer.phases == phases[name]
                assert optimizer.decisions is decisions and optimizer.subresults is catalog
                assert optimizer.search.seed == 5
            else:
                # Baselines get the cost service only.
                assert optimizer.name == name
                assert not hasattr(optimizer, "decisions")
                assert not hasattr(optimizer, "subresults")

    def test_seed_none_keeps_each_class_default(self):
        assert make_optimizer("Stubby", CLUSTER).search.seed == StubbyOptimizer(CLUSTER).search.seed
        seeded = make_optimizer("Starfish", CLUSTER, seed=99)
        assert seeded._rng.fork("x").random() == StarfishOptimizer(CLUSTER, seed=99)._rng.fork("x").random()

    def test_unknown_name_raises_keyerror_naming_the_choices(self):
        with pytest.raises(KeyError) as excinfo:
            make_optimizer("Oracle", CLUSTER)
        for name in OPTIMIZER_NAMES:
            assert name in str(excinfo.value)


class TestWorkloadCatalog:
    def test_all_eight_workloads_build(self):
        for abbr in WORKLOAD_ORDER:
            workload = build_workload(abbr, scale=0.1)
            workload.workflow.validate()
            assert workload.base_datasets
            assert workload.paper_dataset_gb > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            build_workload("XX")

    def test_job_counts_match_paper(self):
        expected = {"IR": 3, "SN": 4, "LA": 4, "WG": 2, "BA": 4, "BR": 7, "PJ": 3, "US": 3}
        for abbr, count in expected.items():
            assert build_workload(abbr, scale=0.1).num_jobs == count

    def test_logical_sizes_match_paper_scale(self):
        for abbr, paper_gb in (("IR", 264.0), ("BR", 530.0), ("PJ", 10.0)):
            workload = build_workload(abbr, scale=0.1)
            assert workload.logical_dataset_gb == pytest.approx(paper_gb, rel=0.01)

    def test_every_job_has_schema_annotation(self):
        for abbr in WORKLOAD_ORDER:
            workload = build_workload(abbr, scale=0.1)
            for vertex in workload.workflow.jobs:
                assert vertex.annotations.schema is not None, f"{abbr}:{vertex.name}"

    def test_base_datasets_are_annotated(self):
        workload = build_workload("LA", scale=0.1)
        annotation = workload.workflow.dataset("uservisits").annotation
        assert annotation is not None and annotation.partition_kind == "range"

    def test_deterministic_generation(self):
        a = build_workload("SN", scale=0.1, seed=9)
        b = build_workload("SN", scale=0.1, seed=9)
        assert records_equal(
            a.base_datasets["paper_authors"].all_records(),
            b.base_datasets["paper_authors"].all_records(),
        )


class TestWorkloadSemantics:
    def test_ir_term_frequencies(self):
        workload = build_workload("IR", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        corpus = workload.base_datasets["corpus"].all_records()
        tf = {(r["doc"], r["word"]): r["tf"] for r in fs.get("ir_tf").all_records()}
        doc, word = corpus[0]["doc"], corpus[0]["word"]
        expected = sum(1 for r in corpus if r["doc"] == doc and r["word"] == word)
        assert tf[(doc, word)] == expected

    def test_sn_top20_sorted_and_bounded(self):
        workload = build_workload("SN", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        top = fs.get("sn_top20").all_records()
        assert 0 < len(top) <= 20
        counts = [r["count"] for r in sorted(top, key=lambda r: r["position"])]
        assert counts == sorted(counts, reverse=True)

    def test_la_top_user_has_highest_revenue(self):
        workload = build_workload("LA", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        per_user = {r["ip"]: r["total_revenue"] for r in fs.get("la_user_agg").all_records()}
        top = fs.get("la_top_user").all_records()[0]
        assert top["total_revenue"] == pytest.approx(max(per_user.values()))

    def test_wg_ranks_are_positive_and_damped(self):
        workload = build_workload("WG", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        ranks = [r["rank"] for r in fs.get("wg_newranks").all_records()]
        assert ranks and all(rank >= 0.15 for rank in ranks)

    def test_ba_total_is_single_record(self):
        workload = build_workload("BA", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        totals = fs.get("ba_total").all_records()
        assert len(totals) == 1 and totals[0]["avg_yearly_loss"] >= 0

    def test_br_terminal_counts_positive(self):
        workload = build_workload("BR", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        assert fs.get("br_distinct1").all_records()[0]["distinct_prices"] > 0
        assert fs.get("br_distinct2").all_records()[0]["distinct_prices"] > 0

    def test_pj_correlation_in_unit_interval(self):
        workload = build_workload("PJ", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        for record in fs.get("pj_corr").all_records():
            assert -1.0001 <= record["correlation"] <= 1.0001

    def test_us_consumers_respect_age_filters(self):
        workload = build_workload("US", scale=0.1)
        _, fs = WorkflowExecutor().execute(workload.workflow, base_datasets=workload.base_datasets)
        assert all(10 <= r["age"] < 35 for r in fs.get("us_young").all_records())
        assert all(35 <= r["age"] < 80 for r in fs.get("us_older").all_records())
