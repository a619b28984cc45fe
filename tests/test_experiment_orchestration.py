"""Concurrent experiment orchestration: backend identity, sharing, plumbing.

The contract under test is the one ``docs/experiments.md`` documents: the
experiment scheduler changes *where* a (workload × optimizer) cell runs,
never what it reports.  ``ExperimentHarness.run`` must produce bit-identical
results on every backend at any worker count — and with a warm-started
persisted cache — while the shared :class:`CostService` reaps cross-cell
signature hits that ``OptimizerRun.cost_stats.cross_origin_hits`` accounts for
exactly.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core.parallel import Pool
from repro.experiments import (
    ExperimentHarness,
    ExperimentScheduler,
    build_cells,
    cell_seed,
)
from repro.service.stats import LEDGERS

#: A small grid that still exercises cross-cell sharing (three optimizer
#: variants of one workload overlap heavily in job signatures).
WORKLOADS = ("PJ",)
OPTIMIZERS = ("Baseline", "Stubby", "Vertical")

#: The backend sweep of the identity property test.
BACKEND_SPECS = ("serial", "process:1", "process:2", "process:4")


def _fresh_harness(**kwargs):
    return ExperimentHarness(cluster=ClusterSpec.paper_cluster(), scale=0.12, **kwargs)


def _run(backend, **harness_kwargs):
    harness = _fresh_harness(**harness_kwargs)
    return harness.run(workloads=WORKLOADS, optimizers=OPTIMIZERS, backend=backend)


@pytest.fixture(scope="module")
def serial_result():
    return _run("serial")


class TestBackendIdentity:
    """run() results are bit-identical on every backend, at any worker count."""

    @pytest.mark.parametrize("spec", BACKEND_SPECS[1:])
    def test_identical_to_serial(self, spec, serial_result):
        result = _run(spec)
        assert result.decision_fingerprint() == serial_result.decision_fingerprint(), (
            f"experiment backend {spec} diverged from serial"
        )
        assert result.backend == spec

    def test_all_cells_equivalent_and_ordered(self, serial_result):
        assert tuple(serial_result.comparisons) == WORKLOADS
        for comparison in serial_result.comparisons.values():
            assert tuple(comparison.runs) == OPTIMIZERS
            assert all(run.output_equivalent for run in comparison.runs.values())

    def test_query_totals_identical_across_backends(self, serial_result):
        # Interleaving may move cache hits between cells, but every query is
        # issued (and counted) exactly once wherever a cell runs.
        result = _run("process:2")
        assert result.cost_stats.queries == serial_result.cost_stats.queries
        assert result.cost_stats.job_queries == serial_result.cost_stats.job_queries

    def test_repeated_runs_on_one_harness_are_identical(self):
        harness = _fresh_harness()
        first = harness.run(workloads=WORKLOADS, optimizers=OPTIMIZERS)
        second = harness.run(workloads=WORKLOADS, optimizers=OPTIMIZERS)
        # The second run reuses the first run's (in-memory) warm cache; the
        # exactness contract makes that invisible in the results.
        assert second.decision_fingerprint() == first.decision_fingerprint()
        assert second.cost_stats.cache_hit_rate > first.cost_stats.cache_hit_rate
        # In-memory warmth is reported honestly: no disk was involved, but
        # the second run's cells did not start cold.
        assert first.warm_start_entries == 0 and second.warm_start_entries == 0
        assert first.cache_entries_at_start == 0
        assert second.cache_entries_at_start > 0


class TestCrossCellSharing:
    """Cells of one run share the service; the reuse is attributed exactly."""

    def test_cross_cell_hits_surface_on_optimizer_runs(self, serial_result):
        runs = serial_result.comparisons["PJ"].runs
        # The first cell can only hit entries it stored itself.
        assert runs["Baseline"].cost_stats.cross_origin_hits == 0
        # Later variants re-cost the same annotated plan: they must reap
        # signature hits from their neighbours.
        assert runs["Stubby"].cost_stats.cross_origin_hits > 0
        assert runs["Vertical"].cost_stats.cross_origin_hits > 0

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_per_cell_sinks_sum_to_run_totals(self, spec):
        harness = _fresh_harness()
        harness.register_workload_subresults("IR")
        result = harness.run(workloads=("IR", "PJ"), optimizers=OPTIMIZERS, backend=spec)
        runs = [
            run
            for comparison in result.comparisons.values()
            for run in comparison.runs.values()
        ]
        assert len(runs) == 6
        for ledger in LEDGERS:
            total = LEDGERS[ledger]()
            for run in runs:
                total.accumulate(getattr(run, ledger))
            assert total == getattr(result, ledger), ledger
        # Every store saw traffic, so the sums are not vacuous.
        assert result.cost_stats.cross_origin_hits > 0
        assert result.decision_stats.decision_misses > 0
        assert result.subresult_stats.jobs_eliminated >= 1
        for run in runs:
            stats = run.cost_stats
            assert stats.job_cache_hits + stats.job_full_recosts == stats.job_queries

    def test_compare_runs_carry_their_results_ledgers(self):
        comparison = _fresh_harness().compare("PJ", optimizers=("Baseline", "Stubby"))
        for run in comparison.runs.values():
            assert all(getattr(run, ledger) is not None for ledger in LEDGERS)
        stubby = comparison.runs["Stubby"]
        assert stubby.cost_stats.queries > comparison.runs["Baseline"].cost_stats.queries > 0
        assert stubby.decision_stats.decision_misses > 0


class TestWarmStart:
    """A persisted cache warm-starts the next run without changing it."""

    def test_warm_run_identical_with_higher_hit_rate(self, tmp_path, serial_result):
        path = str(tmp_path / "costs.cache")
        cold = _run("serial", cache_path=path)
        assert cold.warm_start_entries == 0
        assert cold.cache_path == path

        warm = _run("serial", cache_path=path)
        assert warm.warm_start_entries > 0
        assert warm.decision_fingerprint() == cold.decision_fingerprint()
        assert warm.cost_stats.cache_hit_rate > cold.cost_stats.cache_hit_rate
        # Warm-started entries come from a previous run's cells: even the
        # first cell now sees cross-origin hits.
        assert warm.comparisons["PJ"].runs["Baseline"].cost_stats.cross_origin_hits > 0
        # And the cache never changes results relative to a no-cache run.
        assert cold.decision_fingerprint() == serial_result.decision_fingerprint()

    def test_persist_false_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "unused.cache")
        harness = _fresh_harness(cache_path=path)
        harness.run(workloads=WORKLOADS, optimizers=("Baseline",), persist=False)
        assert not (tmp_path / "unused.cache").exists()

    def test_compare_then_run_never_shrinks_the_persisted_files(self, tmp_path):
        # compare() invalidates the in-memory stores for its standalone
        # timings; a run() on the same harness must not then overwrite a
        # rich warm-start file with the sparse survivor.
        paths = {
            "cache_path": str(tmp_path / "costs.cache"),
            "decision_cache_path": str(tmp_path / "decisions.cache"),
        }

        def persisted():
            fresh = _fresh_harness(**paths)
            return fresh.costs.last_load.entries, fresh.decisions.last_load.entries

        _fresh_harness(**paths).run(workloads=WORKLOADS, optimizers=OPTIMIZERS)
        rich = persisted()
        assert min(rich) > 0
        second = _fresh_harness(**paths)
        second.compare("PJ", optimizers=("Baseline",))
        second.run(workloads=WORKLOADS, optimizers=("Baseline",))
        after = persisted()
        assert after[0] >= rich[0] and after[1] >= rich[1]


class TestSchedulerPlumbing:
    def test_the_backend_is_a_spec_string(self):
        assert ExperimentScheduler().spec == "serial:1"
        assert ExperimentScheduler("process:3").pool.workers == 3
        for not_a_spec in (None, 3.14, Pool("process:2")):
            with pytest.raises(TypeError):
                ExperimentScheduler(not_a_spec)
        with pytest.raises(ValueError):
            ExperimentScheduler("warp:9")

    def test_cells_are_deterministic(self):
        cells = build_cells(("PJ", "BR"), ("Baseline", "Stubby"), base_seed=42)
        assert [cell.label for cell in cells] == [
            "PJ/Baseline",
            "PJ/Stubby",
            "BR/Baseline",
            "BR/Stubby",
        ]
        assert [cell.index for cell in cells] == [0, 1, 2, 3]
        # Seeds derive from the cell key alone: stable across calls and
        # independent of grid position.
        again = build_cells(("BR",), ("Stubby",), base_seed=42)
        assert again[0].seed == cells[3].seed
        assert cells[1].seed == cell_seed(42, "PJ", "Stubby")
        assert cells[1].seed != cells[3].seed

    def test_map_cells_preserves_cell_order(self):
        scheduler = ExperimentScheduler("process:2")
        cells = build_cells(("PJ", "BR", "IR"), ("A", "B"), base_seed=1)
        labels = scheduler.map_cells(cells, lambda cell: cell.label)
        assert labels == [cell.label for cell in cells]
