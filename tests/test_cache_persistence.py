"""Persistence of the cost-service cache: round-trips and hostile files.

The contract under test is the one ``docs/costing.md``'s persistence section
documents: a persisted cache warm-starts a later service with bit-identical
estimates, is keyed by (format version, cost-model version, cluster spec),
and is rejected *wholesale* — without raising — whenever any of those stamps
mismatch or the file is corrupt, truncated, or not a cache at all.  Saves
are atomic, so concurrent writers race to a complete file, never a torn one.
"""

import os
import pickle
import threading

import pytest

import repro.whatif.service as service_module
from repro.cluster import ClusterSpec
from repro.common.store import resolve_env_path
from repro.profiler import Profiler
from repro.verification import (
    FaultPlan,
    FaultSpec,
    corrupt_file,
    install_fault_plan,
    truncate_file,
)
from repro.whatif.service import (
    CACHE_FORMAT_VERSION,
    CACHE_MAX_ENTRIES_ENV_VAR,
    CACHE_PATH_ENV_VAR,
    CostService,
    cluster_cache_key,
    resolve_cache_max_entries,
)
from repro.workloads import build_workload

CLUSTER = ClusterSpec.paper_cluster()


@pytest.fixture(scope="module")
def profiled_workflow():
    workload = build_workload("PJ", scale=0.1)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload.workflow


def _warmed_service(profiled_workflow, **kwargs):
    service = CostService(CLUSTER, **kwargs)
    service.estimate_workflow(profiled_workflow)
    return service


class TestRoundTrip:
    def test_saved_cache_warm_starts_identically(self, tmp_path, profiled_workflow):
        path = str(tmp_path / "costs.cache")
        source = _warmed_service(profiled_workflow)
        cold = source.estimate_workflow(profiled_workflow)
        written = source.save_cache(path)
        assert written > 0

        warmed = CostService(CLUSTER, cache_path=path)
        assert warmed.last_load is not None and warmed.last_load.loaded
        assert warmed.last_load.entries == written
        estimate = warmed.estimate_workflow(profiled_workflow)
        # Bit-identical reuse: the exactness contract survives the disk trip.
        assert estimate.total_s == cold.total_s
        assert {n: e.total_s for n, e in estimate.per_job.items()} == {
            n: e.total_s for n, e in cold.per_job.items()
        }
        # Every job estimate was served from the warm cache.
        assert warmed.stats.job_cache_hits == warmed.stats.job_queries
        assert warmed.stats.job_full_recosts == 0

    def test_save_requires_a_path(self, profiled_workflow):
        service = _warmed_service(profiled_workflow)
        with pytest.raises(ValueError, match="no cache path"):
            service.save_cache()
        with pytest.raises(ValueError, match="no cache path"):
            service.load_cache()

    def test_missing_file_reports_cleanly(self, tmp_path):
        service = CostService(CLUSTER, cache_path=str(tmp_path / "absent.cache"))
        assert service.last_load is not None
        assert not service.last_load.loaded
        assert "no cache file" in service.last_load.reason

    def test_cache_disabled_service_skips_loading(self, tmp_path, profiled_workflow):
        path = str(tmp_path / "costs.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        passthrough = CostService(CLUSTER, enable_cache=False, cache_path=path)
        assert passthrough.last_load is None
        passthrough.estimate_workflow(profiled_workflow)
        assert passthrough.stats.job_cache_hits == 0


class TestHostileFiles:
    """Corrupt, truncated, or mismatched files contribute nothing — quietly."""

    def _assert_rejected_but_functional(self, service, reason_fragment, profiled_workflow):
        assert service.last_load is not None
        assert not service.last_load.loaded
        assert reason_fragment in service.last_load.reason
        # The service is fully usable afterwards; the first estimate is cold.
        estimate = service.estimate_workflow(profiled_workflow)
        assert estimate.total_s > 0
        assert service.stats.job_full_recosts > 0

    def test_corrupt_file(self, tmp_path, profiled_workflow):
        # The chaos harness's bit-rot model: a complete, valid cache whose
        # bytes were replaced with same-length seeded garbage.
        path = str(tmp_path / "corrupt.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        assert corrupt_file(path, seed=7)
        service = CostService(CLUSTER, cache_path=path)
        self._assert_rejected_but_functional(service, "unreadable", profiled_workflow)

    def test_truncated_file(self, tmp_path, profiled_workflow):
        path = str(tmp_path / "truncated.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        assert truncate_file(path, fraction=0.5)
        service = CostService(CLUSTER, cache_path=path)
        self._assert_rejected_but_functional(service, "unreadable", profiled_workflow)

    def test_fault_plan_corruption_at_the_load_site(self, tmp_path, profiled_workflow):
        # End-to-end through the injection site: a ``costcache.load``
        # corrupt spec mangles the file at the moment the service goes to
        # read it — the load is rejected wholesale, quietly, and the plan's
        # accounting shows exactly one fire to reconcile against.
        path = str(tmp_path / "ambushed.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        plan = FaultPlan(
            [FaultSpec(site="costcache.load", kind="corrupt", max_fires=1)],
            seed=11,
            name="bit-rot-on-load",
        )
        with install_fault_plan(plan):
            service = CostService(CLUSTER, cache_path=path)
        assert plan.fires("costcache.load") == 1
        self._assert_rejected_but_functional(service, "unreadable", profiled_workflow)

    def test_wrong_payload_shape(self, tmp_path, profiled_workflow):
        path = tmp_path / "list.cache"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        service = CostService(CLUSTER, cache_path=str(path))
        self._assert_rejected_but_functional(service, "malformed", profiled_workflow)

    def test_format_version_mismatch(self, tmp_path, profiled_workflow):
        path = tmp_path / "future.cache"
        path.write_bytes(
            pickle.dumps(
                {
                    "format_version": CACHE_FORMAT_VERSION + 1,
                    "model_version": service_module.COST_MODEL_VERSION,
                    "cluster_key": cluster_cache_key(CLUSTER),
                    "entries": [],
                }
            )
        )
        service = CostService(CLUSTER, cache_path=str(path))
        self._assert_rejected_but_functional(service, "format version", profiled_workflow)

    def test_model_version_mismatch(self, tmp_path, profiled_workflow, monkeypatch):
        path = str(tmp_path / "old_model.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        # A later PR bumps the model version: yesterday's cache self-invalidates.
        monkeypatch.setattr(
            service_module, "COST_MODEL_VERSION", service_module.COST_MODEL_VERSION + 1
        )
        service = CostService(CLUSTER, cache_path=path)
        self._assert_rejected_but_functional(service, "model version", profiled_workflow)

    def test_partially_malformed_entries_absorb_nothing(self, tmp_path, profiled_workflow):
        # All-or-nothing: valid rows ahead of one bad row must NOT slip in.
        good = _warmed_service(profiled_workflow)
        rows = good._entries_snapshot()
        assert rows
        path = tmp_path / "half_right.cache"
        path.write_bytes(
            pickle.dumps(
                {
                    "format_version": CACHE_FORMAT_VERSION,
                    "model_version": service_module.COST_MODEL_VERSION,
                    "cluster_key": cluster_cache_key(CLUSTER),
                    "entries": rows + [("estimate", ("sig",))],  # 2-tuple row
                }
            )
        )
        service = CostService(CLUSTER, cache_path=str(path))
        self._assert_rejected_but_functional(service, "malformed", profiled_workflow)

    def test_pickle_with_forbidden_globals_is_refused(self, tmp_path, profiled_workflow):
        # A cache file is a pickle, and pickle is a program: a crafted file
        # naming an arbitrary callable must be refused without invoking it.
        class Exploit:
            def __reduce__(self):
                marker = str(tmp_path / "pwned")
                return (os.system, (f"touch {marker}",))

        path = tmp_path / "hostile.cache"
        path.write_bytes(pickle.dumps({"format_version": Exploit()}))
        service = CostService(CLUSTER, cache_path=str(path))
        self._assert_rejected_but_functional(service, "unreadable", profiled_workflow)
        assert not (tmp_path / "pwned").exists()

    def test_cluster_spec_mismatch(self, tmp_path, profiled_workflow):
        path = str(tmp_path / "other_cluster.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        service = CostService(ClusterSpec.small_test_cluster(), cache_path=path)
        assert service.last_load is not None
        assert not service.last_load.loaded
        assert "different ClusterSpec" in service.last_load.reason
        # Same spec *values* (not identity) must be accepted.
        service = CostService(ClusterSpec.paper_cluster(), cache_path=path)
        assert service.last_load.loaded


class TestConcurrentWriters:
    def test_racing_saves_leave_a_loadable_file(self, tmp_path, profiled_workflow):
        path = str(tmp_path / "contended.cache")
        services = [_warmed_service(profiled_workflow) for _ in range(4)]
        errors = []

        def save(service):
            try:
                for _ in range(5):
                    service.save_cache(path)
            except Exception as exc:  # pragma: no cover - the failure branch
                errors.append(exc)

        threads = [threading.Thread(target=save, args=(s,)) for s in services]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # One writer won; whoever it was, the file is complete and valid.
        report = CostService(CLUSTER).load_cache(path)
        assert report.loaded and report.entries > 0
        # No temporary droppings left behind.
        assert os.listdir(tmp_path) == ["contended.cache"]


class TestPathResolution:
    def test_explicit_path_wins(self, monkeypatch):
        monkeypatch.setenv(CACHE_PATH_ENV_VAR, "/elsewhere/env.cache")
        assert resolve_env_path("/explicit.cache", CACHE_PATH_ENV_VAR) == "/explicit.cache"
        assert resolve_env_path(None, CACHE_PATH_ENV_VAR) == "/elsewhere/env.cache"
        # Empty string (either source) disables persistence.
        assert resolve_env_path("", CACHE_PATH_ENV_VAR) is None
        monkeypatch.setenv(CACHE_PATH_ENV_VAR, "")
        assert resolve_env_path(None, CACHE_PATH_ENV_VAR) is None

    def test_env_var_warm_starts_an_optimizer(self, tmp_path, profiled_workflow, monkeypatch):
        from repro.core.optimizer import StubbyOptimizer

        path = str(tmp_path / "env.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        monkeypatch.setenv(CACHE_PATH_ENV_VAR, path)
        optimizer = StubbyOptimizer(CLUSTER)
        assert optimizer.costs.last_load is not None and optimizer.costs.last_load.loaded
        # A shared service passed in explicitly is never overridden by the env.
        shared = CostService(CLUSTER)
        assert StubbyOptimizer(CLUSTER, cost_service=shared).costs is shared


class TestCompactionOnPersist:
    def test_max_entries_bounds_the_file(self, tmp_path, profiled_workflow):
        service = _warmed_service(profiled_workflow)
        full = len(service._entries_snapshot())
        assert full > 4
        path = str(tmp_path / "compact.cache")
        written = service.save_cache(path, max_entries=4)
        assert written == 4

        fresh = CostService(CLUSTER)
        report = fresh.load_cache(path)
        assert report.loaded and report.entries == 4

    def test_compacted_file_is_a_valid_warm_start(self, tmp_path, profiled_workflow):
        service = _warmed_service(profiled_workflow)
        path = str(tmp_path / "compact.cache")
        service.save_cache(path, max_entries=6)

        warmed = CostService(CLUSTER, cache_path=path)
        assert warmed.last_load is not None and warmed.last_load.loaded
        # Warm-started estimates are bit-identical to cold ones.
        cold = CostService(CLUSTER, enable_cache=False)
        assert (
            warmed.estimate_workflow(profiled_workflow).total_s
            == cold.estimate_workflow(profiled_workflow).total_s
        )
        # The partial store contributed at least one job-level cache hit.
        assert warmed.stats.job_cache_hits + warmed.stats.job_dataflow_hits > 0

    def test_compaction_keeps_most_recently_used_entries(self, tmp_path, profiled_workflow):
        service = _warmed_service(profiled_workflow)
        # Touch every entry again so recency ordering is well-defined.  Each
        # level keeps an exact LRU→MRU order and the compacted snapshot
        # takes the two MRU tails alternately: the kept rows are exactly the
        # last two estimates and the last dataflow, oldest first.
        service.estimate_workflow(profiled_workflow)
        compacted = service._entries_snapshot(max_entries=3)
        estimates = [("estimate", *row) for row in service._cache.items()]
        dataflows = [("dataflow", *row) for row in service._dataflow_cache.items()]
        assert compacted == [estimates[-2], dataflows[-1], estimates[-1]]

    def test_env_var_bounds_saves_by_default(self, tmp_path, profiled_workflow, monkeypatch):
        service = _warmed_service(profiled_workflow)
        path = str(tmp_path / "env-compact.cache")
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV_VAR, "5")
        assert service.save_cache(path) == 5
        # Explicit argument beats the environment.
        assert service.save_cache(path, max_entries=3) == 3

    def test_resolve_cache_max_entries(self, monkeypatch):
        assert resolve_cache_max_entries(7) == 7
        assert resolve_cache_max_entries(0) is None
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV_VAR, "12")
        assert resolve_cache_max_entries(None) == 12
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV_VAR, "not-a-number")
        assert resolve_cache_max_entries(None) is None
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV_VAR, "")
        assert resolve_cache_max_entries(None) is None
