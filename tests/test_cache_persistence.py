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
from repro.common.store import persist, resolve_env_path
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
    CACHE_PATH_ENV_VAR,
    CostService,
    cluster_cache_key,
)
from repro.workloads import build_workload
from tests.conftest import small_test_cluster

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

    def test_rows_name_no_key_class_so_a_version_3_file_outlives_a_key_move(
        self, tmp_path, profiled_workflow
    ):
        # A row is plain tuples around a JobDataflow: when the vertex content
        # key classes moved module (decision format 4, catalog format 2), a
        # cost file written before the move kept loading, unbumped.
        path = str(tmp_path / "costs.cache")
        _warmed_service(profiled_workflow).save_cache(path)
        named = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                named.add((module, name))
                return super().find_class(module, name)

        with open(path, "rb") as handle:
            Recording(handle).load()
        assert named == {("repro.whatif.dataflow", "JobDataflow")}
        assert CostService(CLUSTER, cache_path=path).last_load.loaded

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

    def test_version_2_file_of_level_tagged_rows_is_replaced_on_persist(
        self, tmp_path, profiled_workflow
    ):
        # What a pre-one-level deployment left on disk: version 2, 4-tuple
        # rows tagged "estimate" / "dataflow".  The planning server's
        # stop() -> restart() cycle meets such a file exactly once.
        path = tmp_path / "two_level.cache"
        rows = []
        for signature, derived, origin in _warmed_service(profiled_workflow)._entries_snapshot():
            rows.append(("dataflow", signature, derived, origin))
            rows.append(("estimate", (signature, (1, 64, 128, False, False)), derived, origin))
        path.write_bytes(
            pickle.dumps(
                {
                    "format_version": 2,
                    "model_version": service_module.COST_MODEL_VERSION,
                    "cluster_key": cluster_cache_key(CLUSTER),
                    "entries": rows,
                }
            )
        )
        service = CostService(CLUSTER, cache_path=str(path))
        assert service.cache_size == 0
        self._assert_rejected_but_functional(service, "format version mismatch", profiled_workflow)
        # The next persist() merge-saves over it: rejected again, then replaced.
        assert persist([service]) == service.cache_size > 0
        with open(path, "rb") as handle:
            assert pickle.load(handle)["format_version"] == CACHE_FORMAT_VERSION == 4
        reloaded = CostService(CLUSTER, cache_path=str(path))
        assert reloaded.last_load.loaded and reloaded.last_load.entries == service.cache_size

    def test_version_3_file_of_chained_count_keys_is_replaced_on_persist(
        self, tmp_path, profiled_workflow
    ):
        # Version 3 keyed a row on the chaining flag and the chained
        # map-task count too (a fifth signature part); version 4 reads the
        # count in the job model only.
        path = tmp_path / "chained_count.cache"
        rows = [
            (signature + ((False, None),), derived, origin)
            for signature, derived, origin in _warmed_service(profiled_workflow)._entries_snapshot()
        ]
        path.write_bytes(
            pickle.dumps(
                {
                    "format_version": 3,
                    "model_version": service_module.COST_MODEL_VERSION,
                    "cluster_key": cluster_cache_key(CLUSTER),
                    "entries": rows,
                }
            )
        )
        service = CostService(CLUSTER, cache_path=str(path))
        assert service.cache_size == 0
        self._assert_rejected_but_functional(service, "format version mismatch", profiled_workflow)
        assert persist([service]) == service.cache_size > 0
        with open(path, "rb") as handle:
            saved = pickle.load(handle)
        assert saved["format_version"] == 4
        assert all(len(signature) == 4 for signature, _, _ in saved["entries"])

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
                    "entries": rows + [(("sig",), ())],  # 2-tuple row
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
        service = CostService(small_test_cluster(), cache_path=path)
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

    def test_env_vars_warm_start_the_harness_and_the_server(
        self, tmp_path, profiled_workflow, monkeypatch
    ):
        from repro.core.decision_cache import DecisionCache
        from repro.core.subresults import SubResultCatalog
        from repro.experiments import ExperimentHarness
        from repro.service import PlanningServer

        _warmed_service(profiled_workflow).save_cache(str(tmp_path / "env.cache"))
        monkeypatch.setenv(CACHE_PATH_ENV_VAR, str(tmp_path / "env.cache"))
        for cls in (DecisionCache, SubResultCatalog):
            path = str(tmp_path / f"{cls.__name__}.bin")
            cls(CLUSTER).save_cache(path)
            monkeypatch.setenv(cls.PATH_ENV_VAR, path)
        for owner in (ExperimentHarness(), PlanningServer(CLUSTER)):
            assert [store.last_load.loaded for store in owner.stores] == [True] * 3
            assert owner.costs.last_load.entries > 0
        # A shared store passed in explicitly is never overridden by the env.
        shared = CostService(CLUSTER)
        server = PlanningServer(CLUSTER, cost_service=shared)
        assert server.costs is shared and shared.cache_path is None
