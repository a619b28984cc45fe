"""Unit-level decision memoization: identity, invalidation, persistence.

Three contracts from ``docs/search.md``'s decision-memoization section:

* **Replay identity** — with the decision cache enabled (cold or warm, any
  backend) the optimizer's final plans are bit-identical to a cache-disabled
  run: same ``signature()``, same per-job configurations, same recorded
  history.  A warm run additionally skips the search (one final what-if
  query, zero RRS evaluations).
* **Invalidation** — changing *any* input of the decision key (a profile, a
  job or dataset annotation, the cluster, an RRS knob, the search seed, the
  transformation set, the cost-model version) produces a cache *miss*, never
  a stale hit.
* **Persistence** — a persisted decision file warm-starts a later cache
  bit-identically, and is rejected wholesale — without raising — when
  corrupt, truncated, or stamped with a different format/model/cluster
  (mirroring ``tests/test_cache_persistence.py`` for the cost cache).

The RRS sample-dedup and composed-combination-dedup satellites are covered
here too: both must provably reduce objective calls without moving the
argmin.
"""

import copyreg
import dataclasses
import hashlib
import os
import pickle

import pytest

from repro.cluster import ClusterSpec
from repro.common.content_keys import PipelineContentKey, VertexContentKey
from repro.common.store import _RestrictedUnpickler, persist, resolve_env_path
from repro.core.decision_cache import (
    DECISION_CACHE_FORMAT_VERSION,
    DECISION_CACHE_PATH_ENV_VAR,
    DecisionCache,
    DecisionKey,
)
from repro.core.optimization_unit import OptimizationUnit, OptimizationUnitGenerator
from repro.core.optimizer import StubbyOptimizer
from repro.core.rrs import RecursiveRandomSearch
from repro.core.search import StubbySearch, SubplanRecord
from repro.core.search import plan_decision_fingerprint as fingerprint
from repro.core.transformations import (
    HorizontalPacking,
    InterJobVerticalPacking,
    IntraJobVerticalPacking,
    PartitionFunctionTransformation,
)
from repro.experiments.harness import ExperimentHarness
from repro.mapreduce.config import ConfigDimension, ConfigurationSpace, JobConfig
from repro.profiler import Profiler
from repro.whatif import CostService
from repro.whatif import model as whatif_model
from repro.workloads import build_workload
from tests import golden_digests as golden

CLUSTER = ClusterSpec.paper_cluster()


def _profiled(abbr="IR", scale=0.05):
    workload = build_workload(abbr, scale=scale)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload


def _optimizer(**kwargs):
    return StubbyOptimizer(CLUSTER, **kwargs)


def _vertical_transformations():
    return [
        IntraJobVerticalPacking(),
        InterJobVerticalPacking(),
        PartitionFunctionTransformation(),
    ]


def _search(**kwargs):
    return StubbySearch(
        cluster=kwargs.pop("cluster", CLUSTER),
        vertical_transformations=_vertical_transformations(),
        horizontal_transformations=[HorizontalPacking(), PartitionFunctionTransformation()],
        **kwargs,
    )


def _first_unit_key(search, plan):
    generator = OptimizationUnitGenerator()
    unit = generator.next_unit(plan)
    subunits = generator.independent_subunits(plan, unit)
    return search._decision_key(plan, subunits, search.vertical_transformations, "vertical")


class TestReplayIdentity:
    @pytest.mark.parametrize("abbr", ("IR", "PJ", "BR"))
    def test_warm_replay_is_bit_identical_and_skips_the_search(self, abbr):
        workload = _profiled(abbr)
        optimizer = _optimizer(decision_cache=DecisionCache(CLUSTER, enabled=True))
        cold = optimizer.optimize(workload.plan)
        assert cold.decision_stats.decision_hits == 0
        assert cold.decision_stats.decision_misses > 0

        warm = optimizer.optimize(workload.plan)
        assert warm.decision_stats.decision_hits == cold.decision_stats.decision_misses
        assert warm.decision_stats.decision_misses == 0
        # Every unit replayed: the only what-if query left is the final
        # whole-plan estimate, and no candidate ran RRS.
        assert warm.cost_stats.queries == 1
        assert all(r.rrs_evaluations == 0 for rep in warm.unit_reports for r in rep.subplans)

        # The hard contract: bit-identical plans, cold vs warm vs disabled.
        disabled = _optimizer(decision_cache=DecisionCache(CLUSTER, enabled=False))
        off = disabled.optimize(workload.plan)
        assert off.decision_stats.lookups == 0
        assert fingerprint(cold.plan) == fingerprint(warm.plan) == fingerprint(off.plan)
        assert cold.plan.signature() == warm.plan.signature()
        assert cold.estimated_cost_s == warm.estimated_cost_s == off.estimated_cost_s
        assert cold.transformations_applied == warm.transformations_applied
        assert warm.transformations_applied == off.transformations_applied

    def test_verify_hits_mode_asserts_replay_equality(self):
        workload = _profiled()
        cache = DecisionCache(CLUSTER, enabled=True, verify_hits=True)
        optimizer = _optimizer(decision_cache=cache)
        optimizer.optimize(workload.plan)
        # Every hit re-runs the full search and raises on any divergence.
        warm = optimizer.optimize(workload.plan)
        assert warm.decision_stats.decision_hits > 0

    def test_replay_decision_divergence_is_detected(self):
        workload = _profiled()
        cache = DecisionCache(CLUSTER, enabled=True, verify_hits=True)
        optimizer = _optimizer(decision_cache=cache)
        optimizer.optimize(workload.plan)
        # Corrupt one recorded decision in place: verify mode must crash
        # rather than let a wrong replay masquerade as a search result.
        key, decision, _origin = next(
            row for row in cache._cache.items() if any(c.applications for c in row[1].choices)
        )
        broken = dataclasses.replace(
            decision,
            choices=tuple(
                dataclasses.replace(
                    choice, applications=(), transformations=(), best_settings=()
                )
                for choice in decision.choices
            ),
        )
        cache.store(key, broken)
        with pytest.raises(RuntimeError, match="replay diverged"):
            optimizer.optimize(workload.plan)

    def test_shared_cache_hits_across_optimizer_instances(self):
        workload = _profiled()
        cache = DecisionCache(CLUSTER, enabled=True)
        first = _optimizer(decision_cache=cache).optimize(workload.plan)
        second = _optimizer(decision_cache=cache).optimize(workload.plan)
        assert second.decision_stats.decision_hits == first.decision_stats.decision_misses > 0
        assert fingerprint(first.plan) == fingerprint(second.plan)


class TestObservability:
    def test_orchestrated_runs_share_and_attribute_decisions(self):
        harness = ExperimentHarness(scale=0.05)
        first = harness.run(workloads=["IR"], optimizers=("Baseline", "Stubby"), backend="serial")
        second = harness.run(workloads=["IR"], optimizers=("Baseline", "Stubby"), backend="serial")

        assert first.decision_fingerprint() == second.decision_fingerprint()
        assert first.decision_stats.decision_hits == 0
        assert first.decision_stats.stores > 0
        # The second run replays every unit the first run solved; the hits
        # are cross-origin because run tokens differ between run() calls.
        assert second.decision_stats.decision_hits > 0
        assert second.decision_stats.cross_origin_hits == second.decision_stats.decision_hits
        assert second.decision_stats.hit_rate == 1.0

        stubby = second.comparison("IR").runs["Stubby"]
        assert stubby.decision_stats.decision_hits > 0
        assert stubby.decision_stats.decision_misses == 0
        # Decision counters are observability, not results: fingerprints
        # exclude them by design (warmth must never change a decision).
        assert "unit_decision" not in repr(stubby.decision_fingerprint())

    def test_process_backend_merges_worker_decisions(self):
        harness = ExperimentHarness(scale=0.05)
        first = harness.run(workloads=["IR"], optimizers=("Stubby", "Vertical"), backend="process:2")
        assert first.decision_stats.stores > 0
        # Decisions recorded inside forked cell workers merged on join: a
        # second run on the same harness replays them without re-searching.
        second = harness.run(workloads=["IR"], optimizers=("Stubby", "Vertical"), backend="process:2")
        assert second.decision_stats.decision_hits > 0
        assert second.decision_stats.decision_misses == 0
        assert first.decision_fingerprint() == second.decision_fingerprint()

    def test_compare_isolates_optimizers_from_each_other(self):
        harness = ExperimentHarness(scale=0.05)
        comparison = harness.compare("IR", optimizers=("Stubby", "Vertical"))
        # compare() invalidates the decision cache per optimizer (standalone
        # Figure 13 timings), so nothing is served warm within one call.
        for run in comparison.runs.values():
            assert run.decision_stats.decision_hits == 0


class TestInvalidation:
    def test_identical_content_produces_identical_keys(self):
        workload = _profiled()
        search = _search()
        assert _first_unit_key(search, workload.plan) == _first_unit_key(
            search, workload.plan
        )
        # Key equality is content-based: an independently built, identically
        # profiled workload produces the same key object-identity aside.
        twin = _profiled()
        assert _first_unit_key(search, twin.plan) == _first_unit_key(search, workload.plan)

    def test_profile_change_changes_key(self):
        plan = _profiled().plan
        search = _search()
        before = _first_unit_key(search, plan)
        vertex = plan.workflow.jobs[0]
        profile = vertex.annotations.profile
        plan.workflow.annotate_job(
            vertex.name,
            profile=dataclasses.replace(
                profile, map_cpu_cost_per_record=profile.map_cpu_cost_per_record * 2.0
            ),
        )
        assert _first_unit_key(search, plan) != before

    def test_job_annotation_change_changes_key(self):
        plan = _profiled().plan
        search = _search()
        before = _first_unit_key(search, plan)
        plan.workflow.annotate_job(plan.job_names[0], conditions={"probe": 1})
        assert _first_unit_key(search, plan) != before

    def test_dataset_annotation_change_changes_key(self):
        plan = _profiled().plan
        search = _search()
        before = _first_unit_key(search, plan)
        annotated = next(dv for dv in plan.workflow.datasets if dv.annotation is not None)
        plan.workflow.add_dataset(
            annotated.name,
            annotation=dataclasses.replace(
                annotated.annotation, size_bytes=annotated.annotation.size_bytes * 2
            ),
        )
        assert _first_unit_key(search, plan) != before

    @pytest.mark.parametrize("change", ("load", "scale_factor"))
    def test_materialised_dataset_change_changes_key_and_misses(self, change):
        """The key pins each base dataset's logical sizes: fixed per ``load()``,
        times a ``scale_factor`` that is read at every unit."""
        workload = _profiled()
        plan = workload.plan
        name, dataset = next(iter(workload.base_datasets.items()))
        assert plan.workflow.dataset(name).dataset is dataset
        cache = DecisionCache(CLUSTER, enabled=True, verify_hits=True)
        search = _search(decision_cache=cache)
        before = _first_unit_key(search, plan)
        _optimizer(decision_cache=cache).optimize(plan)
        assert _optimizer(decision_cache=cache).optimize(plan).decision_stats.decision_misses == 0

        if change == "load":
            dataset.load(dataset.all_records()[: dataset.num_records // 2])
        else:
            dataset.scale_factor *= 2.0
        assert _first_unit_key(search, plan) != before

        # Every unit misses (nothing stale is replayed), the verifying cache
        # stays green on the way back to warm, and warm == cold.
        changed = _optimizer(decision_cache=cache).optimize(plan)
        assert changed.decision_stats.decision_hits == 0 < changed.decision_stats.decision_misses
        warm = _optimizer(decision_cache=cache).optimize(plan)
        assert warm.decision_stats.decision_misses == 0 < warm.decision_stats.decision_hits
        cold = _optimizer(decision_cache=DecisionCache(CLUSTER, enabled=False)).optimize(plan)
        assert fingerprint(changed.plan) == fingerprint(warm.plan) == fingerprint(cold.plan)
        assert warm.estimated_cost_s == cold.estimated_cost_s

    def test_cluster_change_changes_key_and_sharing_is_refused(self):
        workload = _profiled()
        other_cluster = dataclasses.replace(CLUSTER, num_nodes=CLUSTER.num_nodes + 1)
        before = _first_unit_key(_search(), workload.plan)
        after = _first_unit_key(_search(cluster=other_cluster), workload.plan)
        assert before != after
        with pytest.raises(ValueError, match="different ClusterSpec"):
            DecisionCache.ensure(other_cluster, DecisionCache(CLUSTER))

    def test_rrs_knobs_change_key(self):
        workload = _profiled()
        base = dict(exploration_samples=10, exploitation_samples=8, restarts=1, seed=17)
        before = _first_unit_key(
            _search(rrs=RecursiveRandomSearch(**base)), workload.plan
        )
        for change in (
            {"seed": 18},
            {"exploration_samples": 11},
            {"exploitation_samples": 9},
            {"restarts": 2},
        ):
            rrs = RecursiveRandomSearch(**{**base, **change})
            assert _first_unit_key(_search(rrs=rrs), workload.plan) != before, change

    def test_search_seed_and_configuration_flag_change_key(self):
        workload = _profiled()
        before = _first_unit_key(_search(seed=17), workload.plan)
        assert _first_unit_key(_search(seed=18), workload.plan) != before
        assert (
            _first_unit_key(_search(optimize_configurations=False), workload.plan)
            != before
        )

    def test_transformation_set_changes_key(self):
        workload = _profiled()
        search = _search()
        generator = OptimizationUnitGenerator()
        unit = generator.next_unit(workload.plan)
        subunits = generator.independent_subunits(workload.plan, unit)
        full = search._decision_key(
            workload.plan, subunits, search.vertical_transformations, "vertical"
        )
        reduced = search._decision_key(
            workload.plan, subunits, search.vertical_transformations[:-1], "vertical"
        )
        options_changed = search._decision_key(
            workload.plan,
            subunits,
            [HorizontalPacking(allow_extended=False), PartitionFunctionTransformation()],
            "vertical",
        )
        baseline_horizontal = search._decision_key(
            workload.plan,
            subunits,
            [HorizontalPacking(allow_extended=True), PartitionFunctionTransformation()],
            "vertical",
        )
        assert len({full, reduced, options_changed, baseline_horizontal}) == 4

    def test_cost_model_version_changes_key(self, monkeypatch):
        workload = _profiled()
        search = _search()
        before = _first_unit_key(search, workload.plan)
        monkeypatch.setattr(
            whatif_model, "COST_MODEL_VERSION", whatif_model.COST_MODEL_VERSION + 1
        )
        assert _first_unit_key(search, workload.plan) != before

    def test_changed_seed_never_serves_a_stale_decision(self):
        workload = _profiled()
        cache = DecisionCache(CLUSTER, enabled=True)
        _optimizer(decision_cache=cache, seed=17).optimize(workload.plan)
        rerun = _optimizer(decision_cache=cache, seed=18).optimize(workload.plan)
        assert rerun.decision_stats.decision_hits == 0
        assert rerun.decision_stats.decision_misses > 0


class TestPersistence:
    def _warm_cache(self, workload, path=None):
        cache = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        result = _optimizer(decision_cache=cache).optimize(workload.plan)
        return cache, result

    def test_round_trip_replays_bit_identically(self, tmp_path):
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, cold = self._warm_cache(workload)
        written = cache.save_cache(path)
        assert written == cache.cache_size > 0

        warmed = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        assert warmed.last_load is not None and warmed.last_load.loaded
        assert warmed.last_load.entries == written
        result = _optimizer(decision_cache=warmed).optimize(workload.plan)
        assert result.decision_stats.decision_hits == cold.decision_stats.decision_misses
        # Disk-warm hits are cross-origin: the recording run's origin label
        # (None here) is not this process's lookup origin only when origins
        # differ — entries keep the origin they were stored under, so a
        # same-origin reload still replays identically.
        assert fingerprint(result.plan) == fingerprint(cold.plan)

    def test_save_and_load_require_a_path(self):
        cache = DecisionCache(CLUSTER, enabled=True)
        with pytest.raises(ValueError, match="no decision cache path"):
            cache.save_cache()
        with pytest.raises(ValueError, match="no decision cache path"):
            cache.load_cache()

    def test_missing_file_reports_cleanly(self, tmp_path):
        cache = DecisionCache(CLUSTER, enabled=True, cache_path=str(tmp_path / "absent"))
        assert cache.last_load is not None
        assert not cache.last_load.loaded
        assert "no cache file" in cache.last_load.reason

    def test_corrupt_file_is_rejected_quietly(self, tmp_path):
        path = tmp_path / "decisions.cache"
        path.write_bytes(b"this is not a pickle")
        cache = DecisionCache(CLUSTER, enabled=True, cache_path=str(path))
        assert not cache.last_load.loaded
        assert "unreadable" in cache.last_load.reason
        assert cache.cache_size == 0

    def test_truncated_file_is_rejected_quietly(self, tmp_path):
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, _ = self._warm_cache(workload)
        cache.save_cache(path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        reloaded = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "unreadable" in reloaded.last_load.reason

    def _rewrite_payload(self, path, **overrides):
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload.update(overrides)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

    def test_format_version_mismatch_is_rejected(self, tmp_path):
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, _ = self._warm_cache(workload)
        cache.save_cache(path)
        self._rewrite_payload(path, format_version=DECISION_CACHE_FORMAT_VERSION + 1)
        reloaded = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "format version" in reloaded.last_load.reason

    # Version-2 keys left out two JobConfig fields; version-3 keys name the
    # vertex content key by a module path that no longer holds it: no row of
    # either may be served.
    @pytest.mark.parametrize("old_version", [2, 3, 4])
    def test_version_2_file_is_rejected_whole_and_replaced_on_persist(
        self, tmp_path, old_version
    ):
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, _ = self._warm_cache(workload)
        cache.save_cache(path)
        self._rewrite_payload(path, format_version=old_version)
        reloaded = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        assert not reloaded.last_load.loaded and reloaded.cache_size == 0
        assert "format version" in reloaded.last_load.reason
        _optimizer(decision_cache=reloaded).optimize(workload.plan)
        assert persist([reloaded]) == reloaded.cache_size > 0
        with open(path, "rb") as handle:
            assert pickle.load(handle)["format_version"] == DECISION_CACHE_FORMAT_VERSION == 5
        assert DecisionCache(CLUSTER, enabled=True, cache_path=path).last_load.loaded

    def test_keys_naming_a_class_that_moved_are_rejected_quietly(self, tmp_path, monkeypatch):
        # A version-3 file pickles each vertex content key as a class of
        # ``repro.whatif.model``, which no longer holds it.
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, _ = self._warm_cache(workload)
        cache.save_cache(path)
        old_key = type("_VertexLocalKey", (), {"__module__": whatif_model.__name__})
        monkeypatch.setattr(whatif_model, old_key.__name__, old_key, raising=False)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["entries"] = [((old_key(), key), *rest) for key, *rest in payload["entries"]]
        with open(path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        reloaded = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        assert not reloaded.last_load.loaded and reloaded.cache_size == 0
        assert "unreadable" in reloaded.last_load.reason

    def test_model_version_mismatch_is_rejected(self, tmp_path, monkeypatch):
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, _ = self._warm_cache(workload)
        cache.save_cache(path)
        monkeypatch.setattr(
            whatif_model, "COST_MODEL_VERSION", whatif_model.COST_MODEL_VERSION + 1
        )
        reloaded = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "model version" in reloaded.last_load.reason

    def test_cluster_mismatch_is_rejected(self, tmp_path):
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, _ = self._warm_cache(workload)
        cache.save_cache(path)
        other = dataclasses.replace(CLUSTER, num_nodes=CLUSTER.num_nodes + 1)
        reloaded = DecisionCache(other, enabled=True, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "different ClusterSpec" in reloaded.last_load.reason

    def test_malformed_entries_are_rejected_wholesale(self, tmp_path):
        workload = _profiled()
        path = str(tmp_path / "decisions.cache")
        cache, _ = self._warm_cache(workload)
        cache.save_cache(path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["entries"].append(("bad row",))
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        reloaded = DecisionCache(CLUSTER, enabled=True, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "malformed cache entries" in reloaded.last_load.reason
        assert reloaded.cache_size == 0

    def test_path_variable_is_read_by_the_owner_not_the_cache(self, monkeypatch, tmp_path):
        env_path = str(tmp_path / "env-decisions.cache")
        monkeypatch.setenv("STUBBY_DECISION_CACHE", env_path)
        assert resolve_env_path(None, DECISION_CACHE_PATH_ENV_VAR) == env_path
        assert resolve_env_path("explicit", DECISION_CACHE_PATH_ENV_VAR) == "explicit"
        assert resolve_env_path("", DECISION_CACHE_PATH_ENV_VAR) is None
        assert DecisionCache.ensure(CLUSTER).cache_path is None
        assert ExperimentHarness(scale=0.05).decisions.cache_path == env_path

    def test_disabled_cache_answers_and_stores_nothing(self):
        cache = DecisionCache(CLUSTER, enabled=False)
        assert cache.lookup(("anything",)) is None
        cache.store(("anything",), None)
        assert cache.cache_size == 0
        assert DecisionCache(CLUSTER).enabled

    def test_harness_persists_and_warm_starts_decisions(self, tmp_path):
        path = str(tmp_path / "decisions.cache")
        first = ExperimentHarness(scale=0.05, decision_cache_path=path)
        result1 = first.run(workloads=["IR"], optimizers=("Stubby",))
        assert os.path.exists(path)
        assert result1.decision_cache_path == path

        second = ExperimentHarness(scale=0.05, decision_cache_path=path)
        assert second.decisions.last_load.loaded
        result2 = second.run(workloads=["IR"], optimizers=("Stubby",))
        assert result2.decision_stats.decision_hits > 0
        assert result2.decision_stats.cross_origin_hits == result2.decision_stats.decision_hits
        assert result1.decision_fingerprint() == result2.decision_fingerprint()


#: Optimizes the pinned plans named in ``argv[3]`` on one decision cache and
#: prints ``label hits misses`` per plan; ``write`` then saves the cache to
#: ``argv[2]`` and prints the sha256 of the file's ``repr``, ``read`` starts
#: the cache from that file.
DECISION_FILE_SCRIPT = """
import hashlib, pickle, sys
sys.path.insert(0, {tests!r})
import golden_digests as golden
from repro.cluster import ClusterSpec
from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer

mode, path, labels = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
cluster = ClusterSpec.paper_cluster()
cache = DecisionCache(cluster, enabled=True, cache_path=path if mode == "read" else None)
assert mode == "write" or cache.last_load.loaded, cache.last_load
for label in labels:
    stats = StubbyOptimizer(cluster, seed=17, decision_cache=cache).optimize(
        golden.plan_of(label)
    ).decision_stats
    print(label, stats.decision_hits, stats.decision_misses)
if mode == "write":
    cache.save_cache(path)
    with open(path, "rb") as handle:
        print(hashlib.sha256(repr(pickle.load(handle)).encode()).hexdigest())
"""

#: The plans :data:`DECISION_FILE_SCRIPT` runs in the tests below.
FILE_LABELS = "IR,BR,PJ"

#: The sha256 of ``repr(payload)`` of the decision file that a writer whose
#: keys were plain tuples built per unit saved for :data:`FILE_LABELS`: the
#: rows, their order, the stamps.  A file written now unpickles to the same
#: value, so each writer's file replays under the other's reader.  Only the
#: format stamp has moved since (4 → 5, content keys pickled as constructor
#: calls): with the stamp set back to 4 the payload hashes to
#: ``efc005dd250ed5050769f6795e746ebabb495bf8653d49010da0b974ab45f960``.
PLAIN_KEY_WRITER_CONTENT = "2bc1649566138164e8e03aa29a2ca96d295bfdf6b94d32cc0dd54aadcb14e119"


class TestKeyPersistence:
    def test_the_key_is_the_plain_tuple_and_pickles_as_one(self, tmp_path):
        workload = _profiled()
        key = _first_unit_key(_search(), workload.plan)
        plain = tuple(key)
        assert type(key) is DecisionKey and type(plain) is tuple
        assert key == plain and plain == key
        assert hash(key) == hash(plain)
        assert {plain: "row"}[key] == "row" and {key: "row"}[plain] == "row"
        copied = pickle.loads(pickle.dumps(key))
        assert type(copied) is tuple and copied == plain

        cache = DecisionCache(CLUSTER, enabled=True)
        _optimizer(decision_cache=cache).optimize(workload.plan)
        path = str(tmp_path / "decisions.cache")
        assert cache.save_cache(path) > 0
        # The loader refuses ``builtins.tuple`` as a global: each key must be
        # written as a plain tuple, as a reader of plain-tuple keys expects.
        with open(path, "rb") as handle:
            rows = _RestrictedUnpickler(handle).load()["entries"]
        assert rows and all(type(key) is tuple for key, _, _ in rows)

    def test_a_file_replays_every_unit_under_another_hash_seed(self, tmp_path):
        script = tmp_path / "decision_file.py"
        script.write_text(DECISION_FILE_SCRIPT.format(tests=os.path.dirname(golden.__file__)))
        path = str(tmp_path / "decisions.cache")
        *written, content = golden.run_script_under(
            "0", str(script), "write", path, FILE_LABELS
        ).splitlines()
        assert content == PLAIN_KEY_WRITER_CONTENT
        units = {}
        for line in written:
            label, hits, misses = line.split()
            assert int(hits) == 0 < int(misses)
            units[label] = misses
        replayed = golden.run_script_under("3", str(script), "read", path, FILE_LABELS)
        assert replayed.splitlines() == [f"{label} {units[label]} 0" for label in units]


#: Optimizes the eight canned plans on one cost service and one decision
#: cache and prints ``label hits misses fingerprint-sha256`` per plan;
#: ``write`` then persists both stores under ``argv[2]``, ``read`` starts both
#: from those files.
STORES_FILE_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {tests!r})
import golden_digests as golden
from repro.cluster import ClusterSpec
from repro.common.content_keys import PipelineContentKey, VertexContentKey
from repro.common.store import persist
from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer
from repro.whatif.service import CostService

mode, directory = sys.argv[1], sys.argv[2]
cluster = ClusterSpec.paper_cluster()
costs = CostService(cluster, cache_path=directory + "/costs.cache")
decisions = DecisionCache(cluster, cache_path=directory + "/decisions.cache")
if mode == "read":
    assert costs.last_load.loaded and decisions.last_load.loaded, (costs.last_load, decisions.last_load)
for label in [*golden.GOLDEN][:8]:
    result = StubbyOptimizer(
        cluster, seed=17, cost_service=costs, decision_cache=decisions
    ).optimize(golden.plan_of(label))
    stats = result.decision_stats
    digest = hashlib.sha256(repr(result.decision_fingerprint()).encode()).hexdigest()
    print(label, stats.decision_hits, stats.decision_misses, digest)
if mode == "write":
    persist((costs, decisions))
"""


class TestFilesAcrossHashSeeds:
    def test_canned_stores_written_under_seed_0_replay_every_unit_under_seed_3(self, tmp_path):
        """Content keys keep their hash in a slot: a hash taken under one
        ``PYTHONHASHSEED`` must never be read back under another."""
        script = tmp_path / "stores_file.py"
        script.write_text(STORES_FILE_SCRIPT.format(tests=os.path.dirname(golden.__file__)))
        written = golden.run_script_under("0", str(script), "write", str(tmp_path)).splitlines()
        replayed = golden.run_script_under("3", str(script), "read", str(tmp_path)).splitlines()
        assert len(written) == len(replayed) == 8
        for cold, warm in zip(written, replayed):
            label, hits, misses, digest = cold.split()
            assert int(hits) == 0 < int(misses)
            assert warm.split() == [label, misses, "0", digest]

    def test_a_file_in_the_previous_row_format_is_rejected_whole(self, tmp_path):
        """Version-4 rows pickled the content keys' dataclass state; such a
        file loads nothing, and a merge-save replaces it whole."""
        workload = _profiled()
        cache = DecisionCache(CLUSTER, enabled=True)
        _optimizer(decision_cache=cache).optimize(workload.plan)
        path = tmp_path / "decisions.cache"

        class PreviousFormat(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, (PipelineContentKey, VertexContentKey)):
                    # ``object.__reduce_ex__``'s shape for the state list the
                    # dataclass wrote, as the previous format pickled it.
                    state = [getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init]
                    return copyreg.__newobj__, (type(obj),), state
                return NotImplemented

        rows = cache._entries_snapshot()
        assert any(isinstance(part, VertexContentKey) for part in _parts(rows[0][0]))
        payload = {
            "format_version": 4,
            "model_version": whatif_model.COST_MODEL_VERSION,
            "cluster_key": CLUSTER.cache_key,
            "entries": rows,
        }
        with open(path, "wb") as handle:
            PreviousFormat(handle, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
        reloaded = DecisionCache(CLUSTER, enabled=True, cache_path=str(path))
        assert not reloaded.last_load.loaded and "format version" in reloaded.last_load.reason
        assert reloaded.cache_size == 0
        _optimizer(decision_cache=reloaded).optimize(workload.plan)
        assert persist([reloaded]) == reloaded.cache_size > 0
        assert DecisionCache(CLUSTER, enabled=True, cache_path=str(path)).last_load.loaded


def _parts(value):
    """Every object nested in ``value``'s tuples, depth first."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _parts(item)
    elif isinstance(value, VertexContentKey):
        yield from _parts(value.pipelines)


def _perturbed(value):
    """Another value of one :class:`JobConfig` field, by the field's type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    raise TypeError(
        f"no perturbation rule for a {type(value).__name__} JobConfig field: add one here"
    )


class TestKeyCompleteness:
    """The unit decision key pins every field of :class:`JobConfig`.

    A field the key leaves out serves one plan another plan's decision, warm,
    forever (``forced_single_reduce`` did: ``with_settings`` reads it to
    decide whether RRS may move ``num_reduce_tasks``).  Enumerating
    ``dataclasses.fields`` covers a field the day it is added; the shared
    cache also re-searches every hit (``verify_hits``) as a second oracle.
    """

    @pytest.mark.parametrize("abbr", ["SN", "BR"])
    def test_warm_equals_cold_under_every_single_field_perturbation(self, abbr):
        base = _profiled(abbr).plan
        decisions = DecisionCache(CLUSTER, enabled=True, verify_hits=True)
        costs = CostService(CLUSTER)  # shared as well: worst case for staleness

        def warm(plan):
            return _optimizer(seed=17, decision_cache=decisions, cost_service=costs).optimize(plan)

        warm(base)  # the shared stores have solved the raw plan
        reducing = [v.name for v in base.workflow.jobs if not v.job.is_map_only]
        checked = 0
        # The first reducing job runs many reduce tasks, the last exactly one.
        for name in (reducing[0], reducing[-1]):
            config = base.job(name).job.config
            for config_field in dataclasses.fields(config):
                value = _perturbed(getattr(config, config_field.name))
                perturbed = base.copy()
                perturbed.set_job_config(name, config.replace(**{config_field.name: value}))
                context = f"{abbr} {name}.{config_field.name}={value!r}"
                try:
                    served = warm(perturbed)
                except RuntimeError as exc:  # verify_hits caught a stale hit
                    pytest.fail(f"{context}: {exc}")
                cold = _optimizer(seed=17).optimize(perturbed)
                assert fingerprint(served.plan) == fingerprint(cold.plan), context
                assert served.estimated_cost_s == cold.estimated_cost_s, context
                checked += 1
        assert checked == 2 * len(dataclasses.fields(JobConfig))
        assert decisions.stats.decision_hits > 0


class TestRRSSampleDedup:
    def test_duplicates_are_not_dispatched_and_argmin_is_unchanged(self):
        space = ConfigurationSpace(
            dimensions=[ConfigDimension("x", "int", 1, 3)]
        )
        calls = []

        def objective(point):
            calls.append(point)
            return (point[0] - 3) ** 2

        rrs = RecursiveRandomSearch(
            exploration_samples=12, exploitation_samples=10, restarts=2, seed=7
        )
        result = rrs.search(space, objective=objective)
        # A 3-value space sampled dozens of times must collide constantly...
        assert result.duplicate_points > 0
        # ...and every dispatched point is unique.
        assert len(calls) == result.evaluations
        assert len(calls) == len(set(calls))
        # The argmin is exact: the global optimum of a tiny space.
        assert result.best_point == {"x": 3}
        assert result.best_value == 0

    def test_initial_point_counts_once(self):
        space = ConfigurationSpace(dimensions=[ConfigDimension("x", "int", 1, 2)])
        rrs = RecursiveRandomSearch(
            exploration_samples=5, exploitation_samples=4, restarts=1, seed=3
        )
        calls = []
        result = rrs.search(
            space, objective=lambda p: calls.append(p) or float(p[0]), initial_point={"x": 1}
        )
        # The initial point is drawn again during exploration with high
        # probability; it is still dispatched once, and first.
        assert calls[0] == (1,) and calls.count((1,)) == 1
        assert result.evaluations == len(calls)
        assert result.best_point == {"x": 1}


class TestComposedCombinationDedup:
    def _composed(self, per_subunit):
        workload = _profiled()
        search = _search()
        plan = workload.plan
        subunits = [
            OptimizationUnit(producers=("a",), consumers=()),
            OptimizationUnit(producers=("b",), consumers=()),
        ]
        records = [
            [
                SubplanRecord(
                    plan=plan.copy(),
                    transformations=(),
                    estimated_cost=cost,
                    best_settings=settings,
                )
                for cost, settings in candidates
            ]
            for candidates in per_subunit
        ]
        _, reports = search._choose_composed(
            plan, subunits, records, search.vertical_transformations, "vertical"
        )
        return reports

    def test_identical_compositions_are_costed_once(self):
        # Sub-unit 0 carries two content-identical candidates (same plan
        # signature, no settings): combos (0,0) and (1,0) denote the same
        # composed plan and must share one what-if query.
        reports = self._composed([[(100.0, {}), (100.0, {})], [(50.0, {})]])
        assert reports[0].composition_combinations == 2
        assert reports[0].composition_queries == 1
        # Ties keep the lexicographically smallest index vector.
        assert reports[0].chosen_index == 0
        assert reports[1].chosen_index == 0

    def test_settings_differences_defeat_the_dedup(self, request):
        workload = _profiled()
        job = workload.plan.workflow.jobs[0].name
        reports = self._composed(
            [
                [
                    (100.0, {job: {"split_size_mb": 64}}),
                    (100.0, {job: {"split_size_mb": 128}}),
                ],
                [(50.0, {})],
            ]
        )
        # Same structural signature but different chosen settings → different
        # content keys → both combos are costed.
        assert reports[0].composition_combinations == 2
        assert reports[0].composition_queries == 2
