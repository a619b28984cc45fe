"""Sub-result catalog: signature identity, invalidation, staleness, persistence.

The contracts the ReStore-style catalog (``docs/reuse.md``) must honour,
mirroring ``tests/test_decision_cache.py`` for the decision cache:

* **Identity** — rebuilding the same workflow from the same seed produces
  the same subgraph content signature, and the shared prefix of a
  :meth:`~repro.verification.generator.RandomWorkflowGenerator.
  shared_prefix_pair` signs identically across the pair — the cross-workflow
  hit the reuse rewrite depends on.
* **Invalidation** — changing *any* content input (a job configuration, a
  partition function, a dataset annotation, the base records, the cluster,
  the cost-model version) changes the signature: the catalog misses, never
  serves bytes the submitted subgraph would not have produced.
* **Staleness** — an entry whose backing records were deleted is skipped
  (``stale_skips``), an applied rewrite referencing it aborts with
  :class:`SubResultUnavailableError`, and a memoized decision that replays
  such a rewrite falls back to a fresh search — recomputation, never a
  failed plan.
* **Persistence** — corrupt, truncated, or version/cluster-mismatched
  catalog files are rejected wholesale without raising, exactly like the
  cost and decision caches.
"""

import dataclasses
import os
import pickle

import pytest

from repro.cluster import ClusterSpec
from repro.common.store import attributed, persist, resolve_env_path
from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer
from repro.core.search import plan_decision_fingerprint as fingerprint
from repro.core.subresults import (
    SUBRESULT_CATALOG_FORMAT_VERSION,
    SUBRESULT_CATALOG_PATH_ENV_VAR,
    SubResultCatalog,
    SubResultCatalogStats,
    SubResultEntry,
    SubResultUnavailableError,
    dataset_content_fingerprint,
    producing_cone,
    register_workflow_outputs,
    subgraph_signature,
)
from repro.dfs.dataset import Dataset
from repro.experiments.harness import ExperimentHarness
from repro.mapreduce.config import JobConfig
from repro.mapreduce.partitioner import PartitionFunction
from repro.verification.generator import RandomWorkflowGenerator
from repro.whatif import model as whatif_model
from repro.workflow.executor import WorkflowExecutor
from repro.workloads import build_workload

CLUSTER = ClusterSpec.paper_cluster()

SEED = 42
P0, P1 = f"shared{SEED}_p0", f"shared{SEED}_p1"
SRC = f"shared{SEED}_src"


def _pair(seed=SEED):
    return RandomWorkflowGenerator().shared_prefix_pair(seed)


def _execute_and_register(catalog, generated, origin=None):
    """Execute a generated workflow and register its intermediates."""
    result, _fs = WorkflowExecutor().execute(
        generated.workflow.copy(), generated.base_datasets, collect_outputs=True
    )
    outputs = {}
    for per_job in result.job_outputs.values():
        outputs.update(per_job)
    return register_workflow_outputs(
        catalog, generated.workflow, outputs, origin=origin
    )


def _signatures(catalog):
    return [signature for signature, _entry, _origin in catalog._cache.items()]


class TestSignatures:
    def test_identical_rebuild_produces_identical_signatures(self):
        first, second = _pair()
        sig = subgraph_signature(first.workflow, P1, CLUSTER)
        # The pair's prefix is rebuilt from the same seeded forks: the
        # producing subgraph of p1 signs identically in both workflows even
        # though their tails differ.
        assert subgraph_signature(second.workflow, P1, CLUSTER) == sig
        # A full regeneration from the seed reproduces the signature too.
        rebuilt, _ = _pair()
        assert subgraph_signature(rebuilt.workflow, P1, CLUSTER) == sig
        # Different seeds produce different base data, hence different keys.
        other, _ = _pair(SEED + 1)
        assert (
            subgraph_signature(other.workflow, f"shared{SEED + 1}_p1", CLUSTER) != sig
        )

    def test_producing_cone_walks_to_base_inputs(self):
        first, _ = _pair()
        cone, bases = producing_cone(first.workflow, P1)
        assert cone == (f"S{SEED}_J0", f"S{SEED}_J1")
        assert bases == (SRC,)
        # A workflow input has an empty cone and is its own base.
        assert producing_cone(first.workflow, SRC) == ((), (SRC,))

    def test_job_config_change_misses(self):
        first, _ = _pair()
        before = subgraph_signature(first.workflow, P1, CLUSTER)
        vertex = first.workflow.job(f"S{SEED}_J0")
        config = vertex.job.config
        mutated = config.with_settings({"split_size_mb": config.split_size_mb * 2})
        first.workflow.replace_job(f"S{SEED}_J0", vertex.job.with_config(mutated))
        assert subgraph_signature(first.workflow, P1, CLUSTER) != before

    @pytest.mark.parametrize("source", ["pair", "BR"])
    def test_every_job_config_field_moves_the_signature(self, source):
        """The signature pins ``JobConfig.key``, every field; the six searched
        settings of ``as_dict()`` left ``forced_single_reduce`` out."""
        if source == "pair":
            workflow = _pair()[0].workflow
        else:
            workflow = build_workload(source, scale=0.05).workflow
        checked = 0
        for dataset_vertex in workflow.datasets:
            name = dataset_vertex.name
            producer = workflow.producer_of(name)
            if producer is None or producer.job.is_map_only or not workflow.consumers_of(name):
                continue
            before = subgraph_signature(workflow, name, CLUSTER)
            config = producer.job.config
            for config_field in dataclasses.fields(JobConfig):
                value = getattr(config, config_field.name)
                changed = config.replace(
                    **{config_field.name: (not value) if isinstance(value, bool) else value + 1}
                )
                perturbed = workflow.copy()
                perturbed.update_job(producer.name, lambda job: job.with_config(changed))
                assert subgraph_signature(perturbed, name, CLUSTER) != before, (
                    name, config_field.name
                )
                checked += 1
        assert checked >= len(dataclasses.fields(JobConfig))

    def test_partitioner_change_misses(self):
        first, _ = _pair()
        before = subgraph_signature(first.workflow, P1, CLUSTER)
        vertex = first.workflow.job(f"S{SEED}_J1")
        current = vertex.job.effective_partitioner
        forced = PartitionFunction(
            kind="hash", fields=current.fields, sort_fields=current.fields + ("extra",)
        )
        first.workflow.replace_job(f"S{SEED}_J1", vertex.job.with_partitioner(forced))
        assert subgraph_signature(first.workflow, P1, CLUSTER) != before

    def test_dataset_annotation_change_misses(self):
        first, _ = _pair()
        before = subgraph_signature(first.workflow, P1, CLUSTER)
        annotated = first.workflow.dataset(SRC)
        first.workflow.add_dataset(
            SRC,
            annotation=dataclasses.replace(
                annotated.annotation, size_bytes=annotated.annotation.size_bytes * 2
            ),
        )
        assert subgraph_signature(first.workflow, P1, CLUSTER) != before

    def test_base_record_change_misses(self):
        first, _ = _pair()
        before = subgraph_signature(first.workflow, P1, CLUSTER)
        vertex = first.workflow.dataset(SRC)
        records = [dict(record) for record in vertex.dataset.records()][:-1]
        first.workflow.add_dataset(
            SRC,
            dataset=Dataset(SRC, records=records, scale_factor=vertex.dataset.scale_factor),
            annotation=vertex.annotation,
        )
        # Same structure over different base bytes must never share an entry.
        assert subgraph_signature(first.workflow, P1, CLUSTER) != before

    def test_cluster_change_misses(self):
        first, _ = _pair()
        other = dataclasses.replace(CLUSTER, num_nodes=CLUSTER.num_nodes + 1)
        assert subgraph_signature(first.workflow, P1, CLUSTER) != subgraph_signature(
            first.workflow, P1, other
        )

    def test_cost_model_version_change_misses(self, monkeypatch):
        first, _ = _pair()
        before = subgraph_signature(first.workflow, P1, CLUSTER)
        monkeypatch.setattr(
            whatif_model, "COST_MODEL_VERSION", whatif_model.COST_MODEL_VERSION + 1
        )
        assert subgraph_signature(first.workflow, P1, CLUSTER) != before

    def test_record_fingerprint_is_order_independent(self):
        rows = [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}]
        assert dataset_content_fingerprint(
            Dataset("d", records=rows)
        ) == dataset_content_fingerprint(Dataset("d", records=list(reversed(rows))))
        assert dataset_content_fingerprint(
            Dataset("d", records=rows)
        ) != dataset_content_fingerprint(Dataset("d", records=rows[:1]))
        assert dataset_content_fingerprint(None) is None


class TestCatalogTraffic:
    def test_registration_stores_only_intermediates(self):
        first, _ = _pair()
        catalog = SubResultCatalog(CLUSTER)
        registered = _execute_and_register(catalog, first)
        # Exactly the two prefix intermediates: the base input has no
        # producer and the tail output has no consumer.
        assert registered == 2
        assert catalog.catalog_size == 2
        assert catalog.stats_snapshot().stores == 2
        names = {sig[1] for sig in _signatures(catalog)}
        assert names == {P0, P1}

    def test_probe_hit_miss_and_cross_origin_accounting(self):
        first, second = _pair()
        catalog = SubResultCatalog(CLUSTER)
        _execute_and_register(catalog, first, origin="producer")
        signature = subgraph_signature(second.workflow, P1, CLUSTER)

        sink = SubResultCatalogStats()
        with catalog.attribute_to(sink):
            with attributed((), "producer"):
                entry = catalog.probe(signature)
            assert entry is not None and entry.has_payload
            assert entry.producing_jobs == (f"S{SEED}_J0", f"S{SEED}_J1")
            # Same origin: a hit, but not a cross-origin one.
            assert sink.cross_origin_hits == 0
            with attributed((), "consumer"):
                assert catalog.probe(signature) is not None
                assert catalog.probe(("subresult", "nonsense")) is None
        assert sink.hits == 2
        assert sink.misses == 1
        assert sink.cross_origin_hits == 1
        assert sink.lookups == 3
        assert sink.hit_rate == pytest.approx(2 / 3)

    def test_origin_context_manager_labels_stores_and_hits(self):
        first, _ = _pair()
        catalog = SubResultCatalog(CLUSTER)
        with attributed((catalog,), "wave-1"):
            _execute_and_register(catalog, first)
        signature = subgraph_signature(first.workflow, P1, CLUSTER)
        with attributed((catalog,), "wave-2"):
            assert catalog.probe(signature) is not None
        assert catalog.stats_snapshot().cross_origin_hits == 1
        with attributed((catalog,), "wave-1"):
            assert catalog.probe(signature) is not None
        assert catalog.stats_snapshot().cross_origin_hits == 1

    def test_a_plain_optimize_credits_its_eliminated_jobs_once(self):
        first, second = _pair()
        catalog = SubResultCatalog(CLUSTER)
        _execute_and_register(catalog, first, origin="producer")
        before = catalog.stats_snapshot()
        result = StubbyOptimizer(CLUSTER, subresult_catalog=catalog).optimize(second.plan)
        # The result's ledger is the catalog's whole delta, and the credit is
        # the final plan's count, not the candidates' (losers also apply()).
        assert result.subresult_stats == catalog.stats_snapshot().since(before)
        assert result.subresult_stats.jobs_eliminated == result.jobs_eliminated_by_reuse >= 1
        assert result.subresult_stats.cross_origin_hits > 0

    def test_stale_entry_is_skipped_and_fetch_raises(self):
        first, _ = _pair()
        catalog = SubResultCatalog(CLUSTER)
        _execute_and_register(catalog, first)
        signature = subgraph_signature(first.workflow, P1, CLUSTER)
        assert catalog.evict_payload(signature)
        # The signature survives but the backing data is gone: probes skip
        # it quietly, fetches (an applied rewrite) fail loudly.
        assert catalog.probe(signature) is None
        assert catalog.stats_snapshot().stale_skips == 1
        with pytest.raises(SubResultUnavailableError):
            catalog.fetch(signature)
        assert not catalog.evict_payload(("subresult", "absent"))

    def test_disabled_catalog_is_behaviourally_invisible(self):
        first, _ = _pair()
        catalog = SubResultCatalog(CLUSTER, enabled=False)
        assert _execute_and_register(catalog, first) == 0
        catalog.store(("subresult", "x"), SubResultEntry("x", (), None))
        assert catalog.catalog_size == 0
        assert catalog.probe(("subresult", "x")) is None
        assert catalog.stats_snapshot().lookups == 0
        with pytest.raises(SubResultUnavailableError, match="disabled"):
            catalog.fetch(("subresult", "x"))
        assert catalog.decision_key_content() == ("subresult-catalog", "disabled")

    def test_catalog_sharing_across_clusters_is_refused(self):
        other = dataclasses.replace(CLUSTER, num_nodes=CLUSTER.num_nodes + 1)
        with pytest.raises(ValueError, match="different ClusterSpec"):
            SubResultCatalog.ensure(other, SubResultCatalog(CLUSTER))
        shared = SubResultCatalog(CLUSTER)
        assert SubResultCatalog.ensure(CLUSTER, shared) is shared

    def test_decision_key_content_moves_with_the_catalog(self):
        first, _ = _pair()
        catalog = SubResultCatalog(CLUSTER)
        empty = catalog.decision_key_content()
        _execute_and_register(catalog, first)
        warm = catalog.decision_key_content()
        assert warm != empty
        assert catalog.decision_key_content() == warm  # cached between mutations
        catalog.evict_payload(subgraph_signature(first.workflow, P1, CLUSTER))
        assert catalog.decision_key_content() != warm
        catalog.invalidate()
        assert catalog.catalog_size == 0


class TestStaleFallback:
    def test_stale_entry_under_decision_replay_falls_back_to_recompute(self):
        """The deployment fault: data deleted between warm runs.

        Run 1 records unit decisions that substitute stored sub-results.
        The backing records are then deleted (``evict_payload``), which
        moves the catalog's part of every decision key, so run 2 misses
        each unit and re-searches — landing on the recompute plan a
        catalog-less optimizer would have picked.  A decision that *is*
        replayed and cannot fetch its sub-result is
        :meth:`test_an_unreplayable_hit_is_one_miss_in_the_ledger`.
        """
        first, second = _pair()
        catalog = SubResultCatalog(CLUSTER)
        _execute_and_register(catalog, first, origin="producer")
        decisions = DecisionCache(CLUSTER, enabled=True)
        optimizer = StubbyOptimizer(
            CLUSTER, subresult_catalog=catalog, decision_cache=decisions
        )
        warm = optimizer.optimize(second.plan)
        assert warm.subresult_reuse_applications >= 1
        assert warm.jobs_eliminated_by_reuse >= 2

        for signature in _signatures(catalog):
            catalog.evict_payload(signature)
        replayed = optimizer.optimize(second.plan)
        assert replayed.subresult_reuse_applications == 0
        assert replayed.jobs_eliminated_by_reuse == 0

        reference = StubbyOptimizer(CLUSTER).optimize(_pair()[1].plan)
        assert fingerprint(replayed.plan) == fingerprint(reference.plan)

    def test_an_unreplayable_hit_is_one_miss_in_the_ledger(self, monkeypatch):
        """A decision whose replay cannot fetch its sub-result is counted once,
        as the miss its unit report says it was — not as a hit as well."""
        first, second = _pair()
        catalog = SubResultCatalog(CLUSTER)
        _execute_and_register(catalog, first, origin="producer")
        decisions = DecisionCache(CLUSTER, enabled=True)
        optimizer = StubbyOptimizer(CLUSTER, subresult_catalog=catalog, decision_cache=decisions)
        cold = optimizer.optimize(second.plan)
        assert cold.subresult_reuse_applications >= 1

        def unavailable(self, signature):
            raise SubResultUnavailableError("forced for the test")

        monkeypatch.setattr(SubResultCatalog, "fetch", unavailable)
        before = decisions.stats_snapshot()
        warm = optimizer.optimize(second.plan)
        reports = warm.unit_reports
        ledger = warm.decision_stats
        assert ledger == decisions.stats_snapshot().since(before)
        hits = sum(report.unit_decision_hits for report in reports)
        misses = sum(report.unit_decision_misses for report in reports)
        # The reuse unit could not replay: it was searched again and stored.
        assert misses >= 1 and ledger.stores == misses
        assert (ledger.decision_hits, ledger.decision_misses) == (hits, misses)
        assert ledger.cross_origin_hits == sum(
            report.cross_origin_decision_hits for report in reports
        )
        # A unit's first report carries its hit or miss; the rest are its
        # other sub-units.
        replayed, in_hit = 0, False
        for report in reports:
            if report.unit_decision_hits or report.unit_decision_misses:
                in_hit = bool(report.unit_decision_hits)
            replayed += in_hit
        assert ledger.replayed_subunits == replayed

    def test_cold_search_over_stale_catalog_recomputes(self):
        first, second = _pair()
        catalog = SubResultCatalog(CLUSTER)
        _execute_and_register(catalog, first)
        for signature in _signatures(catalog):
            catalog.evict_payload(signature)
        # find_applications probes, sees no payload, proposes nothing: the
        # candidate set is exactly the recompute one.
        result = StubbyOptimizer(CLUSTER, subresult_catalog=catalog).optimize(
            second.plan
        )
        assert result.subresult_reuse_applications == 0
        reference = StubbyOptimizer(CLUSTER).optimize(_pair()[1].plan)
        assert fingerprint(result.plan) == fingerprint(reference.plan)


class TestPersistence:
    def _warm_catalog(self, path=None):
        first, second = _pair()
        catalog = SubResultCatalog(CLUSTER, cache_path=path)
        _execute_and_register(catalog, first, origin="producer")
        return catalog, first, second

    def test_round_trip_restores_every_entry(self, tmp_path):
        path = str(tmp_path / "subresults.catalog")
        catalog, first, second = self._warm_catalog()
        written = catalog.save_cache(path)
        assert written == catalog.catalog_size == 2

        warmed = SubResultCatalog(CLUSTER, cache_path=path)
        assert warmed.last_load is not None and warmed.last_load.loaded
        assert warmed.last_load.entries == written
        entry = warmed.probe(subgraph_signature(second.workflow, P1, CLUSTER))
        assert entry is not None and entry.has_payload
        # Entries keep the origin they were registered under, so disk-warm
        # hits from another origin still count as cross-origin reuse.
        assert warmed.stats_snapshot().cross_origin_hits == 1
        # And the restored records drive the same rewrite the live catalog
        # would have: the warmed optimizer eliminates the shared prefix.
        result = StubbyOptimizer(CLUSTER, subresult_catalog=warmed).optimize(
            second.plan
        )
        assert result.jobs_eliminated_by_reuse >= 2

    def test_save_and_load_require_a_path(self):
        catalog = SubResultCatalog(CLUSTER)
        with pytest.raises(ValueError, match="no catalog path"):
            catalog.save_cache()
        with pytest.raises(ValueError, match="no catalog path"):
            catalog.load_cache()

    def test_missing_file_reports_cleanly(self, tmp_path):
        catalog = SubResultCatalog(CLUSTER, cache_path=str(tmp_path / "absent"))
        assert catalog.last_load is not None
        assert not catalog.last_load.loaded
        assert "no catalog file" in catalog.last_load.reason

    def test_corrupt_file_is_rejected_quietly(self, tmp_path):
        path = tmp_path / "subresults.catalog"
        path.write_bytes(b"this is not a pickle")
        catalog = SubResultCatalog(CLUSTER, cache_path=str(path))
        assert not catalog.last_load.loaded
        assert "unreadable" in catalog.last_load.reason
        assert catalog.catalog_size == 0

    def test_truncated_file_is_rejected_quietly(self, tmp_path):
        path = str(tmp_path / "subresults.catalog")
        catalog, _, _ = self._warm_catalog()
        catalog.save_cache(path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        reloaded = SubResultCatalog(CLUSTER, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "unreadable" in reloaded.last_load.reason
        assert reloaded.catalog_size == 0

    def _rewrite_payload(self, path, **overrides):
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload.update(overrides)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

    def test_format_version_mismatch_is_rejected(self, tmp_path):
        path = str(tmp_path / "subresults.catalog")
        catalog, _, _ = self._warm_catalog()
        catalog.save_cache(path)
        self._rewrite_payload(path, format_version=SUBRESULT_CATALOG_FORMAT_VERSION + 1)
        reloaded = SubResultCatalog(CLUSTER, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "format version" in reloaded.last_load.reason

    def test_version_1_file_is_rejected_whole_and_replaced_on_persist(self, tmp_path):
        # Version-1 signatures keyed six JobConfig fields: no row may be served.
        path = str(tmp_path / "subresults.catalog")
        catalog, first, _ = self._warm_catalog()
        catalog.save_cache(path)
        self._rewrite_payload(path, format_version=1)
        reloaded = SubResultCatalog(CLUSTER, cache_path=path)
        assert not reloaded.last_load.loaded and reloaded.catalog_size == 0
        assert "format version" in reloaded.last_load.reason
        _execute_and_register(reloaded, first)
        assert persist([reloaded]) == reloaded.catalog_size == 2
        with open(path, "rb") as handle:
            assert pickle.load(handle)["format_version"] == SUBRESULT_CATALOG_FORMAT_VERSION == 3
        assert SubResultCatalog(CLUSTER, cache_path=path).last_load.loaded

    def test_model_version_mismatch_is_rejected(self, tmp_path, monkeypatch):
        path = str(tmp_path / "subresults.catalog")
        catalog, _, _ = self._warm_catalog()
        catalog.save_cache(path)
        monkeypatch.setattr(
            whatif_model, "COST_MODEL_VERSION", whatif_model.COST_MODEL_VERSION + 1
        )
        reloaded = SubResultCatalog(CLUSTER, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "model version" in reloaded.last_load.reason

    def test_cluster_mismatch_is_rejected(self, tmp_path):
        path = str(tmp_path / "subresults.catalog")
        catalog, _, _ = self._warm_catalog()
        catalog.save_cache(path)
        other = dataclasses.replace(CLUSTER, num_nodes=CLUSTER.num_nodes + 1)
        reloaded = SubResultCatalog(other, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "different ClusterSpec" in reloaded.last_load.reason

    def test_malformed_entries_are_rejected_wholesale(self, tmp_path):
        path = str(tmp_path / "subresults.catalog")
        catalog, _, _ = self._warm_catalog()
        catalog.save_cache(path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["entries"].append(("bad row",))
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        reloaded = SubResultCatalog(CLUSTER, cache_path=path)
        assert not reloaded.last_load.loaded
        assert "malformed catalog entries" in reloaded.last_load.reason
        assert reloaded.catalog_size == 0

    def test_merge_first_save_never_shrinks_a_richer_store(self, tmp_path):
        path = str(tmp_path / "subresults.catalog")
        catalog, _, _ = self._warm_catalog()
        catalog.save_cache(path)
        sparse = SubResultCatalog(CLUSTER)
        assert sparse.save_cache(path, merge_first=True) == 2

    def test_path_variable_is_read_by_the_owner_not_the_catalog(self, monkeypatch, tmp_path):
        env_path = str(tmp_path / "env-subresults.catalog")
        monkeypatch.setenv("STUBBY_SUBRESULT_CATALOG", env_path)
        assert resolve_env_path(None, SUBRESULT_CATALOG_PATH_ENV_VAR) == env_path
        assert resolve_env_path("explicit", SUBRESULT_CATALOG_PATH_ENV_VAR) == "explicit"
        assert resolve_env_path("", SUBRESULT_CATALOG_PATH_ENV_VAR) is None
        assert SubResultCatalog.ensure(CLUSTER).cache_path is None
        assert ExperimentHarness(scale=0.05).subresults.cache_path == env_path

    def test_disabled_catalog_stores_nothing(self):
        catalog = SubResultCatalog(CLUSTER, enabled=False)
        catalog.store(("subresult", "x"), SubResultEntry("x", (), None))
        assert catalog.catalog_size == 0
        assert SubResultCatalog(CLUSTER).enabled

    def test_harness_persists_and_warm_starts_the_catalog(self, tmp_path):
        path = str(tmp_path / "subresults.catalog")
        first = ExperimentHarness(scale=0.05, subresult_catalog_path=path)
        assert first.register_workload_subresults("IR") > 0
        result1 = first.run(workloads=["IR"], optimizers=("Stubby",))
        assert os.path.exists(path)
        assert result1.subresult_catalog_path == path
        assert result1.subresult_stats.jobs_eliminated >= 1

        second = ExperimentHarness(scale=0.05, subresult_catalog_path=path)
        assert second.subresults.last_load.loaded
        result2 = second.run(workloads=["IR"], optimizers=("Stubby",))
        assert result2.subresult_stats.jobs_eliminated >= 1
        assert result2.subresult_stats.cross_origin_hits > 0
        assert result1.decision_fingerprint() == result2.decision_fingerprint()
