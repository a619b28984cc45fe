"""One contract over the three stores built on ``repro.common.store``.

``CostService``, ``DecisionCache`` and ``SubResultCatalog`` differ in what a
key is and what a lookup counts, but share one mechanism — the locked LRU,
stats sinks, the ``attributed()`` scope, export log and versioned persistence of
:class:`~repro.common.store.ShardedStore`.  Every behaviour below is asserted
for all three, through the same test body, so the shared mechanism cannot
drift per store again.  Store-specific behaviour (estimate exactness, replay
identity, signature invalidation) stays in the stores' own test files.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import pytest

import repro.core.decision_cache as decision_module
import repro.core.subresults as subresults_module
import repro.whatif.service as service_module
from repro.cluster import ClusterSpec
from repro.common.store import ShardedLRU, ShardedStore, attributed, current_origin, persist
from repro.core.decision_cache import DecisionCache, SubunitChoice, UnitDecision
from repro.core.parallel import create_backend, store_side_channel
from repro.core.subresults import SubResultCatalog, SubResultEntry
from repro.experiments import ExperimentHarness
from repro.profiler import Profiler
from repro.verification import truncate_file
from repro.whatif import model as whatif_model
from repro.whatif.service import CostService
from repro.workloads import build_workload

CLUSTER = ClusterSpec.paper_cluster()
OTHER_CLUSTER = dataclasses.replace(CLUSTER, num_nodes=CLUSTER.num_nodes + 1)

#: Entries one ``populate`` call writes, at least.
MIN_POPULATED = 4


@dataclass(frozen=True)
class Kind:
    """How the contract drives one store class through its public surface."""

    name: str
    cls: type
    #: ``make(cluster, enabled, cache_path)`` -> a store.
    make: Callable[..., ShardedStore]
    #: ``populate(store, origin)``: >= MIN_POPULATED public writes (and at
    #: least one counted lookup) under ``origin``.
    populate: Callable[[ShardedStore, str], None]
    #: ``revisit(store)``: store one fixed unit of content, or — when it is
    #: already held — hit it; returns how many entries that unit is.
    revisit: Callable[[ShardedStore], int]
    #: The module-level constants the class attributes must mirror.
    format_version: int
    max_exported: int

    def build(self, cluster=CLUSTER, enabled=True, cache_path=None) -> ShardedStore:
        return self.make(cluster, enabled, cache_path)


_WORKFLOW = []


def _profiled_workflow():
    if not _WORKFLOW:
        # Seven jobs: one cost row per job, so a populate clears MIN_POPULATED.
        workload = build_workload("BR", scale=0.1)
        Profiler().profile_workflow(workload.workflow, workload.base_datasets)
        _WORKFLOW.append(workload.workflow)
    return _WORKFLOW[0]


def _populate_costs(service, origin):
    with attributed((service,), origin):
        service.estimate_workflow(_profiled_workflow())


def _revisit_costs(service):
    workflow = _profiled_workflow()
    service.estimate_workflow(workflow)
    return len(workflow.jobs)


def _populate_decisions(cache, origin):
    decision = UnitDecision(choices=(SubunitChoice.no_op(),))
    with attributed((cache,), origin):
        cache.lookup(("unit", origin, "absent"))
        for index in range(MIN_POPULATED + 1):
            cache.store(("unit", origin, index), decision)


def _revisit_decisions(cache):
    if cache.lookup(("unit", "revisited")) is None:
        cache.store(("unit", "revisited"), UnitDecision(choices=(SubunitChoice.no_op(),)))
    return 1


def _populate_catalog(catalog, origin):
    with attributed((catalog,), origin):
        catalog.probe(("subresult", origin, "absent"))
        for index in range(MIN_POPULATED + 1):
            entry = SubResultEntry(f"d{index}", ({"k": index},), None)
            catalog.store(("subresult", origin, index), entry)


def _revisit_catalog(catalog):
    if catalog.probe(("subresult", "revisited")) is None:
        catalog.store(("subresult", "revisited"), SubResultEntry("d", ({"k": 0},), None))
    return 1


KINDS = [
    Kind(
        "cost",
        CostService,
        lambda cluster, enabled, path: CostService(cluster, enable_cache=enabled, cache_path=path),
        _populate_costs,
        _revisit_costs,
        service_module.CACHE_FORMAT_VERSION,
        service_module.MAX_EXPORTED_ENTRIES,
    ),
    Kind(
        "decision",
        DecisionCache,
        lambda cluster, enabled, path: DecisionCache(cluster, enabled=enabled, cache_path=path),
        _populate_decisions,
        _revisit_decisions,
        decision_module.DECISION_CACHE_FORMAT_VERSION,
        decision_module.MAX_EXPORTED_DECISIONS,
    ),
    Kind(
        "catalog",
        SubResultCatalog,
        lambda cluster, enabled, path: SubResultCatalog(cluster, enabled=enabled, cache_path=path),
        _populate_catalog,
        _revisit_catalog,
        subresults_module.SUBRESULT_CATALOG_FORMAT_VERSION,
        subresults_module.MAX_EXPORTED_SUBRESULTS,
    ),
]


@pytest.fixture(params=KINDS, ids=lambda kind: kind.name)
def kind(request) -> Kind:
    return request.param


def without_values(rows):
    """Persisted/exported rows minus their values: ``(key, origin)``."""
    return [(key, origin) for key, _value, origin in rows]


def identities(store):
    """What the store holds, values aside, as a set."""
    return set(without_values(store._entries_snapshot()))


def saved_file(kind, path, origin="alpha"):
    """A populated store persisted to ``path``; returns the store."""
    source = kind.build()
    kind.populate(source, origin)
    assert source.save_cache(str(path)) == len(identities(source)) >= MIN_POPULATED
    return source


def rewrite_payload(path, mutate):
    payload = pickle.loads(path.read_bytes())
    mutate(payload)
    path.write_bytes(pickle.dumps(payload))


# --------------------------------------------------------------------------
class TestPersistence:
    def test_class_attributes_mirror_the_module_constants(self, kind):
        assert kind.cls.FORMAT_VERSION == kind.format_version
        assert kind.cls.MAX_EXPORTED == kind.max_exported

    def test_round_trip_preserves_entries_and_origin_tags(self, kind, tmp_path):
        path = tmp_path / "store.bin"
        source = saved_file(kind, path, origin="alpha")
        warmed = kind.build(cache_path=str(path))
        assert warmed.last_load is not None and warmed.last_load.loaded
        assert warmed.last_load.entries == len(identities(source))
        assert identities(warmed) == identities(source)
        assert {identity[-1] for identity in identities(warmed)} == {"alpha"}

    @pytest.mark.parametrize(
        "rung, fragment",
        [
            ("missing", "no "),
            ("truncated", "unreadable"),
            ("non-dict", "malformed"),
            ("format", "format version"),
            ("model", "model version"),
            ("cluster", "different ClusterSpec"),
            ("row", "malformed"),
        ],
    )
    def test_every_rejection_rung_absorbs_nothing(
        self, kind, tmp_path, monkeypatch, rung, fragment
    ):
        path = tmp_path / "store.bin"
        cluster = CLUSTER
        if rung != "missing":
            saved_file(kind, path)
        if rung == "truncated":
            assert truncate_file(str(path), fraction=0.5)
        elif rung == "non-dict":
            path.write_bytes(pickle.dumps([1, 2, 3]))
        elif rung == "format":
            rewrite_payload(
                path, lambda payload: payload.update(format_version=kind.format_version + 1)
            )
        elif rung == "model":
            for module in (whatif_model, service_module):
                monkeypatch.setattr(module, "COST_MODEL_VERSION", module.COST_MODEL_VERSION + 1)
        elif rung == "cluster":
            cluster = OTHER_CLUSTER
        elif rung == "row":
            # Valid rows ahead of one bad row must not slip in.
            rewrite_payload(path, lambda payload: payload["entries"].append(("stray",)))

        store = kind.build(cluster=cluster, cache_path=str(path))
        assert store.last_load is not None and not store.last_load.loaded
        assert fragment in store.last_load.reason
        assert store.cache_size == 0 and identities(store) == set()
        # An explicit load says the same, still without raising.
        assert not store.load_cache().loaded
        assert identities(store) == set()

    def test_merge_first_never_shrinks_a_richer_file(self, kind, tmp_path):
        path = tmp_path / "store.bin"
        rich = saved_file(kind, path)
        cold = kind.build()  # never warm-started, holds nothing
        written = cold.save_cache(str(path), merge_first=True)
        assert written == len(identities(rich))
        assert identities(kind.build(cache_path=str(path))) == identities(rich)

    def test_save_and_load_require_a_path(self, kind):
        store = kind.build()
        with pytest.raises(ValueError, match="path configured"):
            store.save_cache()
        with pytest.raises(ValueError, match="path configured"):
            store.load_cache()


# --------------------------------------------------------------------------
class TestMergeOnJoin:
    def test_export_then_absorb_is_idempotent(self, kind):
        worker = kind.build()
        worker.start_export_log()
        kind.populate(worker, "worker")
        exported = worker.export_log_entries()
        assert len(exported) == len(identities(worker)) >= MIN_POPULATED
        assert worker.export_log_entries() == []  # drained, and logging stopped

        parent = kind.build()
        parent.absorb_entries(exported)
        once = identities(parent)
        assert once == identities(worker)
        parent.absorb_entries(exported)
        assert identities(parent) == once

    def test_export_is_capped_at_the_freshest_entries(self, kind, monkeypatch):
        uncapped = kind.build()
        uncapped.start_export_log()
        kind.populate(uncapped, "worker")
        everything = uncapped.export_log_entries()

        monkeypatch.setattr(kind.cls, "MAX_EXPORTED", 3)
        capped = kind.build()
        capped.start_export_log()
        kind.populate(capped, "worker")
        freshest = capped.export_log_entries()
        assert len(everything) > 3 == len(freshest)
        assert without_values(freshest) == without_values(everything)[-3:]


# --------------------------------------------------------------------------
class TestAttribution:
    def test_nested_sinks_see_exactly_the_global_delta(self, kind):
        store = kind.build()
        before = store.stats_snapshot()
        outer, inner = kind.cls.STATS(), kind.cls.STATS()
        with store.attribute_to(outer):
            with store.attribute_to(inner):
                kind.populate(store, "cell")
        delta = store.stats_snapshot().since(before)
        assert any(delta.as_dict().values())
        assert outer == inner == delta
        # Outside the scopes the sinks are closed: nothing more is credited.
        kind.populate(store, "other")
        assert outer == delta

    def test_foreign_delta_counts_everywhere(self, kind):
        store = kind.build()
        foreign = kind.cls.STATS()
        donor = kind.build()
        with donor.attribute_to(foreign):
            kind.populate(donor, "worker")
        sink = kind.cls.STATS()
        with store.attribute_to(sink):
            store.apply_external_delta(foreign)  # a forked worker's merged delta
        assert store.stats_snapshot() == sink == foreign

    def test_concurrent_threads_reconcile_exactly(self, kind):
        """4 raw threads hammer one small store: no lost update, no overshoot.

        The planning server's dispatcher and event-loop threads share the
        stores, so the stats lock, the LRU lock and the thread-local sinks
        and origin label must hold without any pool in between: per-thread
        sink totals sum to the global delta to the counter, and evicting
        under contention never leaves a store above its capacity.
        """
        capacity_arg = "max_cache_entries" if kind.name == "cost" else "max_entries"
        store = kind.cls(CLUSTER, **{capacity_arg: 16})
        rounds = 100  # x (1 counted lookup + >= MIN_POPULATED writes) > 500 calls a thread
        _profiled_workflow()  # built once, before the threads race to build it
        before = store.stats_snapshot()
        sinks = [kind.cls.STATS() for _ in range(4)]
        errors = []

        def hammer(slot: int) -> None:
            try:
                with store.attribute_to(sinks[slot]):
                    for _ in range(rounds):
                        kind.populate(store, f"thread-{slot}")
            except Exception as exc:  # reported below, on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        delta = store.stats_snapshot().since(before)
        total = kind.cls.STATS()
        for sink in sinks:
            assert any(sink.as_dict().values())
            total.accumulate(sink)
        assert total == delta
        assert 0 < store.cache_size <= store.max_entries == 16


# --------------------------------------------------------------------------
class TestDisabledStore:
    """Disabled means: no lookup, no store, no absorb, no load, no export."""

    def test_a_disabled_store_holds_and_ships_nothing(self, kind, tmp_path):
        path = tmp_path / "store.bin"
        source = saved_file(kind, path)
        rows = source._entries_snapshot()

        disabled = kind.build(enabled=False, cache_path=str(path))
        assert disabled.last_load is None  # the constructor did not even try
        disabled.start_export_log()
        kind.populate(disabled, "anyone")
        disabled.absorb_entries(rows)
        report = disabled.load_cache()
        assert not report.loaded and "disabled" in report.reason
        assert disabled.cache_size == 0 and identities(disabled) == set()
        assert disabled.export_log_entries() == []


# --------------------------------------------------------------------------
class TestShardedLRU:
    """The one LRU under all three stores: exact capacity, total order."""

    def test_restoring_a_key_refreshes_its_recency(self):
        lru = ShardedLRU(3)
        for key in "abc":
            assert lru.store((key,), key)
        assert not lru.store(("a",), "a2")  # rewritten, not new
        lru.store(("d",), "d")  # evicts the LRU entry: b, not the fresh a
        assert lru.lookup(("a",)) == ("a2", None)
        assert lru.lookup(("b",)) is None
        assert len(lru) == 3

    def test_absorbing_a_duplicate_refreshes_its_recency(self):
        decision = UnitDecision(choices=(SubunitChoice.no_op(),))
        cache = DecisionCache(CLUSTER, max_entries=3)
        for index in range(3):
            cache.store(("k", index), decision)
        cache.absorb_entries([(("k", 0), decision, None)])  # a worker re-found k0
        cache.store(("k", 3), decision)
        assert cache.lookup(("k", 0)) is not None
        assert cache.lookup(("k", 1)) is None

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
    def test_capacity_and_eviction_order_ignore_the_hash_seed(self, hash_seed):
        """A capacity-N store holds N string-bearing keys and evicts strict LRU.

        In a subprocess per ``PYTHONHASHSEED``: string hashes differ per
        seed, so anything that places keys by ``hash(key)`` keeps a
        seed-dependent subset (the striped LRU kept 11-12 of 16).
        """
        script = (
            "from repro.cluster import ClusterSpec\n"
            "from repro.core.decision_cache import DecisionCache, SubunitChoice, UnitDecision\n"
            "decision = UnitDecision(choices=(SubunitChoice.no_op(),))\n"
            "cache = DecisionCache(ClusterSpec.paper_cluster(), max_entries=16)\n"
            "keys = [('unit', f'job-{index}') for index in range(24)]\n"
            "for key in keys[:16]:\n"
            "    cache.store(key, decision)\n"
            "print(sum(cache.lookup(key) is not None for key in keys[:16]))\n"
            "for key in keys[16:]:\n"
            "    cache.store(key, decision)\n"
            "print([key[1] for key, _value, _origin in cache._entries_snapshot()])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.dirname(service_module.__file__)))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        held, survivors = done.stdout.splitlines()
        assert held == "16"
        assert survivors == str([f"job-{index}" for index in range(8, 24)])


# --------------------------------------------------------------------------
class TestAttributedScope:
    """``attributed(stores, label)``: one ambient label, one fresh sink per store."""

    def test_nested_scopes_restore_the_outer_label(self, kind):
        store = kind.build()
        assert current_origin() is None
        with attributed((store,), "outer") as (outer,):
            assert current_origin() == "outer"
            with attributed((store,), "inner") as (inner,):
                assert current_origin() == "inner"
                kind.populate(store, "inner")  # nests a third scope of its own
                assert current_origin() == "inner"
            assert current_origin() == "outer"
            with pytest.raises(RuntimeError):
                with attributed((store,), "failing"):
                    raise RuntimeError("body failed")
            assert current_origin() == "outer"
        assert current_origin() is None
        assert outer == inner == store.stats_snapshot()
        assert store._sink_stack() == []

    @pytest.mark.parametrize("spec", ["serial", "process:2"])
    def test_sink_equals_the_global_delta_on(self, kind, spec):
        store = kind.build()
        _profiled_workflow()  # built before any fork, so workers inherit it
        before = store.stats_snapshot()

        def request(index: int) -> int:
            kind.populate(store, f"request-{index}")
            return index

        with attributed((store,), "opener") as (sink,):
            with create_backend(spec).session(request, store_side_channel(store)) as session:
                assert session.run([0, 1, 2, 3]) == [0, 1, 2, 3]
        delta = store.stats_snapshot().since(before)
        assert any(delta.as_dict().values())
        assert sink == delta
        # Merge-on-join brought the workers' entries home under the labels
        # their requests ran as (never the opener's).
        labels = {identity[-1] for identity in identities(store)}
        assert labels and labels <= {f"request-{index}" for index in range(4)}

    def test_a_hit_from_another_scope_is_one_cross_origin_hit_per_entry(self, kind):
        store = kind.build()
        with attributed((store,), "alpha") as (alpha,):
            entries = kind.revisit(store)  # stores
            kind.revisit(store)  # hits its own entries
        assert alpha.cross_origin_hits == 0
        with attributed((store,), "beta") as (beta,):
            assert kind.revisit(store) == entries
        assert beta.cross_origin_hits == entries
        assert store.stats_snapshot().cross_origin_hits == entries

    def test_a_harness_cell_attributes_the_decision_cache_too(self):
        harness = ExperimentHarness(scale=0.05)
        cold = harness.run(workloads=["PJ"], optimizers=("Stubby",))
        warm = harness.run(workloads=["PJ"], optimizers=("Stubby",))
        for result, crossed in ((cold, False), (warm, True)):
            cell = result.comparisons["PJ"].runs["Stubby"]
            # One cell, so the cell's sinks are the run's sinks, on all three stores.
            assert cell.cost_stats == result.cost_stats
            assert cell.decision_stats == result.decision_stats
            assert cell.subresult_stats == result.subresult_stats
            assert cell.decision_stats.decision_hits == cell.unit_decision_hits
            assert cell.decision_stats.decision_misses == cell.unit_decision_misses
            assert cell.decision_stats.cross_origin_hits == cell.cross_origin_decision_hits
            assert (cell.decision_stats.cross_origin_hits > 0) == crossed
        # Every unit the second run replayed was solved under the first run's label.
        assert warm.decision_stats.cross_origin_hits == warm.decision_stats.decision_hits > 0


# --------------------------------------------------------------------------
class TestPersistHelper:
    def test_persist_merge_saves_enabled_stores_that_have_a_path(self, kind, tmp_path):
        path = tmp_path / "store.bin"
        rich = saved_file(kind, path)
        sparse = kind.build()
        sparse.cache_path = str(path)  # never warm-started: holds nothing
        pathless = kind.build()
        disabled = kind.build(enabled=False, cache_path=str(tmp_path / "never-written.bin"))
        assert persist((sparse, pathless, disabled)) == len(identities(rich))
        assert identities(kind.build(cache_path=str(path))) == identities(rich)
        assert not (tmp_path / "never-written.bin").exists()
