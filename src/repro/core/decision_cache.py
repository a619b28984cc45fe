"""Unit-level decision memoization: skip the search for solved units.

Stubby's cost is dominated by per-unit candidate enumeration, RRS sampling,
and what-if costing.  Under repeated traffic — experiment cells sharing
workloads, warm-started runs, near-identical user workflows — the *same*
optimization units recur constantly, and the search re-derives the same
answer every time.  :class:`DecisionCache` memoizes the **decision** itself:
a map from a unit *content signature* to the recorded
:class:`~repro.core.transformations.base.TransformationApplication` chain
and chosen configuration settings that won that unit's search.

On a hit, :meth:`~repro.core.search.StubbySearch.optimize_units` skips
enumeration, RRS, and costing entirely and deterministically **replays** the
recorded chain through the existing composition-replay machinery
(:meth:`~repro.core.search.StubbySearch._apply_candidate`); on a miss it
runs the full search and records the winning chain.  The hard contract —
asserted by ``tests/test_decision_cache.py`` on IR, PJ and BR — is that a
replayed plan is
**bit-identical** to a freshly searched one: same ``signature()``, same
configurations, same recorded history.

What makes a hit provably decision-equivalent is the key.  The search
(:meth:`~repro.core.search.StubbySearch._decision_key`) derives it from
everything that can influence the unit's argmin:

* the unit subgraph's per-vertex content keys
  (:attr:`~repro.workflow.graph.JobVertex.content_key`, read through the
  counting :meth:`~repro.whatif.model.WhatIfEngine.vertex_content_key`), plus
  every job's configuration, partitioner, and :class:`JobAnnotations` content;
* input dataset profiles/annotations and the plan's structural signature —
  workflow cost is a per-level *makespan* (a max), so a unit's best rewrite
  can depend on neighbouring jobs, and the whole-plan content must pin it;
* the :class:`~repro.cluster.ClusterSpec` and the search knobs: RRS
  seed/budget, the transformation set (including per-transformation
  options), enumeration caps, and
  :data:`~repro.whatif.model.COST_MODEL_VERSION`.

Change any of these and the key changes — the cache *misses*, never serves
a stale decision (property-tested in ``tests/test_decision_cache.py``).

Concurrency, merge-on-join and persistence are the shared
:class:`~repro.common.store.ShardedStore` mechanism (see
:mod:`repro.common.store`); the harness and the server name the persisted
file with ``STUBBY_DECISION_CACHE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.cluster import ClusterSpec
from repro.common.store import CounterStats, ShardedStore, current_origin

# Content-key helpers live in the leaf module ``repro.common.content_keys``
# (shared with the sub-result catalog and the annotation classes); re-exported
# here because the search and the test suite have always imported them from
# this module.
from repro.common.content_keys import (  # noqa: F401  (re-exports)
    filter_annotation_key,
    optional_key,
    plain_value_key,
    rrs_search_key,
    schema_annotation_key,
    transformation_key,
)
from repro.core.transformations.base import TransformationApplication

__all__ = [
    "DECISION_CACHE_FORMAT_VERSION",
    "DECISION_CACHE_PATH_ENV_VAR",
    "DecisionCache",
    "DecisionCacheStats",
    "DecisionKey",
    "SubunitChoice",
    "UnitDecision",
]

#: Default bound on memoized unit decisions; old entries are evicted LRU.
#: Decisions are tiny (a few application records), but unlike cost entries
#: each one short-circuits an entire unit search, so the bound is generous.
DEFAULT_MAX_DECISIONS = 50_000

#: On-disk layout version of persisted decision files; files written under a
#: different layout are rejected wholesale.  2: the reuse transformation's
#: key lost its third element, so version-1 rows could never hit again.
#: 3: the key pins every ``JobConfig`` field (version-2 keys left out
#: ``forced_single_reduce``), so version-2 rows could never hit again either.
#: 4: the vertex content key is a :mod:`repro.common.content_keys` class, so
#: a version-3 row unpickles by a module path that no longer holds it.
#: 5: the two content-key classes pickle as a constructor call, so that the
#: hash they keep is never written; version-4 rows hold their old state shape.
DECISION_CACHE_FORMAT_VERSION = 5

#: Environment variable naming the persisted decision-cache path of an
#: ``ExperimentHarness`` or ``PlanningServer`` — the decision-level sibling of
#: ``STUBBY_COST_CACHE``, deliberately separate so cost-cache warm starts and
#: decision warm starts can be opted into independently.
DECISION_CACHE_PATH_ENV_VAR = "STUBBY_DECISION_CACHE"

#: Cap on decisions a forked worker ships back on merge-on-join.
MAX_EXPORTED_DECISIONS = 5_000


class DecisionKey(tuple):
    """A unit decision key hashed once, like ``functools._HashedSeq``: equal
    to and hashed like the plain tuple of its parts, and pickled as it, so a
    hash taken under one ``PYTHONHASHSEED`` is never read under another."""

    def __init__(self, parts) -> None:
        self.hashvalue = tuple.__hash__(self)

    def __hash__(self) -> int:
        return self.hashvalue

    def __reduce__(self):
        return tuple, (tuple(self),)


@dataclass(frozen=True)
class SubunitChoice:
    """The winning rewrite of one independent sub-unit.

    Everything :meth:`~repro.core.search.StubbySearch._apply_candidate`
    needs to reproduce the chosen candidate without searching: the
    application chain, the RRS-chosen settings (stored as sorted plain
    tuples so the choice is hashable and picklable), and the recorded cost.
    """

    transformations: Tuple[str, ...]
    applications: Tuple[TransformationApplication, ...]
    #: ``((job_name, ((param, value), ...)), ...)`` sorted by job then param.
    best_settings: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...]
    estimated_cost: float = float("inf")

    def settings_dict(self) -> Dict[str, Dict[str, object]]:
        """The stored settings as the mapping the replay machinery applies."""
        return {job: dict(params) for job, params in self.best_settings}

    @classmethod
    def from_record(cls, record) -> "SubunitChoice":
        """Build from a chosen :class:`~repro.core.search.SubplanRecord`."""
        return cls(
            transformations=tuple(record.transformations),
            applications=tuple(record.applications),
            best_settings=tuple(
                sorted(
                    (job, tuple(sorted(params.items())))
                    for job, params in record.best_settings.items()
                )
            ),
            estimated_cost=record.estimated_cost,
        )

    @classmethod
    def no_op(cls) -> "SubunitChoice":
        """The empty choice (a unit whose search retained nothing)."""
        return cls(transformations=(), applications=(), best_settings=())


@dataclass(frozen=True)
class UnitDecision:
    """The complete recorded outcome of one unit's search: one choice per
    independent sub-unit, in sub-unit order."""

    choices: Tuple[SubunitChoice, ...]


@dataclass
class DecisionCacheStats(CounterStats):
    """Counters describing how often unit searches were skipped.

    ``decision_hits`` / ``decision_misses`` count unit-level lookups (one per
    ``optimize_units`` call with the cache enabled).  ``cross_origin_hits``
    counts the hits served by a decision another origin (a different
    experiment cell, or a warm-started persisted file) recorded — mirroring
    :attr:`~repro.whatif.service.CostServiceStats.cross_origin_hits`.
    ``replayed_subunits`` counts the sub-unit searches a hit saved.
    """

    DERIVED: ClassVar[Tuple[str, ...]] = ("hit_rate",)

    decision_hits: int = 0
    decision_misses: int = 0
    cross_origin_hits: int = 0
    stores: int = 0
    replayed_subunits: int = 0

    @property
    def lookups(self) -> int:
        """Unit-level lookups performed."""
        return self.decision_hits + self.decision_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of unit lookups answered from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.decision_hits / self.lookups


class DecisionCache(ShardedStore):
    """Sharded, LRU, optionally persisted memo of unit search decisions.

    One instance is safe to share across the server's threads, forked
    workers, and experiment cells — it is a
    :class:`~repro.common.store.ShardedStore`.

    ``enabled=False`` turns every lookup into a no-answer and every store
    into a no-op, so a disabled cache is behaviourally invisible — the
    reference the equivalence suites compare a warm cache against.
    ``verify_hits=True`` makes the search
    re-derive every hit from scratch and assert bit-identity — the debug
    mode of the hard replay-equals-search contract.
    """

    STATS = DecisionCacheStats
    FORMAT_VERSION = DECISION_CACHE_FORMAT_VERSION
    FAULT_PREFIX = "decisions"
    MAX_EXPORTED = MAX_EXPORTED_DECISIONS
    PATH_ENV_VAR = DECISION_CACHE_PATH_ENV_VAR
    LABEL = "decision cache"
    VALUE_TYPE = UnitDecision

    def __init__(
        self,
        cluster: ClusterSpec,
        max_entries: int = DEFAULT_MAX_DECISIONS,
        enabled: bool = True,
        cache_path: Optional[str] = None,
        verify_hits: bool = False,
    ) -> None:
        self.verify_hits = verify_hits
        super().__init__(cluster, max_entries, enabled, cache_path)

    def _entries_snapshot(self) -> List[Tuple]:
        # Plain-tuple keys: the loader refuses the ``builtins.tuple`` global.
        return [(tuple(key), value, origin) for key, value, origin in self._cache.items()]

    def lookup(self, key: Tuple, deferred: bool = False) -> Optional[Tuple[UnitDecision, bool]]:
        """The recorded decision for ``key``, or ``None`` on a miss.

        Returns ``(decision, cross_origin)`` — the second element is True
        when the entry was stored under a different origin label than the
        one active now (another cell's work, or a warm-started file).  A
        miss is counted at once.  ``deferred=True`` leaves a hit uncounted:
        the caller settles it with :meth:`count_hit` once the decision
        replayed, or with :meth:`count_miss` when it could not, so every
        lookup reaches the ledger once, as what it turned out to be.
        """
        if not self.enabled:
            return None
        entry = self._cache.lookup(key)
        if entry is None:
            self._count(decision_misses=1)
            return None
        decision, entry_origin = entry
        cross_origin = entry_origin != current_origin()
        if not deferred:
            self.count_hit(decision, cross_origin)
        return decision, cross_origin

    def count_hit(self, decision: UnitDecision, cross_origin: bool) -> None:
        """Count a (deferred) lookup that replayed ``decision``."""
        self._count(
            decision_hits=1,
            cross_origin_hits=int(cross_origin),
            replayed_subunits=len(decision.choices),
        )

    def count_miss(self) -> None:
        """Count a (deferred) lookup whose decision could not be replayed."""
        self._count(decision_misses=1)

    def store(self, key: Tuple, decision: UnitDecision) -> None:
        """Record the winning decision for ``key`` (no-op when disabled)."""
        if not self.enabled:
            return
        self._store(key, decision, current_origin())
        self._count(stores=1)

    def invalidate_key(self, key: Tuple) -> bool:
        """Drop one memoized decision; True when it existed.

        Used when a recorded decision turns out to be unreplayable — e.g. it
        substitutes a sub-result whose catalog entry has since been evicted —
        so the next lookup runs a fresh search instead of failing again.
        """
        return self._cache.discard(key)

