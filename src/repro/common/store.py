"""One attributed, persisted store under every optimizer memo.

The cost service (:class:`~repro.whatif.service.CostService`), the unit
decision memo (:class:`~repro.core.decision_cache.DecisionCache`) and the
sub-result catalog (:class:`~repro.core.subresults.SubResultCatalog`) answer
different questions, but they are the same *kind* of object: a bounded map
from a content key to an exact value, shared by the server's threads, forked
workers, experiment cells and service tenants, and optionally warm-started
from disk.  This module owns that mechanism once; the three stores keep only
what is theirs — how a key is built, what a lookup counts, when an entry
dies.

Concurrency model
    * Entries live in a :class:`ShardedLRU`: one lock around one recency
      order.  The planning server's parent touches the stores from its
      event loop alone (a serial pool's executor thread, while it runs a
      request, in its place); parallelism is forked workers, each holding
      its own copy-on-write shard of the store.
    * Counters (a :class:`CounterStats` subclass per store) are updated under
      one dedicated lock.  **Attribution sinks** are per-thread stacks: a
      caller captures the exact delta its own thread produced even while
      other threads move the global counters.
    * One ambient, thread-local **origin label** (:func:`current_origin`)
      tags every entry stored while it is active, in whichever store; a hit
      on an entry stored under a different label is a cross-origin hit — the
      measure of how much one cell or tenant reaped from another, or from a
      warm-started file.
    * :func:`attributed` is the one scope that sets both: a label plus a
      fresh sink per store.  A served request, an experiment cell, one
      ``optimize()`` call and a forked worker's request bracket all run
      under it.

Merge-on-join
    A forked worker accumulates into its private copy-on-write store and
    hands its new entries (:meth:`~ShardedStore.start_export_log` /
    :meth:`~ShardedStore.export_log_entries`) and stats deltas back to the
    parent (:meth:`~ShardedStore.absorb_entries` /
    :meth:`~ShardedStore.apply_external_delta`).  Keys are content-based and
    values exact, so merging is idempotent and order-independent.
    :meth:`repro.core.parallel.Pool.session` takes the stores and makes
    exactly these calls, each request under :func:`attributed`.

Persistence
    :meth:`ShardedStore.save_cache` writes one pickle — stamped with the
    store's on-disk format version, the cost-model version and the full
    cluster key — through a temporary file and an atomic ``os.replace``, so
    concurrent writers race to a *complete* file.
    :meth:`ShardedStore.load_cache` never raises on a bad file: a missing,
    corrupt, truncated, mismatched or half-valid file is rejected wholesale
    and quietly (:class:`CacheLoadReport` says why) — an invalid cache is
    worth exactly as much as no cache.  Owners (harness, server) write
    their stores back with :func:`persist`.

A disabled store (``enabled=False``) is behaviourally invisible: no lookup
answers, nothing is stored, absorbed, loaded or exported.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.common.faults import fault_site

__all__ = [
    "CacheLoadReport",
    "CounterStats",
    "ShardedLRU",
    "ShardedStore",
    "atomic_pickle_write",
    "attributed",
    "cluster_cache_key",
    "current_origin",
    "persist",
    "resolve_env_path",
]


def resolve_env_path(path: Optional[str], env_var: str) -> Optional[str]:
    """Normalize a persistence path: explicit path, else the environment.

    ``None`` consults ``env_var``; an empty string (explicit or from the
    environment) means "no persistence".  Only the two owners that also
    merge-save their stores call it — ``ExperimentHarness`` and
    ``PlanningServer`` — so a store, optimizer or search built anywhere else
    never reads the environment.
    """
    if path is not None:
        return path or None
    return os.environ.get(env_var, "").strip() or None


def cluster_cache_key(cluster) -> Tuple:
    """Plain-data key identifying the cluster a store was computed for.

    Stored values carry no cluster component of their own, so a persisted
    store is only valid for a spec-identical cluster; the nested field tuple
    captures every dimension the cost model reads
    (:attr:`~repro.cluster.ClusterSpec.cache_key`, built once per spec).
    """
    return cluster.cache_key


@dataclass(frozen=True)
class CacheLoadReport:
    """Outcome of one :meth:`ShardedStore.load_cache` attempt."""

    loaded: bool
    entries: int = 0
    reason: str = ""


def atomic_pickle_write(path: str, payload) -> None:
    """Pickle ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    Concurrent writers race to a *complete* file, never a torn one.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves this package's classes and safe builtins.

    Cache files are data, but pickle is a program: a crafted file can name
    any importable callable.  Persisted payloads only ever contain plain
    containers and ``repro`` dataclasses, so everything else is refused —
    the standard-library hardening recipe.  Treat cache paths as trusted
    input regardless; this narrows the blast radius of a tampered file, it
    does not make hostile files safe.
    """

    _SAFE_BUILTINS = frozenset({"frozenset", "set", "complex", "bytearray"})

    def find_class(self, module, name):
        if module == "builtins" and name in self._SAFE_BUILTINS:
            return super().find_class(module, name)
        if module == "repro" or module.startswith("repro."):
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"cache file references forbidden global {module}.{name}"
        )


@dataclass
class CounterStats:
    """Base of the stores' counter dataclasses.

    Every dataclass field of a subclass is an additive counter; the
    arithmetic below is derived from :func:`dataclasses.fields`, so a
    subclass only declares its counters, its derived properties (hit rates
    and the like) and — in :attr:`DERIVED` — which of those properties
    :meth:`as_dict` reports next to the counters.
    """

    #: Names of derived properties included in :meth:`as_dict`.
    DERIVED: ClassVar[Tuple[str, ...]] = ()

    @classmethod
    def counter_names(cls) -> Tuple[str, ...]:
        """The class's counter field names, in declaration order."""
        names = cls.__dict__.get("_counter_names")
        if names is None:
            names = tuple(field.name for field in dataclasses.fields(cls))
            cls._counter_names = names
        return names

    def accumulate(self, delta: "CounterStats") -> None:
        """Add another stats delta into this one, in place."""
        mine, theirs = self.__dict__, delta.__dict__
        for name in self.counter_names():
            mine[name] += theirs[name]

    def snapshot(self):
        """Immutable copy of the current counters."""
        return dataclasses.replace(self)

    def since(self, before: "CounterStats"):
        """Counter delta between this snapshot and an earlier one."""
        mine, theirs = self.__dict__, before.__dict__
        return type(self)(**{name: mine[name] - theirs[name] for name in self.counter_names()})

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports and benchmark JSON."""
        view = {name: getattr(self, name) for name in self.counter_names()}
        view.update((name, getattr(self, name)) for name in self.DERIVED)
        return view


class ShardedLRU:
    """A locked LRU mapping from key tuples to ``(value, origin)`` entries.

    One lock, one recency order: the map holds exactly ``max_entries``
    entries before it evicts, and evicts in strict least-recently-used
    order, whatever ``PYTHONHASHSEED`` the process runs under.  "Shard" is
    the process's share of a store — a forked worker's copy is its private
    shard until merge-on-join.

    Each entry also holds the key object the map holds it under, so an
    operation compares a probe with the held key once, in its first lookup,
    and makes every later move through the held object itself (an identity
    match).  A hit re-keys its entry to the probe: a key loaded from a file
    or merged from a worker is compared part by part at its first hit, and
    from then on the map holds the probe, whose parts are the ones this
    process builds.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max(1, max_entries)
        self._lock = threading.Lock()
        #: key -> ``(value, origin, key)``, the last item the key object itself.
        self._entries: "OrderedDict[Tuple, Tuple[object, object, Tuple]]" = OrderedDict()

    def lookup(self, key: Tuple):
        """Return the ``(value, origin)`` pair for ``key``, or ``None``.

        A hit becomes the most recent entry — the order ``get`` plus
        ``move_to_end`` gives — and is held under ``key`` from now on.
        """
        entries = self._entries
        with self._lock:
            entry = entries.get(key)
            if entry is None:
                return None
            held = entry[2]
            if held is key:
                entries.move_to_end(key)
            else:
                del entries[held]
                entries[key] = (entry[0], entry[1], key)
            return entry[:2]

    def store(self, key: Tuple, value, origin=None) -> bool:
        """Insert a value (tagged with its origin); True when the key was new.

        Re-storing an existing key refreshes its recency like a lookup does:
        merge-on-join relies on "just written" meaning "most recently used".
        The entry stays under the key object it is held under.
        """
        entries = self._entries
        with self._lock:
            entry = entries.get(key)
            if entry is None:
                entries[key] = (value, origin, key)
                if len(entries) > self.max_entries:
                    entries.popitem(last=False)
                return True
            held = entry[2]
            entries[held] = (value, origin, held)
            entries.move_to_end(held)
            return False

    def items(self) -> List[Tuple[Tuple, object, object]]:
        """``(key, value, origin)`` rows in LRU→MRU order.

        The lock is held only for the raw ``dict.values()`` copy; the row
        tuples are built outside it, so a big save does not stall lookups
        for the whole rebuild.
        """
        with self._lock:
            raw = list(self._entries.values())
        return [(key, value, origin) for value, origin, key in raw]

    def discard(self, key: Tuple) -> bool:
        """Drop one key; True when it was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The calling thread's origin label (``.label``); see :func:`current_origin`.
_AMBIENT = threading.local()


def current_origin() -> Optional[str]:
    """The origin label active on the calling thread (``None`` outside any).

    One label for every store; thread-local (and inherited by forked
    workers), so concurrent cells never mislabel each other's work.
    """
    return getattr(_AMBIENT, "label", None)


@contextmanager
def attributed(stores: Sequence["ShardedStore"], label: Optional[str]) -> Iterator[Tuple]:
    """Run the body as ``label``, capturing its exact delta on each store.

    Sets the ambient origin label and pushes one fresh attribution sink per
    store onto the calling thread's sink stacks; yields the sinks, in
    ``stores`` order.  When the body ends each sink holds exactly the
    counter delta this thread produced on its store, work merged back from
    forked workers included.  Scopes nest: sinks stack, and the outer label
    is restored on exit (pass ``current_origin()`` to capture deltas
    without relabelling).
    """
    sinks = tuple(store.STATS() for store in stores)
    previous = current_origin()
    _AMBIENT.label = label
    for store, sink in zip(stores, sinks):
        store._sink_stack().append(sink)
    try:
        yield sinks
    finally:
        for store in stores:
            store._sink_stack().pop()
        _AMBIENT.label = previous


def persist(stores: Sequence["ShardedStore"]) -> int:
    """Merge-save every enabled store that has a ``cache_path``.

    ``merge_first`` always: the owner may hold less than the file does (it
    invalidated, or never warm-started, or another process saved meanwhile),
    and a save must never shrink what a later run would warm-start from.
    Returns the number of entries written across all stores.
    """
    return sum(
        store.save_cache(merge_first=True)
        for store in stores
        if store.enabled and store.cache_path
    )


class ShardedStore:
    """The shared mechanism of the cost, decision and sub-result stores.

    A subclass names its policy through class attributes and adds its own
    query methods on top of ``_cache`` / :meth:`_store`; everything in
    the module docstring — sinks, origin tags, the export log, persistence,
    the disabled rule — is inherited.  Persisted rows are
    ``(key, value, origin)`` tuples.
    """

    #: The :class:`CounterStats` subclass of this store's counters.
    STATS: ClassVar[Type[CounterStats]] = CounterStats
    #: On-disk layout version; files written under another are rejected.
    FORMAT_VERSION: ClassVar[int] = 0
    #: Prefix of the store's ``<prefix>.load`` / ``<prefix>.save`` fault sites.
    FAULT_PREFIX: ClassVar[str] = "store"
    #: Cap on entries a forked worker ships back on merge-on-join; beyond it
    #: the freshest entries win (export logs are append-ordered).
    MAX_EXPORTED: ClassVar[int] = 0
    #: Environment variable naming the persisted file; read only by the
    #: owners that persist (see :func:`resolve_env_path`).
    PATH_ENV_VAR: ClassVar[str] = ""
    #: What load reports call the store's file, and what errors call the store.
    NOUN: ClassVar[str] = "cache"
    LABEL: ClassVar[str] = "cache"
    #: Type every persisted row's value must have (``object`` = unchecked).
    VALUE_TYPE: ClassVar[type] = object

    def __init__(
        self,
        cluster,
        max_entries: int,
        enabled: bool = True,
        cache_path: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.enabled = enabled
        self.max_entries = max(1, max_entries)
        self._cache = ShardedLRU(self.max_entries)
        self.stats = self.STATS()
        self._stats_lock = threading.Lock()
        #: Per-thread attribution sink stack (``sinks``).
        self._local = threading.local()
        #: Append-only log of entries stored since :meth:`start_export_log`;
        #: enabled only inside forked workers (single-threaded), so it needs
        #: no lock of its own.
        self._export_log: Optional[List[Tuple]] = None
        #: Persistence target (``None`` disables save/load by default).
        self.cache_path = cache_path
        #: Outcome of the constructor's warm-start attempt (``None`` when no
        #: ``cache_path`` was configured or the store is disabled).
        self.last_load: Optional[CacheLoadReport] = None
        if self.cache_path and self.enabled:
            self.last_load = self.load_cache(self.cache_path)

    @classmethod
    def ensure(cls, cluster, store=None):
        """Return ``store`` if given, else a fresh in-memory instance.

        Components accept an optional store so callers can share one across
        search/optimizer/baseline/service layers.  A shared store must have
        been built for the same cluster — entries carry no cluster component
        (or embed it, so a mismatched store could never hit), and
        cross-cluster sharing would silently serve wrong answers.
        Persistence is the store constructor's ``cache_path``.
        """
        if store is None:
            return cls(cluster)
        if store.cluster != cluster:
            raise ValueError(
                f"{cls.__name__} was built for a different ClusterSpec; "
                "its entries are only valid for the cluster they were computed on"
            )
        return store

    # ------------------------------------------------------- stats plumbing
    def _sink_stack(self) -> List[CounterStats]:
        try:
            return self._local.sinks
        except AttributeError:
            stack = self._local.sinks = []
            return stack

    def _apply_delta(self, delta: CounterStats) -> None:
        """Fold a whole stats delta into the global counters and this thread's sinks."""
        self._count(**vars(delta))

    def _count(self, **counts: int) -> None:
        """Add ``counts`` (counter name → amount) to the global counters and
        this thread's sinks: a store event names only the counters it moves."""
        with self._stats_lock:
            totals = self.stats.__dict__
            for name, amount in counts.items():
                totals[name] += amount
        for sink in self._sink_stack():
            totals = sink.__dict__
            for name, amount in counts.items():
                totals[name] += amount

    @contextmanager
    def attribute_to(self, sink: CounterStats):
        """Also credit this thread's activity to ``sink`` while active.

        Sinks are thread-local and stack, so every level carries its exact
        stats delta even when neighbours run concurrently.  The search wraps
        each candidate costing in one; whole requests, cells and
        ``optimize()`` calls use :func:`attributed`, which also labels.
        """
        stack = self._sink_stack()
        stack.append(sink)
        try:
            yield sink
        finally:
            stack.pop()

    def apply_external_delta(self, delta: CounterStats) -> None:
        """Fold in work performed by a foreign process (merge-on-join).

        The worker's activity never touched this process's counters, so the
        delta goes through the full path: global stats plus the calling
        thread's attribution sinks.
        """
        self._apply_delta(delta)

    def stats_snapshot(self):
        """Consistent copy of the global counters (for reports and reconciliation)."""
        with self._stats_lock:
            return self.stats.snapshot()

    # --------------------------------------------------------------- entries
    def _store(self, key: Tuple, value, origin) -> None:
        """Insert one entry (no-op when disabled); new keys reach the export log."""
        if not self.enabled:
            return
        if self._cache.store(key, value, origin) and self._export_log is not None:
            self._export_log.append((key, value, origin))

    def invalidate(self) -> None:
        """Drop every entry (stats are kept)."""
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        """Number of entries currently held."""
        return len(self._cache)

    # ------------------------------------------------- process merge-on-join
    def start_export_log(self) -> None:
        """Begin recording newly stored entries (forked workers only)."""
        self._export_log = []

    def export_log_entries(self) -> List[Tuple]:
        """Drain the export log: the rows :meth:`absorb_entries` accepts.

        Bounded by :attr:`MAX_EXPORTED`, keeping the *freshest* entries when
        over budget (the log is append-ordered).
        """
        log = self._export_log or []
        self._export_log = None
        return log[-self.MAX_EXPORTED :]

    def absorb_entries(self, entries: List[Tuple]) -> None:
        """Merge entries exported by a worker (or loaded from disk).

        Keys are content-based and values exact, so merging is idempotent
        and order-independent — absorbing a duplicate simply refreshes its
        LRU position.  Each entry keeps the origin label it was stored
        under, so cross-origin attribution survives the merge (and a
        round-trip through :meth:`save_cache`/:meth:`load_cache`).
        """
        if not self.enabled:
            return
        for key, value, origin in entries:
            self._cache.store(key, value, origin)

    # ------------------------------------------------------------ persistence
    def _entries_snapshot(self) -> List[Tuple]:
        """Every entry as the plain rows :meth:`absorb_entries` accepts."""
        return self._cache.items()

    def _valid_row(self, row) -> bool:
        """Whether one persisted row has the shape :meth:`absorb_entries` needs."""
        return (
            isinstance(row, tuple)
            and len(row) == 3
            and isinstance(row[0], tuple)
            and isinstance(row[1], self.VALUE_TYPE)
        )

    def _model_version(self) -> int:
        # Read through the module at call time (not import time): this leaf
        # module must not import ``repro.whatif``, and tests monkeypatching
        # the version must see the stamp move.
        from repro.whatif import model as whatif_model

        return whatif_model.COST_MODEL_VERSION

    def _resolve_path(self, path: Optional[str]) -> str:
        path = path or self.cache_path
        if not path:
            raise ValueError(
                f"no {self.LABEL} path configured (pass path= or set cache_path)"
            )
        return path

    def save_cache(self, path: Optional[str] = None, merge_first: bool = False) -> int:
        """Persist the store to ``path`` (default: ``cache_path``).

        The payload is stamped with the on-disk format version, the cost
        model version, and the cluster key, so :meth:`load_cache` can reject
        anything a current computation would not reproduce.  The write is
        atomic (see :func:`atomic_pickle_write`).  Returns the number of
        entries written.

        ``merge_first=True`` re-absorbs the current file (if valid) before
        writing — the long-lived-service idiom: a process that warm-started
        long ago, or never, does not shrink a richer store some other
        process persisted meanwhile.  Entries are content-keyed and exact,
        so the merge is conflict-free by construction; the read-merge-write
        is not transactional, merely last-writer-wins over a superset of
        both stores.
        """
        path = self._resolve_path(path)
        if merge_first:
            self.load_cache(path)
        entries = self._entries_snapshot()
        payload = {
            "format_version": self.FORMAT_VERSION,
            "model_version": self._model_version(),
            "cluster_key": cluster_cache_key(self.cluster),
            "entries": entries,
        }
        atomic_pickle_write(path, payload)
        # After the atomic replace: a corrupt/truncate fault here models
        # bit-rot of a complete file, which the next load must reject whole.
        fault_site(f"{self.FAULT_PREFIX}.save", path=path)
        return len(entries)

    def load_cache(self, path: Optional[str] = None) -> CacheLoadReport:
        """Warm-start from a persisted file; never raises on bad input.

        Returns a :class:`CacheLoadReport` saying whether the file was
        absorbed and, if not, why: disabled store, missing file,
        unreadable/corrupt/truncated content, a format/model/cluster stamp
        mismatch, or a malformed row.  Rejection is all-or-nothing — a file
        that cannot be fully trusted contributes nothing.
        """
        path = self._resolve_path(path)
        noun = self.NOUN

        def rejected(reason: str) -> CacheLoadReport:
            return CacheLoadReport(loaded=False, reason=reason)

        if not self.enabled:
            return rejected(f"{noun} is disabled")
        # Before the open: a corrupt/truncate fault mangles what we then read.
        fault_site(f"{self.FAULT_PREFIX}.load", path=path)
        if not os.path.exists(path):
            return rejected(f"no {noun} file")
        try:
            with open(path, "rb") as handle:
                payload = _RestrictedUnpickler(handle).load()
        except Exception as exc:  # corrupt, truncated, or not a pickle at all
            return rejected(f"unreadable {noun} file ({type(exc).__name__})")
        if not isinstance(payload, dict):
            return rejected(f"malformed {noun} payload")
        if payload.get("format_version") != self.FORMAT_VERSION:
            return rejected(
                f"format version mismatch ({payload.get('format_version')!r} "
                f"!= {self.FORMAT_VERSION!r})"
            )
        model_version = self._model_version()
        if payload.get("model_version") != model_version:
            return rejected(
                f"cost model version mismatch ({payload.get('model_version')!r} "
                f"!= {model_version!r})"
            )
        if payload.get("cluster_key") != cluster_cache_key(self.cluster):
            return rejected(f"{noun} was computed for a different ClusterSpec")
        entries = payload.get("entries")
        if not isinstance(entries, list):
            return rejected(f"malformed {noun} payload")
        # Validate every row *before* absorbing any, so rejection really is
        # all-or-nothing — a file that is half right contributes nothing.
        if not all(map(self._valid_row, entries)):
            return rejected(f"malformed {noun} entries")
        self.absorb_entries(entries)
        return CacheLoadReport(loaded=True, entries=len(entries), reason="ok")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(entries={self.cache_size}, "
            f"enabled={self.enabled}, stats={self.stats})"
        )
