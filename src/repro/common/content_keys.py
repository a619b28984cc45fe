"""Content-key helpers shared by the decision cache and sub-result catalog.

A leaf module (it imports nothing from ``repro``) so
:mod:`repro.core.decision_cache`, :mod:`repro.core.subresults` and the plan
values, which build their own key from these (:mod:`repro.workflow.annotations`,
:mod:`repro.mapreduce.pipeline`, :mod:`repro.workflow.graph`), can use it
without an import cycle.  The search composes these into full decision keys;
the catalog composes them into subgraph signatures.  They are all hashable,
picklable and *content-based* — ``hash()`` is only ever used for shard
placement; equality (and therefore hits) is by content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

__all__ = [
    "PipelineContentKey",
    "VertexContentKey",
    "filter_annotation_key",
    "optional_key",
    "plain_value_key",
    "rrs_search_key",
    "transformation_key",
]


class _HashedOnce:
    """Mixin of the two key classes: the hash is computed at the first
    ``__hash__`` and kept in the ``_hash`` slot, then read back — a vertex
    key sits in every decision key built over its vertex, and each of those
    hashes it.  The slot is never pickled (``__reduce__`` passes the fields
    to the constructor), so a hash taken under one ``PYTHONHASHSEED`` is
    never read under another, and a key that no dictionary ever holds pays
    nothing.  A class names its constructor's fields, in order, in
    ``_parts()``.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._parts())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        return type(self), self._parts()


@dataclass(frozen=True, slots=True)
class PipelineContentKey(_HashedOnce):
    """The vertex-content half of one pipeline's signature part
    (:attr:`repro.mapreduce.pipeline.Pipeline.content_key`).

    ``inputs`` keeps ``(dataset_name, allowed_partitions)`` pairs; the
    query-dependent facts (current dataset sizes, producer partition counts)
    are filled in per query by
    :meth:`~repro.whatif.model.WhatIfEngine.vertex_dataflow_signature`.
    """

    inputs: Tuple[Tuple[str, Optional[Tuple[int, ...]]], ...]
    map_ops: Tuple[Tuple[str, float], ...]
    reduce_ops: Tuple[Tuple[str, float, Tuple[str, ...]], ...]
    output_dataset: str
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    __hash__ = _HashedOnce.__hash__

    def _parts(self) -> Tuple:
        return (self.inputs, self.map_ops, self.reduce_ops, self.output_dataset)


@dataclass(frozen=True, slots=True)
class VertexContentKey(_HashedOnce):
    """Everything a vertex's dataflow signature reads from the vertex itself
    (:attr:`repro.workflow.graph.JobVertex.content_key`).

    Only the cheap query context (dataset sizes, producer partition counts,
    chained task count) is added per query.
    """

    pipelines: Tuple[PipelineContentKey, ...]
    partitioner_fields: Tuple[str, ...]
    combiner_active: bool
    profile_key: Optional[Tuple]
    chained_input: bool
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    __hash__ = _HashedOnce.__hash__

    def _parts(self) -> Tuple:
        return (
            self.pipelines,
            self.partitioner_fields,
            self.combiner_active,
            self.profile_key,
            self.chained_input,
        )


def plain_value_key(value) -> Tuple:
    """A hashable content tuple for an arbitrary annotation/condition value.

    Objects exposing a ``decision_key_content()`` method (e.g. the
    :class:`~repro.core.subresults.SubResultCatalog` held by the reuse
    transformation) are keyed by that content tuple rather than ``repr`` —
    their identity is irrelevant, but their *content* changes which
    candidates a search can enumerate, so it must move the key.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return ("atom", value)
    if isinstance(value, (tuple, list)):
        return ("seq",) + tuple(plain_value_key(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((plain_value_key(item) for item in value), key=repr))
    if isinstance(value, Mapping):
        return ("map",) + tuple(
            sorted(((str(k), plain_value_key(v)) for k, v in value.items()), key=repr)
        )
    content = getattr(value, "decision_key_content", None)
    if callable(content):
        return ("content", type(value).__name__, content())
    return ("repr", type(value).__name__, repr(value))


def optional_key(value) -> Optional[Tuple]:
    """``value.key`` — the content key a frozen value builds once, on first read
    (``PartitionFunction``, ``DatasetAnnotation``, ...) — or ``None`` for no value."""
    return None if value is None else value.key


def filter_annotation_key(filter_annotation) -> Optional[Tuple]:
    """Content key of a :class:`~repro.workflow.annotations.FilterAnnotation`."""
    if filter_annotation is None:
        return None
    return tuple(
        sorted(
            (name, rng.low, rng.high)
            for name, rng in filter_annotation.ranges.items()
        )
    )


def schema_annotation_key(schema) -> Optional[Tuple]:
    """Content key of a :class:`~repro.workflow.annotations.SchemaAnnotation`."""
    if schema is None:
        return None
    return tuple(
        None if component is None else tuple(sorted(component))
        for component in (schema.k1, schema.v1, schema.k2, schema.v2, schema.k3, schema.v3)
    )


def rrs_search_key(rrs) -> Tuple:
    """Every knob of a :class:`~repro.core.rrs.RecursiveRandomSearch` that
    can change which configuration the search returns."""
    return (
        rrs.exploration_samples,
        rrs.exploitation_samples,
        rrs.initial_radius,
        rrs.shrink_factor,
        rrs.min_radius,
        rrs.restarts,
        rrs.seed,
    )


def transformation_key(transformation) -> Tuple:
    """Content key of one transformation instance: name plus every
    constructor option (e.g. ``HorizontalPacking.allow_extended``)."""
    options = tuple(
        sorted(
            ((name, plain_value_key(value)) for name, value in vars(transformation).items()),
            key=repr,
        )
    )
    return (transformation.name, options)
