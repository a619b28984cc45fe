"""Annotations: the information channel between workflow generators and Stubby.

The paper (§2.2) defines three annotation categories:

* **dataset annotations** — physical design information about datasets
  (schema, partitioning, ordering, compression, size);
* **program annotations** — *schema* annotations exposing the composition of
  key/value types K1–K3 and V1–V3 of a MapReduce program, and *filter*
  annotations exposing that a consumer only uses a value subset of its input;
* **profile annotations** — dataflow statistics and cost statistics about the
  run-time execution of a program, in the style of Starfish.

Stubby only searches the subspace of the plan space whose transformations can
be *checked* and *costed* from the annotations present; absent annotations
simply disable the transformations that need them (never break correctness).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from repro.common.content_keys import (
    filter_annotation_key,
    optional_key,
    plain_value_key,
    schema_annotation_key,
)
from repro.common.errors import AnnotationError
from repro.common.records import read_only
from repro.mapreduce.partitioner import PartitionFunction

FieldSet = FrozenSet[str]


def _fieldset(fields: Optional[Iterable[str]]) -> Optional[FieldSet]:
    if fields is None:
        return None
    return frozenset(fields)


# ---------------------------------------------------------------------------
# Dataset annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetAnnotation:
    """Known physical-design and statistical properties of a dataset.

    Attributes mirror the paper's example annotation
    ``D01.dataset = {schema=<C,O,I,N,SH>, partition=<hash(C)>}``, extended
    with the statistics the What-if engine needs (sizes and field ranges).
    All attributes are optional: ``None`` means "unknown".
    """

    schema: Optional[Tuple[str, ...]] = None
    partition_kind: Optional[str] = None  # "hash" | "range" | "none"
    partition_fields: Optional[Tuple[str, ...]] = None
    split_points: Optional[Tuple[float, ...]] = None
    sort_fields: Optional[Tuple[str, ...]] = None
    compressed: Optional[bool] = None
    size_bytes: Optional[float] = None
    num_records: Optional[float] = None
    #: Known (min, max) ranges for numeric fields; used to pick range split
    #: points for the partition-function transformation.
    field_ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.partition_kind is not None and self.partition_kind not in ("hash", "range", "none"):
            raise AnnotationError(f"unknown partition kind {self.partition_kind!r}")

    @property
    def is_partitioned(self) -> bool:
        """True when a (known) hash or range partitioning exists."""
        return self.partition_kind in ("hash", "range") and bool(self.partition_fields)

    def partitioned_on_subset_of(self, fields: Iterable[str]) -> bool:
        """True when the dataset is partitioned on a non-empty subset of ``fields``."""
        if not self.is_partitioned:
            return False
        return set(self.partition_fields or ()).issubset(set(fields))

    def sorted_to_group_on(self, fields: Iterable[str]) -> bool:
        """True when per-partition ordering clusters records by ``fields``.

        That holds when the known sort fields start with every field in
        ``fields`` (in any order among themselves).
        """
        wanted = set(fields)
        if not wanted:
            return True
        if not self.sort_fields:
            return False
        prefix = set(self.sort_fields[: len(wanted)])
        return wanted.issubset(prefix) or wanted.issubset(set(self.sort_fields)) and prefix.issubset(wanted)

    @cached_property
    def key(self) -> Tuple:
        """Every field's content as one hashable tuple, built once per annotation.

        What a decision key or subgraph signature pins of a dataset vertex's
        annotation; a derived annotation (``dataclasses.replace``) starts
        without it.
        """
        return (
            self.schema,
            self.partition_kind,
            self.partition_fields,
            self.split_points,
            self.sort_fields,
            self.compressed,
            self.size_bytes,
            self.num_records,
            tuple(sorted(self.field_ranges.items())),
        )


# ---------------------------------------------------------------------------
# Program annotations: schema and filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaAnnotation:
    """Composition of the key and value types K1–K3 / V1–V3 of a program.

    ``None`` for any component means that component's composition is unknown,
    which makes transformations whose preconditions mention it inapplicable.
    Identical field names across jobs indicate data that flows unchanged
    (paper §2.2).
    """

    k1: Optional[FieldSet] = None
    v1: Optional[FieldSet] = None
    k2: Optional[FieldSet] = None
    v2: Optional[FieldSet] = None
    k3: Optional[FieldSet] = None
    v3: Optional[FieldSet] = None

    @classmethod
    def of(
        cls,
        k1: Optional[Iterable[str]] = None,
        v1: Optional[Iterable[str]] = None,
        k2: Optional[Iterable[str]] = None,
        v2: Optional[Iterable[str]] = None,
        k3: Optional[Iterable[str]] = None,
        v3: Optional[Iterable[str]] = None,
    ) -> "SchemaAnnotation":
        """Build an annotation from field iterables (``None`` = unknown)."""
        return cls(
            k1=_fieldset(k1),
            v1=_fieldset(v1),
            k2=_fieldset(k2),
            v2=_fieldset(v2),
            k3=_fieldset(k3),
            v3=_fieldset(v3),
        )

    @property
    def knows_map_output_key(self) -> bool:
        """True when K2 (the map output / reduce input key) is known."""
        return self.k2 is not None

    def key_flows_through_reduce(self, fields: Iterable[str]) -> bool:
        """Whether ``fields`` flow unchanged from reduce input key to output.

        Checked by field-name identity: every field must appear in both K2
        and K3.  Unknown K2/K3 means the flow cannot be established.
        """
        wanted = set(fields)
        if self.k2 is None or self.k3 is None:
            return False
        return wanted.issubset(self.k2) and wanted.issubset(self.k3)

    def map_emits_fields_from_input(self, fields: Iterable[str]) -> bool:
        """Whether the map output key K2 contains ``fields`` coming from its input.

        The "comes from its input" part is the field-name identity convention
        again: the fields must appear in K2, and — when the map input schema
        K1/V1 is known — also in the input composition.
        """
        wanted = set(fields)
        if self.k2 is None or not wanted.issubset(self.k2):
            return False
        if self.k1 is None and self.v1 is None:
            # Input composition unknown: identical names in K2 are taken as
            # the (weaker) signal of unchanged flow, per the paper's example.
            return True
        known_input = set(self.k1 or frozenset()) | set(self.v1 or frozenset())
        return wanted.issubset(known_input)


@dataclass(frozen=True)
class FilterRange:
    """A half-open numeric interval ``[low, high)`` on a field."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise AnnotationError(f"empty filter range [{self.low}, {self.high})")


@dataclass(frozen=True)
class FilterAnnotation:
    """Filter predicates a program applies to its input, per field.

    Mirrors the paper's ``J6.filter={0<=O<100}``.
    """

    ranges: Mapping[str, FilterRange] = field(default_factory=dict)

    @classmethod
    def of(cls, **field_ranges: Tuple[float, float]) -> "FilterAnnotation":
        """Build from keyword arguments, e.g. ``FilterAnnotation.of(O=(0, 100))``."""
        return cls(ranges={name: FilterRange(low, high) for name, (low, high) in field_ranges.items()})

    def range_for(self, field_name: str) -> Optional[FilterRange]:
        """The range constraining ``field_name`` (or ``None``)."""
        return self.ranges.get(field_name)


# ---------------------------------------------------------------------------
# Profile annotations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorProfile:
    """Dataflow and cost statistics of one operator (function).

    * ``selectivity`` — output records per input record;
    * ``cpu_cost_per_record`` — relative CPU cost units per input record;
    * ``output_record_bytes`` — average serialized size of one output record.
    """

    selectivity: float = 1.0
    cpu_cost_per_record: float = 1.0
    output_record_bytes: float = 100.0

    def __post_init__(self) -> None:
        if self.selectivity < 0 or self.cpu_cost_per_record < 0 or self.output_record_bytes < 0:
            raise AnnotationError("operator profile statistics cannot be negative")


@dataclass(frozen=True)
class ProfileAnnotation:
    """Dataflow and cost statistics of a program's run-time execution.

    These mirror Starfish's job profiles (paper §2.2 and [8]):

    * dataflow statistics — record selectivities and record widths of the map
      and reduce sides, the combiner's reduction ratio, and distinct key
      cardinalities per field combination;
    * cost statistics — relative CPU cost per record of the map and reduce
      sides (scaled by the cluster's CPU speed when estimating time).

    In addition to the job-level aggregates, ``operator_profiles`` carries the
    statistics of each named operator (function).  Packing transformations
    preserve operator identities, so the What-if engine can *adjust* packed
    jobs' annotations simply by chaining the operator profiles along the new
    pipelines (selectivities multiply, CPU costs add — paper §5).

    Immutable like the plan that holds it: the two mappings are stored
    read-only, so :attr:`key` cannot go stale under an in-place edit.
    """

    map_selectivity: float = 1.0
    reduce_selectivity: float = 1.0
    map_output_record_bytes: float = 100.0
    output_record_bytes: float = 100.0
    input_record_bytes: float = 100.0
    combine_reduction: float = 1.0  # output records / input records of the combiner
    map_cpu_cost_per_record: float = 1.0
    reduce_cpu_cost_per_record: float = 1.0
    key_cardinalities: Mapping[Tuple[str, ...], float] = field(default_factory=dict)
    operator_profiles: Mapping[str, OperatorProfile] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_cardinalities", read_only(self.key_cardinalities))
        object.__setattr__(self, "operator_profiles", read_only(self.operator_profiles))
        for name in (
            "map_selectivity",
            "reduce_selectivity",
            "map_output_record_bytes",
            "output_record_bytes",
            "input_record_bytes",
            "combine_reduction",
            "map_cpu_cost_per_record",
            "reduce_cpu_cost_per_record",
        ):
            if getattr(self, name) < 0:
                raise AnnotationError(f"profile statistic {name} cannot be negative")

    @cached_property
    def key(self) -> Tuple:
        """Every statistic the dataflow derivation reads, built once per profile
        (:attr:`repro.common.content_keys.VertexContentKey.profile_key`)."""
        return (
            self.map_selectivity,
            self.reduce_selectivity,
            self.map_output_record_bytes,
            self.output_record_bytes,
            self.input_record_bytes,
            self.combine_reduction,
            self.map_cpu_cost_per_record,
            self.reduce_cpu_cost_per_record,
            tuple(sorted(self.key_cardinalities.items())),
            tuple(
                sorted(
                    (name, op.selectivity, op.cpu_cost_per_record, op.output_record_bytes)
                    for name, op in self.operator_profiles.items()
                )
            ),
        )

    def operator(self, name: str) -> Optional[OperatorProfile]:
        """Profile of a named operator, or ``None`` when not profiled."""
        return self.operator_profiles.get(name)

    def cardinality(self, fields: Sequence[str], default: float = 0.0) -> float:
        """Distinct-key estimate for a field combination.

        Falls back to the smallest superset's cardinality, then to the
        largest subset's, then to ``default``.
        """
        key = tuple(fields)
        if key in self.key_cardinalities:
            return self.key_cardinalities[key]
        wanted = set(fields)
        supersets = [c for f, c in self.key_cardinalities.items() if wanted.issubset(set(f))]
        if supersets:
            return min(supersets)
        subsets = [c for f, c in self.key_cardinalities.items() if set(f).issubset(wanted) and f]
        if subsets:
            return max(subsets)
        return default

    def merged_with(self, other: "ProfileAnnotation") -> "ProfileAnnotation":
        """Union of two profiles' operator statistics and key cardinalities.

        Used by packing transformations: the packed job's profile knows about
        every operator of the original jobs.
        """
        operators = dict(self.operator_profiles)
        operators.update(other.operator_profiles)
        cardinalities = dict(self.key_cardinalities)
        for fields, count in other.key_cardinalities.items():
            cardinalities[fields] = max(cardinalities.get(fields, 0.0), count)
        return replace(
            self,
            key_cardinalities=cardinalities,
            operator_profiles=operators,
            combine_reduction=min(self.combine_reduction, other.combine_reduction),
        )


# ---------------------------------------------------------------------------
# Per-job annotation container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JobAnnotations:
    """All annotations attached to one job vertex.

    Immutable: the two mapping fields are stored read-only, and an edit is
    ``dataclasses.replace(annotations, ...)`` bound to the vertex through
    :meth:`repro.workflow.graph.Workflow.annotate_job`.

    Besides the paper's three annotation categories, the container also
    carries *conditions* imposed on the job by previously applied
    transformations: a partition-function constraint (set on the producer by
    intra-job vertical packing) and arbitrary named condition flags.  Later
    partition-function and configuration transformations must satisfy these
    conditions (paper §3.4/§3.5: "the new function/configuration should
    satisfy all current conditions").
    """

    schema: Optional[SchemaAnnotation] = None
    filter: Optional[FilterAnnotation] = None
    profile: Optional[ProfileAnnotation] = None
    #: Filters applied per input dataset name (when a job reads several
    #: datasets with different predicates, e.g. the log-analysis join).
    per_input_filters: Mapping[str, FilterAnnotation] = field(default_factory=dict)
    #: Constraint on the job's partition function imposed by a transformation.
    partition_constraint: Optional[PartitionFunction] = None
    #: Free-form condition flags, e.g. {"chained_consumer": "J7"}.
    conditions: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_input_filters", read_only(self.per_input_filters))
        object.__setattr__(self, "conditions", read_only(self.conditions))

    @cached_property
    def key(self) -> Tuple:
        """Content of everything but the profile, built once per container.

        The profile is deliberately *not* re-keyed here: its content already
        reaches the decision key through the vertex content key
        (:attr:`ProfileAnnotation.key`, held by
        :attr:`repro.workflow.graph.JobVertex.content_key`).
        """
        return (
            schema_annotation_key(self.schema),
            filter_annotation_key(self.filter),
            tuple(
                sorted(
                    (name, filter_annotation_key(flt))
                    for name, flt in self.per_input_filters.items()
                )
            ),
            optional_key(self.partition_constraint),
            tuple(
                sorted(
                    ((str(name), plain_value_key(value)) for name, value in self.conditions.items()),
                    key=repr,
                )
            ),
        )

    @property
    def has_profile(self) -> bool:
        """Whether a profile annotation is available."""
        return self.profile is not None

    def filter_for(self, dataset_name: Optional[str] = None) -> Optional[FilterAnnotation]:
        """The filter annotation for a specific input dataset, or the job-wide one."""
        if dataset_name is not None and dataset_name in self.per_input_filters:
            return self.per_input_filters[dataset_name]
        return self.filter
