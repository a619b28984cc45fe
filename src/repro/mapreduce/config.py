"""Job configuration and the configuration search space.

The configuration transformation (§3.5) changes settings such as the number
of reduce tasks, the map-output sort buffer, and output compression.  Stubby
searches this space with Recursive Random Search, so the space itself is
modelled explicitly as :class:`ConfigurationSpace`: a frozen tuple of named
dimensions, each either numeric (with bounds) or boolean, from which points
can be sampled and clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.rng import DeterministicRNG

#: The settings :meth:`JobConfig.with_settings` applies, each with the floor
#: its value is rounded up to (``None``: a flag, taken as ``bool``).
SETTING_FLOORS: Dict[str, Optional[int]] = {
    "num_reduce_tasks": 1,
    "split_size_mb": 8,
    "io_sort_mb": 8,
    "combiner_enabled": None,
    "compress_map_output": None,
    "compress_output": None,
}

#: ``(index into a point, setting, floor)``: how :meth:`JobConfig.with_values` reads a point.
SettingSlots = Tuple[Tuple[int, str, Optional[int]], ...]


@dataclass(frozen=True)
class JobConfig:
    """Execution configuration of a single MapReduce job.

    Attributes
    ----------
    num_reduce_tasks:
        Reduce-side parallelism.  ``0`` for map-only jobs.
    split_size_mb:
        Map input split size; determines map-side parallelism together with
        the input size.
    io_sort_mb:
        Map-output sort buffer.  Smaller buffers cause more spill/merge
        passes, which the cost model charges for.
    combiner_enabled:
        Whether the combine function (if any) runs on the map side.
    compress_map_output / compress_output:
        Compression of intermediate (shuffle) data and of the job output.
    max_parallel_maps_per_producer_reduce:
        Chaining constraint set by intra-job vertical packing: when ``1``,
        every producer reduce task's output must be consumed, in order, by a
        single map task of this job (paper §3.1 postcondition 2).
    forced_single_reduce:
        Set for jobs that must run a single reduce task for correctness
        (e.g. global top-K); the optimizer must not override it.
    """

    num_reduce_tasks: int = 1
    split_size_mb: int = 64
    io_sort_mb: int = 128
    combiner_enabled: bool = False
    compress_map_output: bool = False
    compress_output: bool = False
    max_parallel_maps_per_producer_reduce: int = 0
    forced_single_reduce: bool = False

    #: The field names in declaration order, which :attr:`key` reads (set
    #: below the class, from ``dataclasses.fields``).
    _FIELD_NAMES: ClassVar[Tuple[str, ...]]

    def __post_init__(self) -> None:
        if self.num_reduce_tasks < 0:
            raise ValueError("num_reduce_tasks cannot be negative")
        if self.split_size_mb <= 0:
            raise ValueError("split_size_mb must be positive")
        if self.io_sort_mb <= 0:
            raise ValueError("io_sort_mb must be positive")

    @property
    def is_map_only(self) -> bool:
        """True when the job runs no reduce tasks."""
        return self.num_reduce_tasks == 0

    @property
    def chained_input(self) -> bool:
        """True when the chaining constraint from vertical packing applies."""
        return self.max_parallel_maps_per_producer_reduce == 1

    def replace(self, **changes: object) -> "JobConfig":
        """Functional update preserving immutability.

        The constructor builds (and ``__post_init__`` validates) the derived
        config from this one's field values — never from its cached
        :attr:`key`, which describes ``self``.
        """
        values = dict(self.__dict__)
        values.pop("key", None)
        values.update(changes)
        return type(self)(**values)

    def with_settings(self, settings: Mapping[str, object]) -> "JobConfig":
        """Apply a point from a :class:`ConfigurationSpace` to this config.

        Constraints already present on the config (forced single reduce,
        chained input) are preserved regardless of the sampled settings —
        this is how configuration transformations "satisfy all current
        conditions" on the configuration (paper §3.5).  ``self`` if nothing changes.
        """
        return self.with_values(tuple(settings.values()), self.setting_slots(enumerate(settings)))

    def setting_slots(self, names: Iterable[Tuple[int, str]]) -> SettingSlots:
        """The ``(index, setting)`` pairs :meth:`with_values` applies here, with
        their floors (unknown names and a constraint-held reduce count left out)."""
        held = self.forced_single_reduce or self.is_map_only
        return tuple(
            (index, name, SETTING_FLOORS[name])
            for index, name in names
            if name in SETTING_FLOORS and not (held and name == "num_reduce_tasks")
        )

    def with_values(self, point: Sequence[object], slots: SettingSlots) -> "JobConfig":
        """:meth:`with_settings` for a point given as values (an RRS sample)."""
        current = self.__dict__
        values = None
        for index, name, floor in slots:
            value = point[index]
            value = bool(value) if floor is None else max(floor, round(float(value)))
            if value != current[name]:
                if values is None:
                    values = current.copy()
                    values.pop("key", None)
                values[name] = value
        if values is None:
            return self
        # The constructor's work without its keyword round trip; __post_init__ still validates.
        config = object.__new__(type(self))
        config.__dict__.update(values)
        config.__post_init__()
        return config

    @cached_property
    def key(self) -> Tuple[object, ...]:
        """Every field's value in declaration order, built once per config.

        The content a cache key must pin: :meth:`as_dict` leaves out the two
        constraint fields, and :meth:`with_settings` reads one of them.
        """
        return tuple([getattr(self, name) for name in self._FIELD_NAMES])

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view of the searched settings, for reporting and RRS seeding."""
        return {
            "num_reduce_tasks": self.num_reduce_tasks,
            "split_size_mb": self.split_size_mb,
            "io_sort_mb": self.io_sort_mb,
            "combiner_enabled": self.combiner_enabled,
            "compress_map_output": self.compress_map_output,
            "compress_output": self.compress_output,
        }

    @classmethod
    def rule_of_thumb(cls, cluster_reduce_slots: int, map_only: bool = False) -> "JobConfig":
        """The manually tuned configuration used by the Baseline (§7).

        Follows the usual rules of thumb: number of reduce tasks slightly
        below one reduce wave, a mid-sized sort buffer, no compression.
        """
        reduces = 0 if map_only else max(1, int(cluster_reduce_slots * 0.9))
        return cls(num_reduce_tasks=reduces, split_size_mb=64, io_sort_mb=128)


JobConfig._FIELD_NAMES = tuple(f.name for f in fields(JobConfig))


@dataclass(frozen=True)
class ConfigDimension:
    """One searchable configuration dimension."""

    name: str
    kind: str  # "int", "bool"
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("int", "bool"):
            raise ValueError(f"unsupported dimension kind {self.kind!r}")
        if self.kind == "int" and self.high < self.low:
            raise ValueError(f"dimension {self.name!r} has empty range")

    def clamp(self, value: object) -> object:
        """Clamp/convert a value into this dimension's domain."""
        if self.kind == "bool":
            return bool(value)
        return int(round(min(max(float(value), self.low), self.high)))


@dataclass(frozen=True)
class ConfigurationSpace:
    """The set of dimensions searched by configuration transformations."""

    dimensions: Tuple[ConfigDimension, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))

    @classmethod
    def for_job(
        cls,
        max_reduce_tasks: int,
        map_only: bool = False,
        has_combiner: bool = False,
    ) -> "ConfigurationSpace":
        """Build the standard configuration space for one job.

        Map-only jobs have no reduce-task or shuffle-compression dimensions;
        jobs without a combine function have no combiner dimension.
        """
        dims: List[ConfigDimension] = [
            ConfigDimension("split_size_mb", "int", 32, 256),
            ConfigDimension("io_sort_mb", "int", 64, 512),
            ConfigDimension("compress_output", "bool"),
        ]
        if not map_only:
            dims.insert(0, ConfigDimension("num_reduce_tasks", "int", 1, max(1, max_reduce_tasks)))
            dims.append(ConfigDimension("compress_map_output", "bool"))
        if has_combiner and not map_only:
            dims.append(ConfigDimension("combiner_enabled", "bool"))
        return cls(dimensions=dims)

    @cached_property
    def names(self) -> Tuple[str, ...]:
        """Dimension names in declaration order."""
        return tuple(dim.name for dim in self.dimensions)

    @cached_property
    def _rows(self) -> Tuple[Tuple[bool, float, float, float], ...]:
        # What the samplers read per dimension: (is bool, low, high, high - low).
        return tuple(
            (dim.kind == "bool", dim.low, dim.high, dim.high - dim.low) for dim in self.dimensions
        )

    def sample(self, rng: DeterministicRNG) -> Tuple[object, ...]:
        """One uniformly random point: its values in dimension order.

        A bool takes one draw; an int takes ``low + (high - low) * draw``
        rounded (``random.uniform``'s arithmetic), so each dimension consumes
        the stream exactly as it always has.
        """
        draw = rng.draw
        return tuple([
            draw() < 0.5 if is_bool else round(low + width * draw())
            for is_bool, low, _, width in self._rows
        ])

    def sample_near(
        self,
        center: Sequence[object],
        radius: float,
        rng: DeterministicRNG,
        count: int,
    ) -> List[Tuple[object, ...]]:
        """``count`` points in the neighbourhood of ``center`` of relative size ``radius``.

        A bool is redrawn with probability ``radius`` (two draws) and kept
        otherwise (one); an int is drawn uniformly within ``radius`` of the
        range around its centre value, then clamped (``round`` of a float is
        already an ``int``).  What a dimension's draw is scaled and clamped
        by is worked out once for the generation; the points are drawn one
        after the other, each dimension in order, so the stream is consumed
        as by ``count`` single-point draws.  An int whose whole neighbourhood
        lies in its range is not clamped: ``start + extent * draw`` lies
        between ``start`` and ``start + extent`` (rounding is monotone), where
        a clamp returns the drawn value.
        """
        draw = rng.draw
        # Per dimension: (None, kept value, None, None) for a bool, (start, extent, low, high)
        # for an int, (start, extent, None, None) for an int it need not clamp.
        rows = []
        for (is_bool, low, high, width), value in zip(self._rows, center):
            if is_bool:
                rows.append((None, bool(value), None, None))
            else:
                value = float(value)
                span = width * radius
                start = value - span
                extent = value + span - start
                if low <= start <= start + extent <= high:
                    rows.append((start, extent, None, None))
                else:
                    rows.append((start, extent, low, high))
        points = []
        for _ in range(count):
            point = []
            for start, extent, low, high in rows:
                if start is None:  # a bool: ``extent`` holds its kept value
                    point.append(draw() < 0.5 if draw() < radius else extent)
                elif low is None:
                    point.append(round(start + extent * draw()))
                else:
                    drawn = start + extent * draw()
                    point.append(round(low if drawn < low else high if high < drawn else drawn))
            points.append(tuple(point))
        return points

    def clamp(self, point: Mapping[str, object]) -> Dict[str, object]:
        """Clamp a point into the space's domain, dropping unknown names."""
        by_name = {dim.name: dim for dim in self.dimensions}
        return {name: by_name[name].clamp(value) for name, value in point.items() if name in by_name}
