"""Job configuration and the configuration search space.

The configuration transformation (§3.5) changes settings such as the number
of reduce tasks, the map-output sort buffer, and output compression.  Stubby
searches this space with Recursive Random Search, so the space itself is
modelled explicitly as :class:`ConfigurationSpace`: a list of named
dimensions, each either numeric (with bounds) or boolean, from which points
can be sampled and clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.rng import DeterministicRNG


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
        changes = {}
        for name, value in settings.items():
            if name == "num_reduce_tasks":
                if self.forced_single_reduce or self.is_map_only:
                    continue
                value = max(1, int(round(float(value))))
            elif name in ("split_size_mb", "io_sort_mb"):
                value = max(8, int(round(float(value))))
            elif name in ("combiner_enabled", "compress_map_output", "compress_output"):
                value = bool(value)
            else:
                continue
            if value != getattr(self, name):
                changes[name] = value
        return self.replace(**changes) if changes else self

    @cached_property
    def key(self) -> Tuple[object, ...]:
        """Every field's value in declaration order, built once per config.

        The content a cache key must pin: :meth:`as_dict` leaves out the two
        constraint fields, and :meth:`with_settings` reads one of them.
        """
        return tuple(getattr(self, f.name) for f in fields(self))

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

    def sample(self, rng: DeterministicRNG) -> object:
        """Sample a value uniformly from this dimension."""
        if self.kind == "bool":
            return rng.random() < 0.5
        return int(round(rng.uniform(self.low, self.high)))

    def clamp(self, value: object) -> object:
        """Clamp/convert a value into this dimension's domain."""
        if self.kind == "bool":
            return bool(value)
        return int(round(min(max(float(value), self.low), self.high)))

    def sample_near(self, center: object, radius: float, rng: DeterministicRNG) -> object:
        """Sample within a scaled neighbourhood of ``center`` (for RRS exploit)."""
        if self.kind == "bool":
            if rng.random() < radius:
                return rng.random() < 0.5
            return bool(center)
        span = (self.high - self.low) * radius
        return self.clamp(rng.uniform(float(center) - span, float(center) + span))


@dataclass
class ConfigurationSpace:
    """The set of dimensions searched by configuration transformations."""

    dimensions: List[ConfigDimension] = field(default_factory=list)

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

    @property
    def names(self) -> List[str]:
        """Dimension names in declaration order."""
        return [dim.name for dim in self.dimensions]

    def sample(self, rng: DeterministicRNG) -> Dict[str, object]:
        """One uniformly random point."""
        return {dim.name: dim.sample(rng) for dim in self.dimensions}

    def sample_near(
        self,
        center: Mapping[str, object],
        radius: float,
        rng: DeterministicRNG,
    ) -> Dict[str, object]:
        """One point in the neighbourhood of ``center`` of relative size ``radius``."""
        point = {}
        for dim in self.dimensions:
            if dim.name in center:
                point[dim.name] = dim.sample_near(center[dim.name], radius, rng)
            else:
                point[dim.name] = dim.sample(rng)
        return point

    def clamp(self, point: Mapping[str, object]) -> Dict[str, object]:
        """Clamp a point into the space's domain, dropping unknown names."""
        by_name = {dim.name: dim for dim in self.dimensions}
        return {name: by_name[name].clamp(value) for name, value in point.items() if name in by_name}

    def size_estimate(self) -> float:
        """Rough cardinality of the (discretized) space, for reporting."""
        size = 1.0
        for dim in self.dimensions:
            size *= 2 if dim.kind == "bool" else max(1.0, dim.high - dim.low + 1)
        return size
