"""Recursive Random Search (RRS) over configuration spaces.

Stubby uses RRS [24] to search the large, high-dimensional configuration
space of each enumerated subplan (paper §4.2).  RRS alternates two phases:

* **explore** — sample the space uniformly at random to find a promising
  region (a point whose cost is in the best fraction seen so far);
* **exploit** — sample recursively inside a shrinking neighbourhood of the
  best point, re-centring on improvements and shrinking on failures, until
  the neighbourhood collapses; then restart exploration.

Sampling is **generation-at-a-time**: each phase first draws a whole
generation of sample points from the RNG, then evaluates the generation's
distinct, not-yet-seen points, and only then folds the values back into the
search state.  Because every point of a generation is drawn before any of
them is evaluated, the points cannot depend on each other's values, and a
point sampled twice — within a generation or across generations — is
evaluated once.  Within a generation, ties are broken by sample index.

The implementation is deterministic given its RNG seed, which keeps the
optimizer's output reproducible across runs, backends, and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.rng import DeterministicRNG
from repro.mapreduce.config import ConfigurationSpace

#: A sample: its values in the space's dimension order.
Point = Tuple[object, ...]
Objective = Callable[[Point], float]


@dataclass
class RRSResult:
    """Outcome of one RRS run."""

    best_point: Dict[str, object]
    best_value: float
    evaluations: int
    #: Sampled points that were *not* dispatched to the objective because an
    #: identical point had already been evaluated in this search (within the
    #: same generation or an earlier one).  ``evaluations`` counts only
    #: dispatched points, so ``evaluations + duplicate_points`` is the total
    #: number of points the search drew.
    duplicate_points: int = 0


class RecursiveRandomSearch:
    """Minimize a black-box objective over a :class:`ConfigurationSpace`."""

    def __init__(
        self,
        exploration_samples: int = 12,
        exploitation_samples: int = 10,
        initial_radius: float = 0.3,
        shrink_factor: float = 0.5,
        min_radius: float = 0.05,
        restarts: int = 2,
        seed: int = 13,
    ) -> None:
        if exploration_samples <= 0 or exploitation_samples <= 0:
            raise ValueError("sample counts must be positive")
        if not 0.0 < shrink_factor < 1.0:
            raise ValueError("shrink_factor must be in (0, 1)")
        self.exploration_samples = exploration_samples
        self.exploitation_samples = exploitation_samples
        self.initial_radius = initial_radius
        self.shrink_factor = shrink_factor
        self.min_radius = min_radius
        self.restarts = restarts
        self.seed = seed

    def search(
        self,
        space: ConfigurationSpace,
        objective: Objective,
        initial_point: Optional[Mapping[str, object]] = None,
        rng: Optional[DeterministicRNG] = None,
    ) -> RRSResult:
        """Run RRS and return the best point found.

        A point is the tuple of its values in ``space.dimensions`` order; the
        objective receives it as such.  ``initial_point`` (typically the job's
        current configuration, by dimension name, naming every dimension) is
        always evaluated first so the search can never return something worse
        than the starting configuration.
        """
        rng = rng or DeterministicRNG(self.seed)
        duplicate_points = 0
        #: Every value computed so far, keyed by the point.  Identical points
        #: — within one generation or across generations of the same search —
        #: are dispatched to the objective once; duplicates reuse the memoized
        #: value.  The objective is deterministic in the point (same forked
        #: RNG stream per candidate), so the per-point values the search
        #: state folds in are identical to evaluating everything, and the
        #: argmin is unchanged.
        evaluated: Dict[Point, float] = {}

        def run_generation(points: Sequence[Point]) -> List[float]:
            nonlocal duplicate_points
            fresh: Dict[Point, None] = {}
            for point in points:
                if point not in evaluated:
                    fresh[point] = None
            duplicate_points += len(points) - len(fresh)
            for point in fresh:
                evaluated[point] = objective(point)
            return [evaluated[point] for point in points]

        if not space.dimensions:
            value = run_generation([()])[0]
            return RRSResult(
                best_point={},
                best_value=value,
                evaluations=len(evaluated),
                duplicate_points=duplicate_points,
            )

        best_point: Point = ()
        best_value = float("inf")
        if initial_point is not None:
            clamped = space.clamp(initial_point)
            best_point = tuple(clamped[name] for name in space.names)
            best_value = run_generation([best_point])[0]

        for _ in range(self.restarts):
            # Exploration generation: draw everything, then evaluate at once.
            explore_points = [space.sample(rng) for _ in range(self.exploration_samples)]
            explore_values = run_generation(explore_points)
            region_center = None
            region_value = float("inf")
            for point, value in zip(explore_points, explore_values):
                if value < region_value:
                    region_center, region_value = point, value
                if value < best_value:
                    best_point, best_value = point, value

            if region_center is None:
                continue

            # Exploitation: each round samples one generation around the
            # round's center, then re-centres on the generation's best (ties
            # by sample index) or shrinks when nothing improved.  The round
            # cap bounds the run when the objective keeps improving slightly.
            radius = self.initial_radius
            center, center_value = region_center, region_value
            rounds = 0
            while radius >= self.min_radius and rounds < 12:
                rounds += 1
                exploit_points = space.sample_near(
                    center, radius, rng, self.exploitation_samples
                )
                exploit_values = run_generation(exploit_points)
                improved = False
                for point, value in zip(exploit_points, exploit_values):
                    if value < center_value:
                        center, center_value = point, value
                        improved = True
                    if value < best_value:
                        best_point, best_value = point, value
                if not improved:
                    radius *= self.shrink_factor

        return RRSResult(
            best_point=dict(zip(space.names, best_point)),
            best_value=best_value,
            evaluations=len(evaluated),
            duplicate_points=duplicate_points,
        )
