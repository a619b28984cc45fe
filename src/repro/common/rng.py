"""Deterministic random number generation.

All stochastic components (data generators, the profiler's sampling noise,
Recursive Random Search) draw from a :class:`DeterministicRNG` seeded
explicitly, so experiments and tests are reproducible run to run.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence, TypeVar

from repro.common.hashing import stable_hash

T = TypeVar("T")


class DeterministicRNG:
    """A thin wrapper over :class:`random.Random` with convenience helpers.

    Parameters
    ----------
    seed:
        Any hashable seed.  Two instances created with the same seed produce
        identical streams.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, label: str) -> "DeterministicRNG":
        """Derive an independent generator for a named sub-component.

        Forking keeps sub-components insulated from each other: adding a
        random draw in one component does not shift the stream seen by
        another.  The child seed is derived with a process-independent hash
        (built-in ``hash()`` is salted per process for strings), so forked
        streams are reproducible across runs — a requirement for replaying a
        differential-verification divergence from its seed.
        """
        return DeterministicRNG(stable_hash((self._seed, label)) & 0x7FFFFFFF)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    @property
    def draw(self) -> Callable[[], float]:
        """The stream's own ``random()``, for a loop that draws many values."""
        return self._random.random

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly at random."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct elements without replacement."""
        return self._random.sample(items, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def gauss(self, mu: float, sigma: float) -> float:
        """Gaussian sample."""
        return self._random.gauss(mu, sigma)

    def zipf(self, n: int, alpha: float = 1.5) -> int:
        """Sample an integer in ``[1, n]`` from a (truncated) Zipf law.

        Used by the power-law data generators (web graph, coauthor pairs).
        """
        if n <= 0:
            raise ValueError("zipf domain must be positive")
        # Inverse-CDF sampling over the truncated harmonic weights.
        weights = [1.0 / (i ** alpha) for i in range(1, n + 1)]
        total = sum(weights)
        target = self._random.random() * total
        acc = 0.0
        for i, w in enumerate(weights, start=1):
            acc += w
            if acc >= target:
                return i
        return n
