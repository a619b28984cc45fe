"""Deterministic random number generation.

All stochastic components (data generators, Recursive Random Search) draw
from a :class:`DeterministicRNG` seeded explicitly, so experiments and tests
are reproducible run to run.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

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
        #: ``(n, alpha, type(alpha)) -> (cumulative weights, total)``, built on
        #: a law's first draw from this generator and kept only as long as it.
        self._zipf_tables: Dict[tuple, Tuple[List[float], float]] = {}

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
        """Uniform integer in ``[low, high]`` inclusive.

        ``random.Random.randint(a, b)`` is ``randrange(a, b + 1)``; calling
        that directly draws the same stream one call shallower.
        """
        return self._random.randrange(low, high + 1)

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

    def gauss(self, mu: float, sigma: float) -> float:
        """Gaussian sample."""
        return self._random.gauss(mu, sigma)

    def zipf(self, n: int, alpha: float = 1.5) -> int:
        """Sample an integer in ``[1, n]`` from a (truncated) Zipf law.

        Used by the power-law data generators (web graph, coauthor pairs).
        """
        if n <= 0:
            raise ValueError("zipf domain must be positive")
        # Inverse-CDF sampling over the truncated harmonic weights.  The
        # cumulative table adds the weights in order, as a running sum does,
        # and ``total`` is ``sum()`` of them (compensated from Python 3.12 on),
        # not the table's last entry; the type of ``alpha`` is in the key
        # because ``i ** 2`` and ``i ** 2.0`` need not round alike.
        key = (n, alpha, type(alpha))
        table = self._zipf_tables.get(key)
        if table is None:
            weights = [1.0 / (i ** alpha) for i in range(1, n + 1)]
            table = self._zipf_tables[key] = (list(accumulate(weights)), sum(weights))
        cumulative, total = table
        index = bisect_left(cumulative, self._random.random() * total)
        return index + 1 if index < n else n
