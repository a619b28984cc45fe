"""``DeterministicRNG.zipf`` as it stood before it drew from a table,
relocated out of ``src/``.

``repro.common.rng.DeterministicRNG.zipf`` builds each law's cumulative
weights once per generator and bisects them; :meth:`ZipfOracle.zipf` here is
the original body, verbatim, rebuilding and scanning the weights on every
draw.  Over a ``random.Random`` seeded alike, the two must return the same
draws with the same types (``tests/test_rng_and_cluster.py``).
"""

import random


class ZipfOracle:
    """The original ``zipf`` over its own ``random.Random(seed)`` stream."""

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)

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


def running_sums(n: int, alpha: float) -> list:
    """Every ``acc`` the original loop reaches for ``(n, alpha)``, in order."""
    sums, acc = [], 0.0
    for w in [1.0 / (i ** alpha) for i in range(1, n + 1)]:
        acc += w
        sums.append(acc)
    return sums
