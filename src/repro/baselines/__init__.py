"""Baseline and state-of-the-art comparator optimizers from the paper's §7.

* :class:`PigBaselineOptimizer` — how Pig is used in production: rule-based
  multi-query (horizontal) packing plus manually tuned rule-of-thumb
  configurations.
* :class:`StarfishOptimizer` — cost-based configuration transformations only
  [8].
* :class:`YSmartOptimizer` — rule-based vertical and horizontal packing that
  aggressively minimizes the number of jobs [11], with rule-based
  configurations.
* :class:`MRShareOptimizer` — cost-based horizontal packing only [13], with
  rule-based configurations.

:func:`make_optimizer` is the one name → optimizer registry: the paper's
three Stubby variants plus the four comparators above, built over
(optionally shared) stores.  The experiment harness, the planning server and
its cold oracle all construct their optimizers through it.
"""

from typing import Optional

from repro.baselines.base import BaselineOptimizer
from repro.baselines.pig_baseline import PigBaselineOptimizer
from repro.baselines.starfish import StarfishOptimizer
from repro.baselines.ysmart import YSmartOptimizer
from repro.baselines.mrshare import MRShareOptimizer
from repro.core.optimizer import StubbyOptimizer

__all__ = [
    "OPTIMIZER_NAMES",
    "BaselineOptimizer",
    "PigBaselineOptimizer",
    "StarfishOptimizer",
    "YSmartOptimizer",
    "MRShareOptimizer",
    "make_optimizer",
]

_SEARCH_VARIANTS = {
    "Stubby": StubbyOptimizer,
    "Vertical": StubbyOptimizer.vertical_only,
    "Horizontal": StubbyOptimizer.horizontal_only,
}
_COMPARATORS = {
    "Baseline": PigBaselineOptimizer,
    "Starfish": StarfishOptimizer,
    "YSmart": YSmartOptimizer,
    "MRShare": MRShareOptimizer,
}

#: Every display name :func:`make_optimizer` builds.
OPTIMIZER_NAMES = (*_SEARCH_VARIANTS, *_COMPARATORS)


def make_optimizer(
    name: str,
    cluster,
    seed: Optional[int] = None,
    cost_service=None,
    decision_cache=None,
    subresult_catalog=None,
):
    """Instantiate an optimizer by its display name over (optionally shared) stores.

    Only the Stubby variants run the unit search and carry the reuse
    rewrite, so only they take the decision cache and the sub-result
    catalog; the comparators share the cost service and nothing else (their
    plans are the recompute reference the reuse rewrite is arbitrated
    against).  ``seed`` overrides the search-RNG seed of the
    seeded optimizers (Stubby variants, Starfish); ``None`` keeps each
    class's default, and rule-based optimizers ignore it.
    """
    seeded = {} if seed is None else {"seed": seed}
    if name in _SEARCH_VARIANTS:
        return _SEARCH_VARIANTS[name](
            cluster,
            cost_service=cost_service,
            decision_cache=decision_cache,
            subresult_catalog=subresult_catalog,
            **seeded,
        )
    if name == "Starfish":
        return StarfishOptimizer(cluster, cost_service=cost_service, **seeded)
    if name in _COMPARATORS:
        return _COMPARATORS[name](cluster, cost_service=cost_service)
    raise KeyError(f"unknown optimizer {name!r}; expected one of {OPTIMIZER_NAMES}")
