"""YSmart comparator: rule-based packing that minimizes the number of jobs [11].

YSmart merges MapReduce jobs whenever its correctness rules allow, with the
goal of minimizing the total number of jobs — without a cost model.  This can
be suboptimal (paper §7.3: YSmart horizontally packs the two Post-processing
consumer jobs even though running them concurrently is faster).  Following
the paper's setup, the comparator is "enhanced with a rule-based approach for
selecting configuration parameter settings".
"""

from __future__ import annotations

from repro.baselines.base import BaselineOptimizer
from repro.core.plan import Plan
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.core.transformations.horizontal import HorizontalPacking
from repro.core.transformations.inter_vertical import InterJobVerticalPacking
from repro.core.transformations.intra_vertical import IntraJobVerticalPacking


class YSmartOptimizer(BaselineOptimizer):
    """Aggressive rule-based vertical + horizontal packing."""

    name = "YSmart"

    def __init__(self, cluster, cost_service=None) -> None:
        super().__init__(cluster, cost_service=cost_service)
        self._intra = IntraJobVerticalPacking()
        self._inter = InterJobVerticalPacking()
        self._horizontal = HorizontalPacking(allow_extended=False)

    def _optimize_plan(self, plan: Plan) -> Plan:
        # YSmart's job-merging rules fire on its SQL operator primitives:
        # shared-scan (horizontal) merging is applied whenever jobs read the
        # same table, then remaining producer-consumer pairs are collapsed
        # vertically — always aiming for the minimum number of jobs.
        current = self._apply_exhaustively(plan, self._horizontal)
        current = self._apply_exhaustively(current, self._intra)
        current = self._apply_exhaustively(current, self._inter)
        ConfigurationTransformation.rule_of_thumb_config(current, self.cluster)
        return current

    @staticmethod
    def _apply_exhaustively(plan: Plan, transformation) -> Plan:
        current = plan
        for _ in range(32):  # generous bound; each application shrinks or constrains the plan
            all_jobs = tuple(current.workflow.job_names)
            applications = transformation.find_applications(current, all_jobs)
            if not applications:
                return current
            current = transformation.apply(current, applications[0])
        return current
