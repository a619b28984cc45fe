"""Starfish-style What-if engine: analytical costing of MapReduce workflows.

The What-if engine answers "how long would this (possibly hypothetical) plan
take on this cluster?" from four inputs (paper §5): the jobs' profile
annotations, the candidate configurations, the input datasets' size/layout,
and the cluster specification.  The *actual* cost path walks the same
workflow walk with the same job model, but builds each job's dataflow from
measured execution counters instead of deriving it from profiles — giving
the estimated-vs-actual comparison of Figure 14.
"""

from repro.whatif.dataflow import JobDataflow
from repro.whatif.jobmodel import JobTimeEstimate, estimate_job_time
from repro.whatif.scheduling import workflow_makespan
from repro.whatif.model import COST_MODEL_VERSION, VertexCost, WhatIfEngine, WorkflowCostEstimate
from repro.whatif.service import (
    CacheLoadReport,
    CostService,
    CostServiceStats,
    cluster_cache_key,
)
from repro.whatif.actual import ActualCostModel
from repro.whatif.adjustment import (
    adjust_profile_for_horizontal_packing,
    adjust_profile_for_inter_job_packing,
    adjust_profile_for_intra_job_packing,
)

__all__ = [
    "JobDataflow",
    "JobTimeEstimate",
    "estimate_job_time",
    "workflow_makespan",
    "VertexCost",
    "WhatIfEngine",
    "WorkflowCostEstimate",
    "CacheLoadReport",
    "COST_MODEL_VERSION",
    "CostService",
    "CostServiceStats",
    "cluster_cache_key",
    "ActualCostModel",
    "adjust_profile_for_intra_job_packing",
    "adjust_profile_for_inter_job_packing",
    "adjust_profile_for_horizontal_packing",
]
