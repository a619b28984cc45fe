"""Objects built without arguments read nothing from the process environment.

The optimizer sees only what arrives with the plan — annotations, profiles,
the cluster — and the stores it is handed.  The two owners that merge-save
their stores, ``ExperimentHarness`` and ``PlanningServer``, are the only
readers of the ``STUBBY_*`` path variables
(``tests/test_cache_persistence.py::TestPathResolution`` holds them to it);
an optimizer, search, baseline, store or scheduler built anywhere else is
the same object whatever the shell exported.
"""

import inspect

from repro.baselines import (
    OPTIMIZER_NAMES,
    BaselineOptimizer,
    MRShareOptimizer,
    PigBaselineOptimizer,
    StarfishOptimizer,
    YSmartOptimizer,
    make_optimizer,
)
from repro.cluster import ClusterSpec
from repro.common.faults import active_plan
from repro.common.store import ShardedStore
from repro.core.decision_cache import DecisionCache
from repro.core.optimizer import StubbyOptimizer
from repro.core.search import StubbySearch
from repro.core.subresults import SubResultCatalog
from repro.experiments import ExperimentScheduler
from repro.profiler import Profiler
from repro.whatif import CostService
from repro.workloads import build_workload

CLUSTER = ClusterSpec.paper_cluster()


def _exported(tmp_path):
    """Every ``STUBBY_*`` name the library has read, set so that obeying it shows."""
    return {
        "STUBBY_COST_CACHE": str(tmp_path / "costs.cache"),
        "STUBBY_DECISION_CACHE": str(tmp_path / "decisions.cache"),
        "STUBBY_SUBRESULT_CATALOG": str(tmp_path / "subresults.cache"),
        "STUBBY_DECISION_CACHE_ENABLED": "0",
        "STUBBY_SUBRESULT_CATALOG_ENABLED": "0",
        "STUBBY_EXPERIMENT_BACKEND": "process:3",
        # Installed by nothing but an explicit install_from_env(): a default
        # object that read it would fail every cost query.
        "STUBBY_FAULT_PLAN": '[{"site": "whatif.estimate", "kind": "terminal"}]',
        "STUBBY_FAULT_SEED": "5",
    }


def _stores(component):
    return [
        getattr(component, name)
        for name in ("costs", "decisions", "subresults")
        if hasattr(component, name)
    ]


def _profiled_ir():
    workload = build_workload("IR", scale=0.05)
    Profiler().profile_workflow(workload.workflow, workload.base_datasets)
    return workload.plan


def test_default_constructed_objects_ignore_the_environment(tmp_path, monkeypatch):
    plan = _profiled_ir()
    clean = StubbyOptimizer(CLUSTER).optimize(plan.copy()).decision_fingerprint()
    plan_before = active_plan()
    for name, value in _exported(tmp_path).items():
        monkeypatch.setenv(name, value)

    variants = [
        StubbyOptimizer(CLUSTER),
        StubbyOptimizer.vertical_only(CLUSTER),
        StubbyOptimizer.horizontal_only(CLUSTER),
    ]
    components = [
        *variants,
        *(make_optimizer(name, CLUSTER) for name in OPTIMIZER_NAMES),
        StubbySearch(CLUSTER, [], []),
    ]
    stores = [store for component in components for store in _stores(component)]
    stores += [CostService(CLUSTER), DecisionCache(CLUSTER), SubResultCatalog(CLUSTER)]
    assert len(stores) == 3 * 6 + 4 + 2 + 3
    for store in stores:
        assert store.cache_path is None and store.last_load is None, type(store).__name__
        assert store.enabled is True, type(store).__name__
    assert ExperimentScheduler().spec == "serial:1"

    result = variants[0].optimize(plan.copy())
    assert result.decision_fingerprint() == clean
    assert active_plan() is plan_before
    assert list(tmp_path.iterdir()) == []


def test_only_the_owners_take_a_persistence_path():
    """A class that never persists has no path parameter to be handed one."""
    never_persist = (
        StubbyOptimizer,
        BaselineOptimizer,
        PigBaselineOptimizer,
        StarfishOptimizer,
        YSmartOptimizer,
        MRShareOptimizer,
    )
    for cls in never_persist:
        parameters = inspect.signature(cls).parameters
        assert [name for name in parameters if name.endswith("_path")] == [], cls.__name__
    assert list(inspect.signature(ShardedStore.ensure).parameters) == ["cluster", "store"]
