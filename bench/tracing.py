"""Span tracing installed from the benchmark: no edit under ``src/``.

:class:`Tracer` wraps the entry points of each layer (:data:`TARGETS`) while
installed and restores the original bindings afterwards, so an untraced run
executes unmodified ``src/``.  Functions that other modules import by name
(``estimate_job_time`` into ``whatif/model.py`` and ``whatif/service.py``,
``workflow_makespan`` into ``whatif/model.py``) are patched at every
``repro.*`` module that holds the binding — the binding actually called.

Every call of a wrapped function is one span: id, ``layer:function`` label,
start, end, parent span id, request id (the id of the outermost span it
runs under).  A span's *self time* is its duration minus the part its
child spans cover; self times and call counts are summed per layer key and
handed out as one record per outermost span — one per ``optimize()`` call,
or one per served request.  Raw spans are kept in memory up to
``max_spans`` and written out by :meth:`Tracer.write_spans`; the per-key
sums cover every span.

Pool workers forked while the tracer is installed inherit the wrappers.
They keep no raw spans; each served request's record is appended to
``worker-<pid>.jsonl`` under ``worker_dir``, which the parent reads back
with :meth:`Tracer.worker_requests` and writes out as that request's
outermost span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layer key of the outermost span of a cold ``optimize()`` call.
OPTIMIZE_ROOT = "core.optimizer"
#: Layer key of the outermost span of a served request.
SERVE_ROOT = "service.server"


def _count_rrs(counts: Dict[str, float], result) -> None:
    counts["core.rrs.evaluations"] = counts.get("core.rrs.evaluations", 0) + result.evaluations
    counts["core.rrs.duplicate_points"] = (
        counts.get("core.rrs.duplicate_points", 0) + result.duplicate_points
    )


#: (layer key, owner, attributes, result hook).  The owner is a class given
#: as ``module:Class`` or a module whose function is imported by name
#: elsewhere; ``module:Class+`` also wraps every subclass that overrides
#: the attribute.  ``PlanningServer._execute`` is private, but it is the one
#: per-request boundary that runs in the process that does the work.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], Optional[Callable]], ...] = (
    (OPTIMIZE_ROOT, "repro.core.optimizer:StubbyOptimizer", ("optimize",), None),
    (
        "core.search",
        "repro.core.search:StubbySearch",
        ("run", "optimize_units", "enumerate_subplans"),
        None,
    ),
    (
        "core.optimization_unit",
        "repro.core.optimization_unit:OptimizationUnitGenerator",
        ("next_unit", "independent_subunits"),
        None,
    ),
    (
        "core.transformations.find",
        "repro.core.transformations.base:Transformation+",
        ("find_applications",),
        None,
    ),
    (
        "core.transformations.apply",
        "repro.core.transformations.base:Transformation+",
        ("apply",),
        None,
    ),
    ("core.rrs", "repro.core.rrs:RecursiveRandomSearch", ("search",), _count_rrs),
    ("mapreduce.job.with_config", "repro.mapreduce.config:JobConfig", ("with_settings",), None),
    (
        "mapreduce.job.with_config",
        "repro.mapreduce.job:MapReduceJob",
        ("with_config", "with_partitioner"),
        None,
    ),
    (
        "workflow.graph.copy",
        "repro.workflow.graph:Workflow",
        ("copy", "update_job", "mutate_job", "replace_job"),
        None,
    ),
    ("workflow.graph.copy", "repro.core.plan:Plan", ("copy",), None),
    (
        "whatif.service.estimate",
        "repro.whatif.service:CostService",
        ("estimate_workflow", "estimate_plan"),
        None,
    ),
    (
        "whatif.model.signature",
        "repro.whatif.model:WhatIfEngine",
        ("vertex_content_key", "vertex_dataflow_signature", "vertex_cost_signature"),
        None,
    ),
    (
        "whatif.model.derive_dataflow",
        "repro.whatif.model:WhatIfEngine",
        ("derive_vertex_dataflow",),
        None,
    ),
    ("whatif.jobmodel.estimate_job_time", "repro.whatif.jobmodel", ("estimate_job_time",), None),
    ("whatif.scheduling.makespan", "repro.whatif.scheduling", ("workflow_makespan",), None),
    (
        "core.decision_cache.lookup",
        "repro.core.decision_cache:DecisionCache",
        ("lookup",),
        None,
    ),
    (SERVE_ROOT, "repro.service.server:PlanningServer", ("_execute",), None),
)


class _ThreadState:
    """Open spans and running sums of one thread."""

    __slots__ = ("stack", "sums", "counts", "request")

    def __init__(self) -> None:
        #: Open spans, outermost first: ``[span id, seconds covered by children]``.
        self.stack: List[list] = []
        #: layer key -> ``[self seconds, calls]`` since the last outermost span closed.
        self.sums: Dict[str, list] = {}
        self.counts: Dict[str, float] = {}
        self.request = 0


class Tracer:
    """Installs span-recording wrappers around :data:`TARGETS`."""

    def __init__(self, worker_dir: Path, max_spans: int = 200_000) -> None:
        self.worker_dir = Path(worker_dir)
        self.max_spans = max_spans
        #: ``(id, label, start, end, parent id, request id)``, this process only.
        self.spans: List[tuple] = []
        #: One record per closed outermost span of this process.
        self.requests: List[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []
        self._in_worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for key, owner_path, attributes, after in TARGETS:
            for owner in _owners(owner_path):
                for attribute in attributes:
                    self._patch(key, owner, attribute, after)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def _patch(self, key: str, owner, attribute: str, after: Optional[Callable]) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attribute)
            if original is None:
                return  # inherited: the defining class is wrapped instead
            if isinstance(original, (staticmethod, classmethod, property)):
                raise TypeError(f"{owner.__name__}.{attribute} is not a plain method")
            label = f"{key}:{owner.__name__}.{attribute}"
            holders = [owner]
        else:
            original = getattr(owner, attribute)
            label = f"{key}:{attribute}"
            holders = [
                module
                for name, module in sorted(sys.modules.items())
                if name.startswith("repro")
                and module is not None
                and module.__dict__.get(attribute) is original
            ]
        wrapper = self._wrap(key, label, original, after)
        for holder in holders:
            self._patched.append((holder, attribute, original))
            setattr(holder, attribute, wrapper)

    def _wrap(self, key: str, label: str, function: Callable, after: Optional[Callable]):
        local = self._local
        ids = self._ids
        close = self._close

        @functools.wraps(function)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = local.state = _ThreadState()
            stack = state.stack
            frame = [next(ids), 0.0]
            if not stack:
                state.request = frame[0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    after(state.counts, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                close(state, key, label, frame, start, end)

        return traced

    # -------------------------------------------------------------- recording
    def _close(self, state: _ThreadState, key, label, frame, start, end) -> None:
        duration = end - start
        total = state.sums.get(key)
        if total is None:
            total = state.sums[key] = [0.0, 0]
        total[0] += duration - frame[1]
        total[1] += 1
        stack = state.stack
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        else:
            parent_id = 0
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], label, start, end, parent_id, state.request))
        if not stack:
            record = {
                "root": key,
                "label": label,
                "request": state.request,
                "pid": os.getpid(),
                "start": start,
                "end": end,
                "self_s": {name: value[0] for name, value in state.sums.items()},
                "calls": {name: value[1] for name, value in state.sums.items()},
                "counts": state.counts,
            }
            state.sums = {}
            state.counts = {}
            if not self._in_worker:
                self.requests.append(record)
            elif key == SERVE_ROOT:
                path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")

    def _after_fork(self) -> None:
        self._in_worker = True
        self.max_spans = 0
        self.spans = []
        self.requests = []

    # ---------------------------------------------------------------- reading
    def take_requests(self) -> List[dict]:
        """Records of this process closed since the last call."""
        taken, self.requests = self.requests, []
        return taken

    def worker_requests(self) -> List[dict]:
        """Records the forked pool workers wrote (read after the pool stopped)."""
        records = []
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
        return records

    def write_spans(self, path: Path) -> int:
        """Write the spans as JSON lines; returns how many.

        The raw spans this process kept, then one outermost span per request
        a pool worker served, with the self seconds of the layers under it.
        """
        spans = [
            dict(zip(("id", "name", "start", "end", "parent", "request"), span))
            for span in self.spans
        ]
        for record in self.worker_requests():
            spans.append(
                {
                    "id": record["request"],
                    "name": record["label"],
                    "start": record["start"],
                    "end": record["end"],
                    "parent": 0,
                    "request": record["request"],
                    "pid": record["pid"],
                    "self_s": record["self_s"],
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return len(spans)


def _owners(path: str) -> Iterator[object]:
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        yield module
        return
    with_subclasses = class_name.endswith("+")
    owner = getattr(module, class_name.rstrip("+"))
    yield owner
    if with_subclasses:
        # The package import registers every concrete transformation.
        importlib.import_module(module_name.rsplit(".", 1)[0])
        pending = list(owner.__subclasses__())
        while pending:
            subclass = pending.pop()
            pending.extend(subclass.__subclasses__())
            yield subclass


def sum_records(records: List[dict]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Per-key totals of self seconds, calls and counts over ``records``."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for record in records:
        for target, source in ((self_s, "self_s"), (calls, "calls"), (counts, "counts")):
            for name, value in record[source].items():
                target[name] = target.get(name, 0) + value
    return self_s, calls, counts
