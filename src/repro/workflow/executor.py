"""Workflow execution: run every job of a workflow on the local engine.

The executor stages base datasets into an in-memory filesystem, runs jobs in
topological order, and records per-job execution counters.  Those counters
feed the cluster cost simulator to produce the "actual" simulated runtime of
the workflow on the configured cluster, and feed the profiler when building
profile annotations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.common.errors import ExecutionError
from repro.common.records import Record
from repro.dfs.dataset import Dataset
from repro.dfs.filesystem import InMemoryFileSystem
from repro.mapreduce.counters import ExecutionCounters
from repro.mapreduce.engine import JobExecutionResult, LocalEngine
from repro.workflow.graph import Workflow


@dataclass
class WorkflowExecutionResult:
    """Outcome of executing a workflow end to end."""

    workflow_name: str
    job_results: Dict[str, JobExecutionResult] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    #: Per-job snapshot of every output dataset's records, taken right after
    #: the job ran (before any downstream job could overwrite the dataset).
    #: Filled only when executing with ``collect_outputs=True``; this is what
    #: the differential-verification harness diffs at job granularity.
    job_outputs: Dict[str, Dict[str, List[Record]]] = field(default_factory=dict)

    @property
    def num_jobs(self) -> int:
        """Number of jobs that were executed."""
        return len(self.job_results)

    def counters_for(self, job_name: str) -> ExecutionCounters:
        """Counters of a specific job."""
        if job_name not in self.job_results:
            raise ExecutionError(f"no execution result for job {job_name!r}")
        return self.job_results[job_name].counters


class WorkflowExecutor:
    """Runs workflows on a :class:`LocalEngine` over an in-memory filesystem."""

    def __init__(self, engine: Optional[LocalEngine] = None) -> None:
        self.engine = engine or LocalEngine()

    def execute(
        self,
        workflow: Workflow,
        base_datasets: Optional[Mapping[str, Dataset]] = None,
        filesystem: Optional[InMemoryFileSystem] = None,
        collect_outputs: bool = False,
    ) -> tuple:
        """Execute ``workflow``; returns ``(result, filesystem)``.

        ``base_datasets`` supplies materialized data for base dataset
        vertices by name; alternatively the workflow's dataset vertices may
        already carry materialized datasets, or an existing ``filesystem``
        with the data staged can be passed in.  With ``collect_outputs`` the
        result additionally snapshots every job's output records
        (``result.job_outputs``) for job-level differential comparison.
        """
        workflow.validate()
        fs = filesystem or InMemoryFileSystem()
        self._stage_inputs(workflow, base_datasets or {}, fs)

        result = WorkflowExecutionResult(workflow_name=workflow.name)
        started = time.perf_counter()
        for vertex in workflow.topological_order():
            for input_name in vertex.job.input_datasets:
                if not fs.exists(input_name):
                    raise ExecutionError(
                        f"job {vertex.name!r} needs dataset {input_name!r} which is neither "
                        "a staged base dataset nor produced by an upstream job"
                    )
            job_result = self.engine.execute_job(vertex.job, fs)
            result.job_results[vertex.name] = job_result
            if collect_outputs:
                # Reuse the engine-level snapshot when the engine collected
                # one; otherwise read the just-written datasets back.
                result.job_outputs[vertex.name] = job_result.output_records or {
                    name: fs.get(name).all_records() for name in job_result.output_datasets
                }
        result.wall_clock_seconds = time.perf_counter() - started
        return result, fs

    @staticmethod
    def _stage_inputs(
        workflow: Workflow,
        base_datasets: Mapping[str, Dataset],
        fs: InMemoryFileSystem,
    ) -> None:
        for dataset_vertex in workflow.base_datasets():
            name = dataset_vertex.name
            if fs.exists(name):
                continue
            if name in base_datasets:
                fs.put(base_datasets[name])
            elif dataset_vertex.dataset is not None:
                fs.put(dataset_vertex.dataset)
        # Non-base vertices with materialized data (e.g. when re-running only
        # part of a workflow) are also staged if nothing will produce them.
        for dataset_vertex in workflow.datasets:
            if fs.exists(dataset_vertex.name):
                continue
            if dataset_vertex.dataset is not None and workflow.producer_of(dataset_vertex.name) is None:
                fs.put(dataset_vertex.dataset)
