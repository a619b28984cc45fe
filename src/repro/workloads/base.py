"""The workload bundle shared by every evaluation workflow builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.plan import Plan
from repro.dfs.dataset import Dataset
from repro.workflow.graph import Workflow

GB = 1024.0 ** 3


@dataclass
class Workload:
    """An evaluation workflow plus its generated inputs and metadata."""

    name: str
    abbreviation: str
    workflow: Workflow
    base_datasets: Dict[str, Dataset] = field(default_factory=dict)
    paper_dataset_gb: float = 0.0
    description: str = ""

    @property
    def plan(self) -> Plan:
        """A fresh plan wrapping (a copy of) the workflow, ready for optimization."""
        return Plan(self.workflow.copy())

    @property
    def num_jobs(self) -> int:
        """Number of jobs in the unoptimized workflow."""
        return self.workflow.num_jobs

    @property
    def logical_dataset_gb(self) -> float:
        """Scaled (logical) size of all base datasets, in GB."""
        return sum(d.logical_bytes for d in self.base_datasets.values()) / GB


def attach_dataset_annotations(workflow: Workflow, datasets: Dict[str, Dataset]) -> None:
    """Attach materialized data and dataset annotations to base dataset vertices.

    Workflow generators are responsible for conveying known physical-design
    information through dataset annotations (paper §2.2); the workload
    builders derive them directly from the generated datasets' layouts.
    """
    from repro.profiler.profiler import Profiler

    profiler = Profiler()
    for name, dataset in datasets.items():
        if workflow.has_dataset(name):
            workflow.add_dataset(name, dataset=dataset, annotation=profiler.annotate_dataset(dataset))


def apply_paper_scale(datasets: Dict[str, Dataset], paper_gb_by_name: Dict[str, float]) -> None:
    """Set each dataset's ``scale_factor`` so its logical size matches the paper.

    The generated data is MB-scale; the scale factor is the ratio between the
    paper's dataset size and the generated raw bytes, which the cost model
    uses to put simulated runtimes in the paper's regime.
    """
    for name, dataset in datasets.items():
        paper_gb = paper_gb_by_name.get(name, 0.0)
        if paper_gb <= 0.0 or dataset.raw_bytes <= 0:
            continue
        dataset.scale_factor = (paper_gb * GB) / dataset.raw_bytes
