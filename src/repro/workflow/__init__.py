"""Workflow DAG model, annotations, and the workflow executor."""

from repro.workflow.annotations import (
    DatasetAnnotation,
    FilterAnnotation,
    FilterRange,
    JobAnnotations,
    OperatorProfile,
    ProfileAnnotation,
    SchemaAnnotation,
)
from repro.workflow.graph import DatasetVertex, JobVertex, Workflow
from repro.workflow.executor import WorkflowExecutionResult, WorkflowExecutor

__all__ = [
    "DatasetAnnotation",
    "FilterAnnotation",
    "FilterRange",
    "JobAnnotations",
    "OperatorProfile",
    "ProfileAnnotation",
    "SchemaAnnotation",
    "DatasetVertex",
    "JobVertex",
    "Workflow",
    "WorkflowExecutionResult",
    "WorkflowExecutor",
]
