"""Simulated distributed file-system: datasets, layouts, and partitions."""

from repro.dfs.dataset import Dataset, DatasetPartition, logical_scale
from repro.dfs.layout import DataLayout, PartitionScheme, RangePartitioning
from repro.dfs.filesystem import InMemoryFileSystem

__all__ = [
    "Dataset",
    "DatasetPartition",
    "DataLayout",
    "PartitionScheme",
    "RangePartitioning",
    "InMemoryFileSystem",
    "logical_scale",
]
