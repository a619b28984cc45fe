"""A tiny in-memory "distributed" file-system namespace.

The workflow executor reads job input datasets from and writes job output
datasets to an :class:`InMemoryFileSystem`, keyed by dataset name.  This is
the persistent storage layer of the simulated MapReduce stack: intermediate
datasets between jobs live here exactly as they would live on HDFS, which is
what vertical packing transformations eliminate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.errors import ExecutionError
from repro.dfs.dataset import Dataset


class InMemoryFileSystem:
    """Mutable mapping of dataset name to :class:`Dataset`."""

    def __init__(self) -> None:
        self._datasets: Dict[str, Dataset] = {}

    def put(self, dataset: Dataset) -> None:
        """Store (or replace) a dataset."""
        self._datasets[dataset.name] = dataset

    def get(self, name: str) -> Dataset:
        """Fetch a dataset by name, raising :class:`ExecutionError` if absent."""
        dataset = self._datasets.get(name)
        if dataset is None:
            raise ExecutionError(f"dataset {name!r} does not exist in the filesystem")
        return dataset

    def exists(self, name: str) -> bool:
        """Whether a dataset with this name is stored."""
        return name in self._datasets

    def peek(self, name: str) -> Optional[Dataset]:
        """Like :meth:`get` but returns ``None`` instead of raising."""
        return self._datasets.get(name)
