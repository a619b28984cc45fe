"""A tiny in-memory "distributed" file-system namespace.

The workflow executor reads job input datasets from and writes job output
datasets to an :class:`InMemoryFileSystem`, keyed by dataset name.  This is
the persistent storage layer of the simulated MapReduce stack: intermediate
datasets between jobs live here exactly as they would live on HDFS, which is
what vertical packing transformations eliminate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ExecutionError
from repro.dfs.dataset import Dataset


class InMemoryFileSystem:
    """Mutable mapping of dataset name to :class:`Dataset`."""

    def __init__(self) -> None:
        self._datasets: Dict[str, Dataset] = {}
        #: Total bytes written over the lifetime of this filesystem, which
        #: experiments use to show the intermediate-I/O savings of packing.
        self.total_bytes_written: float = 0.0
        self.total_bytes_read: float = 0.0

    def put(self, dataset: Dataset) -> None:
        """Store (or replace) a dataset."""
        self._datasets[dataset.name] = dataset
        self.total_bytes_written += dataset.stored_bytes

    def get(self, name: str) -> Dataset:
        """Fetch a dataset by name, raising :class:`ExecutionError` if absent."""
        if name not in self._datasets:
            raise ExecutionError(f"dataset {name!r} does not exist in the filesystem")
        dataset = self._datasets[name]
        self.total_bytes_read += dataset.stored_bytes
        return dataset

    def exists(self, name: str) -> bool:
        """Whether a dataset with this name is stored."""
        return name in self._datasets

    def delete(self, name: str) -> None:
        """Remove a dataset if present."""
        self._datasets.pop(name, None)

    def names(self) -> List[str]:
        """All stored dataset names, sorted."""
        return sorted(self._datasets)

    def peek(self, name: str) -> Optional[Dataset]:
        """Like :meth:`get` but returns ``None`` instead of raising and does
        not count the access towards read statistics."""
        return self._datasets.get(name)
