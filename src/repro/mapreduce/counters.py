"""Execution counters collected by the local MapReduce engine.

Counters mirror the dataflow statistics Hadoop exposes and Starfish profiles:
records and bytes entering/leaving the map phase, spilled to local disk,
shuffled across the network, entering/leaving the reduce phase, plus
per-operator record counts used to derive selectivities for profile
annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class OperatorCounters:
    """Record counts observed for one operator (function) during execution."""

    records_in: int = 0
    records_out: int = 0

    @property
    def selectivity(self) -> float:
        """Output records per input record (1.0 when nothing was observed)."""
        if self.records_in <= 0:
            return 1.0
        return self.records_out / self.records_in


@dataclass
class ExecutionCounters:
    """Aggregate dataflow statistics of one job execution.

    Every byte field counts raw (serialized, uncompressed) bytes, whatever the
    job's compression flags: only the job model prices compression.
    """

    map_input_records: int = 0
    #: Raw bytes of the partitions the map tasks read.
    map_input_bytes: float = 0.0
    map_output_records: int = 0
    #: Raw bytes of the map output pairs, before any combiner.
    map_output_bytes: float = 0.0
    combine_input_records: int = 0
    combine_output_records: int = 0
    spilled_records: int = 0
    #: Raw bytes of the pairs spilled, after any combiner.
    spilled_bytes: float = 0.0
    #: Raw bytes of the pairs shuffled (equal to ``spilled_bytes``).
    shuffle_bytes: float = 0.0
    reduce_input_groups: int = 0
    reduce_input_records: int = 0
    reduce_output_records: int = 0
    #: Raw bytes of the records the reduce side wrote.
    reduce_output_bytes: float = 0.0
    output_records: int = 0
    #: Raw bytes of every output dataset written (their ``raw_bytes``).
    output_bytes: float = 0.0
    num_map_tasks: int = 0
    num_reduce_tasks: int = 0
    operators: Dict[str, OperatorCounters] = field(default_factory=dict)
    #: distinct shuffle-key counts per field tuple, e.g. {("O","Z"): 812}
    key_cardinalities: Dict[tuple, int] = field(default_factory=dict)

    def operator(self, name: str) -> OperatorCounters:
        """The (auto-created) counters for a named operator."""
        if name not in self.operators:
            self.operators[name] = OperatorCounters()
        return self.operators[name]

    @property
    def map_selectivity(self) -> float:
        """Map output records per map input record."""
        if self.map_input_records <= 0:
            return 1.0
        return self.map_output_records / self.map_input_records

    @property
    def reduce_selectivity(self) -> float:
        """Reduce output records per reduce input record."""
        if self.reduce_input_records <= 0:
            return 1.0
        return self.reduce_output_records / self.reduce_input_records

    @property
    def bytes_per_map_output_record(self) -> float:
        """Average serialized size of a map output record."""
        if self.map_output_records <= 0:
            return 0.0
        return self.map_output_bytes / self.map_output_records

    @property
    def bytes_per_output_record(self) -> float:
        """Average serialized size of a final output record."""
        if self.output_records <= 0:
            return 0.0
        return self.output_bytes / self.output_records
