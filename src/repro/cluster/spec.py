"""Cluster specification.

The paper's evaluation (§7) uses a Hadoop cluster of 51 Amazon EC2 m1.large
nodes, each with 7.5 GB memory, 2 virtual cores, 850 GB of local storage, and
configured for 3 concurrent map tasks and 2 concurrent reduce tasks.  The
cluster can therefore run 150 concurrent map tasks and 100 concurrent reduce
tasks ("waves").  :meth:`ClusterSpec.paper_cluster` reproduces that setup.

The spec also carries the raw device speeds the What-if cost model needs:
local-disk read/write bandwidth, network bandwidth, and a CPU speed factor
that scales the per-record CPU costs recorded in profile annotations.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from functools import cached_property
from typing import Tuple

MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class NodeSpec:
    """Resources of a single worker node."""

    memory_mb: int = 7_680
    cores: int = 2
    map_slots: int = 3
    reduce_slots: int = 2
    disk_read_mb_per_s: float = 90.0
    disk_write_mb_per_s: float = 70.0
    task_slot_memory_mb: int = 1_024

    def validate(self) -> None:
        """Raise ``ValueError`` when the node configuration is not sensible."""
        if self.map_slots <= 0 or self.reduce_slots <= 0:
            raise ValueError("a node needs at least one map and one reduce slot")
        if self.memory_mb <= 0 or self.cores <= 0:
            raise ValueError("memory and cores must be positive")
        if self.disk_read_mb_per_s <= 0 or self.disk_write_mb_per_s <= 0:
            raise ValueError("disk bandwidths must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of :class:`NodeSpec` workers.

    Attributes
    ----------
    num_nodes:
        Worker node count (the paper uses 51, of which 50 run tasks; we keep
        the full count and treat every node as a worker for simplicity).
    node:
        Per-node resources.
    network_mb_per_s:
        Effective point-to-point shuffle bandwidth per node.
    cpu_speed_factor:
        Multiplier applied to profiled per-record CPU costs; 1.0 means the
        cluster runs CPU work at the same speed as the profiling run.
    task_startup_s:
        Fixed scheduling/JVM-start overhead charged per task, which is what
        makes eliminating whole jobs (vertical packing) and map waves
        worthwhile even for small inputs.
    job_startup_s:
        Fixed per-job submission/setup/cleanup overhead.
    """

    num_nodes: int = 51
    node: NodeSpec = field(default_factory=NodeSpec)
    network_mb_per_s: float = 60.0
    cpu_speed_factor: float = 1.0
    task_startup_s: float = 2.0
    job_startup_s: float = 8.0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("cluster must have at least one node")
        self.node.validate()
        if self.network_mb_per_s <= 0:
            raise ValueError("network bandwidth must be positive")
        if self.cpu_speed_factor <= 0:
            raise ValueError("cpu_speed_factor must be positive")

    @property
    def total_map_slots(self) -> int:
        """Cluster-wide concurrent map task capacity (one map wave)."""
        return self.num_nodes * self.node.map_slots

    @property
    def total_reduce_slots(self) -> int:
        """Cluster-wide concurrent reduce task capacity (one reduce wave)."""
        return self.num_nodes * self.node.reduce_slots

    @cached_property
    def job_model_constants(self) -> Tuple[float, float, float, int, int, int]:
        """What the job model derives from the spec, once per spec: disk read,
        disk write and network bytes/s, total map and reduce slots, and the
        cap on parallel shuffle streams (``min(total reduce slots, nodes)``)."""
        node = self.node
        reduce_slots = self.total_reduce_slots
        return (
            node.disk_read_mb_per_s * MB,
            node.disk_write_mb_per_s * MB,
            self.network_mb_per_s * MB,
            self.total_map_slots,
            reduce_slots,
            min(reduce_slots, self.num_nodes),
        )

    @cached_property
    def cache_key(self) -> Tuple:
        """The nested field tuple (``dataclasses.astuple``), once per spec:
        what a store keys the cluster it was computed for on."""
        return astuple(self)

    @classmethod
    def paper_cluster(cls) -> "ClusterSpec":
        """The 51-node EC2 m1.large cluster from the paper's §7."""
        return cls(num_nodes=51, node=NodeSpec())
