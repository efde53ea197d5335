"""Ring all-reduce communication cost model.

Data-parallel training synchronises gradients with all-reduce (§6.1: "we use
the all-reduce parameter synchronization scheme").  The standard ring
all-reduce moves ``2 (n-1)/n`` times the gradient volume over the slowest
link of the ring, plus a per-message latency term.  Egeria reduces the
synchronized volume by excluding frozen layers' gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .cluster import Cluster, GPUDevice

__all__ = ["AllReduceModel"]


@dataclass
class AllReduceModel:
    """Time model for ring all-reduce over a set of workers.

    Parameters
    ----------
    cluster:
        Cluster topology providing the bottleneck bandwidth.
    latency_seconds:
        Fixed per-all-reduce latency (launch + ring setup).
    intra_node_gbps:
        Effective bandwidth when every worker sits on one machine (NVLink /
        PCIe class, far above the NIC).
    """

    cluster: Cluster
    latency_seconds: float = 50e-6
    intra_node_gbps: float = 128.0

    def effective_bandwidth_gbps(self, workers: List[GPUDevice]) -> float:
        """Bandwidth of the slowest ring link for these workers."""
        if len(workers) <= 1:
            return float("inf")
        if self.cluster.is_single_machine(workers):
            return self.intra_node_gbps
        return self.cluster.worker_bottleneck_gbps(workers)

    def allreduce_seconds(self, gradient_bytes: int, workers: List[GPUDevice]) -> float:
        """Time to all-reduce ``gradient_bytes`` across the workers."""
        n = len(workers)
        if n <= 1 or gradient_bytes <= 0:
            return 0.0
        bandwidth_gbps = self.effective_bandwidth_gbps(workers)
        if bandwidth_gbps == float("inf"):
            return self.latency_seconds
        bytes_on_wire = 2.0 * (n - 1) / n * gradient_bytes
        seconds_per_byte = 8.0 / (bandwidth_gbps * 1e9)
        return self.latency_seconds + bytes_on_wire * seconds_per_byte

    def seconds_per_byte(self, workers: List[GPUDevice]) -> float:
        """Marginal all-reduce cost per gradient byte (no latency term).

        Handy for the :class:`~repro.sim.cost_model.CostModel`, which wants a
        linear per-byte coefficient.
        """
        n = len(workers)
        if n <= 1:
            return 0.0
        bandwidth_gbps = self.effective_bandwidth_gbps(workers)
        if bandwidth_gbps == float("inf"):
            return 0.0
        return 2.0 * (n - 1) / n * 8.0 / (bandwidth_gbps * 1e9)
