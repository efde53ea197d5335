"""ByteScheduler baseline: priority-based communication scheduling.

ByteScheduler (SOSP'19) is the paper's distributed-training baseline
(Figure 10): it partitions gradient tensors and schedules their transmission
by priority (front layers first) so that communication overlaps not only with
the backward pass but also with the *next iteration's forward pass* —
"theoretically optimal scheduling without skipping any parameter and full
accuracy" (§6.1).

The class below compares, for a given cluster size:

* vanilla all-reduce,
* ByteScheduler,
* Egeria (frozen layers excluded from synchronization),
* Egeria + ByteScheduler,

reproducing the bar groups of Figure 10.  It also reproduces the caveat the
paper mentions: when communication is not the bottleneck, ByteScheduler's
gain is limited and a slight throughput drop (its default-configuration
overhead) is normal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.modules import LayerModule
from ..sim.cluster import Cluster, GPUDevice, paper_testbed_cluster
from ..sim.cost_model import CostModel
from ..sim.engine import EventDrivenEngine, SchedulePolicy

__all__ = ["DistributedThroughputComparison"]


class DistributedThroughputComparison:
    """Builds the Figure 10 comparison for one model and one cluster size.

    The discrete-event engine replays several iterations per policy and
    reports the steady-state spacing, so bucket serialization, the
    slowest-worker barrier and ByteScheduler's overlap with the next forward
    pass all emerge from actual events.  ``scheduling_overhead_fraction``
    models the credit/partition bookkeeping cost that makes ByteScheduler
    slightly slower than the baseline when the network is not the bottleneck
    (§6.3, footnote about issue reports).
    """

    def __init__(self, layer_modules: Sequence[LayerModule], batch_size: int = 32,
                 cluster: Optional[Cluster] = None, scheduling_overhead_fraction: float = 0.01,
                 engine: Optional[EventDrivenEngine] = None):
        self.layer_modules = list(layer_modules)
        self.batch_size = batch_size
        self.cluster = cluster or paper_testbed_cluster()
        self.scheduling_overhead_fraction = scheduling_overhead_fraction
        self.engine = engine or EventDrivenEngine(self.cluster)

    def _policy_seconds(self, policy: str, workers: List[GPUDevice], frozen_prefix: int,
                        cached_fp: bool) -> float:
        """Steady-state iteration seconds for one policy."""
        uses_freezing = policy in (SchedulePolicy.EGERIA, SchedulePolicy.EGERIA_BYTESCHEDULER)
        prefix = frozen_prefix if uses_freezing else 0
        cached = cached_fp if uses_freezing else False
        cost_model = CostModel(self.layer_modules, batch_size=self.batch_size)
        return self.engine.steady_iteration_seconds(cost_model, workers=workers, frozen_prefix=prefix,
                                                    cached_fp=cached, policy=policy)

    def throughputs(self, num_machines: int, gpus_per_machine: int = 2, frozen_prefix: int = 0,
                    cached_fp: bool = True) -> Dict[str, float]:
        """Samples/second for the four policies at the given cluster size."""
        workers = self.cluster.workers(num_machines=num_machines, gpus_per_machine=gpus_per_machine)
        samples_per_iteration = self.batch_size * len(workers)
        overhead = 1.0 + self.scheduling_overhead_fraction

        results: Dict[str, float] = {}
        for policy in SchedulePolicy.ALL:
            seconds = self._policy_seconds(policy, workers, frozen_prefix, cached_fp)
            if policy in (SchedulePolicy.BYTESCHEDULER, SchedulePolicy.EGERIA_BYTESCHEDULER):
                seconds *= overhead
            results[policy] = samples_per_iteration / seconds if seconds > 0 else 0.0
        return results

    def scaling_sweep(self, machine_counts: Sequence[int], gpus_per_machine: int = 2,
                      frozen_prefix: int = 0, cached_fp: bool = True) -> List[Dict[str, float]]:
        """Throughput rows for each cluster size (the Figure 10 x-axis)."""
        rows = []
        for num_machines in machine_counts:
            row: Dict[str, float] = {"num_machines": float(num_machines)}
            row.update(self.throughputs(num_machines, gpus_per_machine, frozen_prefix, cached_fp))
            rows.append(row)
        return rows
