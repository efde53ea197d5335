"""Run-history recording and time-to-accuracy (TTA) computation.

The paper's headline metric is TTA — "the time taken to a converged validation
accuracy" (§6.1).  :class:`RunHistory` records per-epoch snapshots (loss,
metric, simulated time, wall time, frozen fraction) during a training run and
computes TTA/speedup against a target accuracy, plus the per-epoch series the
figure benches print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["EpochRecord", "RunHistory", "tta_speedup"]


@dataclass
class EpochRecord:
    """One epoch's summary statistics."""

    epoch: int
    train_loss: float
    metric: float
    simulated_time: float
    wall_time: float
    learning_rate: float
    frozen_fraction: float = 0.0
    cached_fp: bool = False

    def as_dict(self) -> Dict[str, float]:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "metric": self.metric,
            "simulated_time": self.simulated_time,
            "wall_time": self.wall_time,
            "learning_rate": self.learning_rate,
            "frozen_fraction": self.frozen_fraction,
            "cached_fp": float(self.cached_fp),
        }


@dataclass
class RunHistory:
    """Accumulated epoch records for one training run."""

    name: str = "run"
    metric_name: str = "metric"
    higher_is_better: bool = True
    records: List[EpochRecord] = field(default_factory=list)

    def add(self, record: EpochRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------ #
    # Series accessors
    # ------------------------------------------------------------------ #
    def metrics(self) -> List[float]:
        return [r.metric for r in self.records]

    def losses(self) -> List[float]:
        return [r.train_loss for r in self.records]

    def frozen_fractions(self) -> List[float]:
        return [r.frozen_fraction for r in self.records]

    def final_metric(self) -> float:
        return self.records[-1].metric if self.records else float("nan")

    def best_metric(self) -> float:
        if not self.records:
            return float("nan")
        values = self.metrics()
        return max(values) if self.higher_is_better else min(values)

    def total_simulated_time(self) -> float:
        return self.records[-1].simulated_time if self.records else 0.0

    def total_wall_time(self) -> float:
        return self.records[-1].wall_time if self.records else 0.0

    # ------------------------------------------------------------------ #
    # Time to accuracy
    # ------------------------------------------------------------------ #
    def _reaches(self, metric: float, target: float) -> bool:
        return metric >= target if self.higher_is_better else metric <= target

    def time_to_accuracy(self, target: float, use_wall_time: bool = False) -> Optional[float]:
        """Simulated (or wall) time at which the metric first reaches the target.

        Returns ``None`` when the run never reaches it.
        """
        for record in self.records:
            if self._reaches(record.metric, target):
                return record.wall_time if use_wall_time else record.simulated_time
        return None

    def epochs_to_accuracy(self, target: float) -> Optional[int]:
        for record in self.records:
            if self._reaches(record.metric, target):
                return record.epoch
        return None

    def as_table(self) -> List[Dict[str, float]]:
        """All records as dictionaries (handy for printing benchmark rows)."""
        return [r.as_dict() for r in self.records]


def tta_speedup(baseline: RunHistory, accelerated: RunHistory, target: float,
                use_wall_time: bool = False) -> Optional[float]:
    """Relative TTA speedup of ``accelerated`` over ``baseline``.

    Returns ``(T_baseline - T_accelerated) / T_baseline`` — e.g. 0.28 for the
    paper's "28% speedup" — or ``None`` when either run misses the target.
    """
    baseline_time = baseline.time_to_accuracy(target, use_wall_time)
    accelerated_time = accelerated.time_to_accuracy(target, use_wall_time)
    if baseline_time is None or accelerated_time is None or baseline_time <= 0:
        return None
    return (baseline_time - accelerated_time) / baseline_time
