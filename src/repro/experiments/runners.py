"""Runners: train a workload under Egeria or any baseline and compare TTA.

These helpers are the glue between :mod:`repro.experiments.workloads` and the
trainers.  A single :func:`run_trainer` call trains one system on one workload
and returns its :class:`~repro.metrics.RunHistory`; :func:`compare_systems`
runs several systems on the same workload and produces the accuracy/TTA rows
that Table 1 and Figure 8 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines import (
    FreezeOutTrainer,
    GradientFreezeTrainer,
    SkipConvTrainer,
    StaticFreezeTrainer,
    VanillaTrainer,
)
from ..core.config import EgeriaConfig
from ..core.trainer import BaseTrainer, EgeriaTrainer
from ..metrics.tracking import RunHistory, tta_speedup
from .workloads import Workload

__all__ = ["SYSTEMS", "build_trainer", "run_trainer", "compare_systems", "ComparisonRow"]

#: Names of the systems the evaluation section compares.
SYSTEMS = ("vanilla", "egeria", "autofreeze", "skipconv", "static_freeze", "freezeout")


def build_trainer(system: str, workload: Workload, config: Optional[EgeriaConfig] = None,
                  **overrides) -> BaseTrainer:
    model = workload.make_model()
    optimizer = workload.make_optimizer(model)
    scheduler = workload.make_scheduler(optimizer)
    train_loader = workload.train_loader()
    eval_loader = workload.eval_loader()
    common = dict(task=workload.task, train_loader=train_loader, eval_loader=eval_loader,
                  optimizer=optimizer, scheduler=scheduler)
    egeria_config = config or workload.egeria_config

    if system == "vanilla":
        return VanillaTrainer(model, **common)
    if system in ("egeria", "skipconv"):
        # No cache_dir override: the activation cache then owns (and removes) its directory.
        cfg = EgeriaConfig(**{**egeria_config.__dict__, **overrides})
        trainer_cls = EgeriaTrainer if system == "egeria" else SkipConvTrainer
        return trainer_cls(model, workload.model_factory, config=cfg, **common)
    if system == "autofreeze":
        # Tuned to reach a similar speedup to Egeria (the paper's protocol):
        # freeze eagerly on the gradient-norm signal.
        return GradientFreezeTrainer(
            model,
            eval_interval_iters=overrides.pop("eval_interval_iters", egeria_config.eval_interval_iters),
            norm_share_threshold=overrides.pop("norm_share_threshold", 0.2),
            patience=overrides.pop("patience", 2),
            **common,
        )
    if system == "static_freeze":
        schedule = overrides.pop("freeze_schedule", None)
        if schedule is None:
            freeze_epoch = max(workload.num_epochs // 5, 1)
            schedule = {freeze_epoch: overrides.pop("freeze_modules", 2)}
        return StaticFreezeTrainer(model, freeze_schedule=schedule, **common)
    if system == "freezeout":
        return FreezeOutTrainer(model, total_epochs=workload.num_epochs,
                                t0=overrides.pop("t0", 0.25), **common)
    raise KeyError(f"unknown system {system!r}; known: {SYSTEMS}")


def run_trainer(system: str, workload: Workload, num_epochs: Optional[int] = None,
                config: Optional[EgeriaConfig] = None, **overrides) -> Dict[str, object]:
    """Train one system on one workload; returns history, trainer summary, etc.

    Simulated time is the single-GPU compute timeline, replayed event by
    event; a multi-worker run goes through a
    :class:`~repro.core.trainer_job.TrainerJob` on a cluster scheduler.
    """
    trainer = build_trainer(system, workload, config, **overrides)
    history = trainer.fit(num_epochs or workload.num_epochs)
    result: Dict[str, object] = {
        "system": system,
        "workload": workload.name,
        "history": history,
        "final_metric": history.final_metric(),
        "best_metric": history.best_metric(),
        "simulated_time": history.total_simulated_time(),
        "wall_time": history.total_wall_time(),
        "frozen_fraction": trainer.frozen_fraction(),
    }
    if isinstance(trainer, EgeriaTrainer):
        result["summary"] = trainer.summary()
        result["timeline"] = trainer.freezing_timeline()
        trainer.close()
    return result


@dataclass
class ComparisonRow:
    """One Table 1 / Figure 8 style row: a system's accuracy and TTA speedup."""

    workload: str
    system: str
    final_metric: float
    best_metric: float
    target_metric: float
    reached_target: bool
    tta_speedup_vs_vanilla: Optional[float]
    simulated_time: float
    accuracy_gap_vs_vanilla: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "system": self.system,
            "final_metric": self.final_metric,
            "best_metric": self.best_metric,
            "target_metric": self.target_metric,
            "reached_target": self.reached_target,
            "tta_speedup_vs_vanilla": self.tta_speedup_vs_vanilla,
            "simulated_time": self.simulated_time,
            "accuracy_gap_vs_vanilla": self.accuracy_gap_vs_vanilla,
        }


def compare_systems(workload: Workload, systems: Sequence[str] = ("vanilla", "egeria"),
                    num_epochs: Optional[int] = None, target_slack: float = 0.98,
                    **overrides) -> List[ComparisonRow]:
    """Run several systems on one workload and compute per-system TTA speedups.

    The accuracy target follows the paper's protocol: the converged accuracy
    of the vanilla baseline (here scaled by ``target_slack`` to absorb the
    evaluation noise of the very small synthetic validation sets).
    """
    results = {system: run_trainer(system, workload, num_epochs=num_epochs, **overrides)
               for system in systems}
    vanilla_history: RunHistory = results["vanilla"]["history"]
    vanilla_final = vanilla_history.final_metric()
    if workload.task.higher_is_better:
        target = vanilla_final * target_slack
    else:
        target = vanilla_final / target_slack

    rows: List[ComparisonRow] = []
    for system, result in results.items():
        history: RunHistory = result["history"]
        speedup = tta_speedup(vanilla_history, history, target) if system != "vanilla" else 0.0
        reached = history.time_to_accuracy(target) is not None
        if workload.task.higher_is_better:
            gap = history.final_metric() - vanilla_final
        else:
            gap = vanilla_final - history.final_metric()
        rows.append(ComparisonRow(
            workload=workload.name,
            system=system,
            final_metric=history.final_metric(),
            best_metric=history.best_metric(),
            target_metric=target,
            reached_target=reached,
            tta_speedup_vs_vanilla=speedup,
            simulated_time=history.total_simulated_time(),
            accuracy_gap_vs_vanilla=gap,
        ))
    return rows


def format_rows(rows: Sequence[ComparisonRow]) -> str:
    """Plain-text table of comparison rows (printed by the benches)."""
    header = f"{'workload':<24} {'system':<14} {'final':>8} {'target':>8} {'hit':>4} {'speedup':>8} {'gap':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = "n/a" if row.tta_speedup_vs_vanilla is None else f"{row.tta_speedup_vs_vanilla:+.1%}"
        lines.append(
            f"{row.workload:<24} {row.system:<14} {row.final_metric:>8.3f} {row.target_metric:>8.3f} "
            f"{'yes' if row.reached_target else 'no':>4} {speedup:>8} {row.accuracy_gap_vs_vanilla:>+8.3f}"
        )
    return "\n".join(lines)
