"""The job description the scheduler runs and the records it returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple, Union

from ..cost_model import CostModel
from ..engine import SchedulePolicy


class RunSeries(Protocol):
    """All a job record reads of a trainer-backed job's training history."""

    def losses(self) -> List[float]:
        """Per-iteration training loss."""

    def frozen_fractions(self) -> List[float]:
        """Per-iteration fraction of parameters frozen."""


@dataclass
class SimJob:
    """One training job submitted to the cluster.

    ``frozen_prefix`` may be an int (constant) or a callable mapping the
    iteration index to a prefix length, so an Egeria job's progressive
    freezing schedule can be replayed inside the simulation.

    ``checkpoint_every`` enables fault tolerance: every that many completed
    iterations the job writes a freezing-aware incremental checkpoint (the
    active suffix only) onto the shared ``storage`` resource.  After a
    failure or preemption the job restarts from its last checkpoint — paying
    a full-state restore read — instead of from scratch.

    ``storage``/``link`` name the shared resources the job's checkpoint and
    all-reduce traffic queue on; ``None`` selects the cluster defaults
    (:data:`Cluster.CKPT_STORAGE`, and — for jobs that span machines — the
    per-ToR links the placement crosses when the cluster declares them, or
    the flat :data:`Cluster.FABRIC` otherwise).  ``async_checkpoint=True`` overlaps checkpoint writes
    with subsequent compute: the iteration finishes immediately and the
    snapshot drains on the storage resource in the background, becoming a
    valid rollback target only once the write completes.

    ``weight`` is the job's fair-share weight on processor-sharing resources
    (``policy="fair"``): capacity splits proportionally to weight among the
    transfers active at each instant, so a weight-2 job's buckets drain
    twice as fast as a weight-1 competitor's.  The default 1.0 keeps the
    even split; FIFO resources ignore weights entirely.

    The ``begin_iteration``/``iteration_profile``/``checkpoint_write_bytes``
    /``restore_read_bytes``/``rollback`` hooks are the scheduler's interface
    to the job; :class:`~repro.core.trainer_job.TrainerJob` overrides them to
    run a *real* trainer (live freezing decisions, content-addressed
    checkpoint bytes) inside the simulated cluster.
    """

    name: str
    cost_model: CostModel
    num_workers: int = 1
    iterations: int = 1
    policy: str = SchedulePolicy.VANILLA
    frozen_prefix: Union[int, Callable[[int], int]] = 0
    cached_fp: bool = False
    include_reference_overhead: bool = False
    arrival_time: float = 0.0
    checkpoint_every: Optional[int] = None
    storage: Optional[str] = None
    link: Optional[str] = None
    async_checkpoint: bool = False
    weight: float = 1.0

    def __post_init__(self) -> None:
        """Validate the checkpoint cadence and fair-share weight eagerly."""
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (or None to disable)")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def prefix_at(self, iteration: int) -> int:
        """Frozen-prefix length in force during ``iteration``."""
        if callable(self.frozen_prefix):
            return int(self.frozen_prefix(iteration))
        return int(self.frozen_prefix)

    # ------------------------------------------------------------------ #
    # Scheduler hooks (overridden by TrainerJob to run a real trainer)
    # ------------------------------------------------------------------ #
    def begin_iteration(self, iteration: int, sim_time: float = 0.0) -> None:
        """Called once right before iteration ``iteration`` is simulated.

        ``sim_time`` is the simulated clock at the call — trainer-backed
        jobs stamp it into their per-iteration history so loss curves can be
        plotted against cluster time.
        """

    def run_history(self) -> Optional[RunSeries]:
        """Per-iteration training history to expose on the job's record.

        The base (cost-model-only) job has no real training signal and
        returns ``None``; :class:`~repro.core.trainer_job.TrainerJob` returns
        its live run history (loss and frozen-fraction series).  The
        scheduler attaches the returned object to :attr:`JobRecord.history`
        at submit time.
        """
        return None

    def iteration_profile(self, iteration: int) -> Tuple[int, bool, bool]:
        """``(frozen_prefix, cached_fp, include_reference_overhead)`` for pricing."""
        return (self.prefix_at(iteration), self.cached_fp, self.include_reference_overhead)

    def checkpoint_write_bytes(self, iteration: int, frozen_prefix: int) -> int:
        """Bytes the checkpoint completing iteration ``iteration`` writes."""
        return self.cost_model.checkpoint_bytes(frozen_prefix=frozen_prefix, incremental=True)

    def restore_read_bytes(self, iteration: int, frozen_prefix: int) -> int:
        """Bytes a restore back to iteration ``iteration`` reads."""
        return self.cost_model.checkpoint_bytes(frozen_prefix=frozen_prefix, incremental=False)

    def rollback(self, to_iteration: int) -> None:
        """Called when the scheduler rolls the job back to ``to_iteration``."""

    def steady_profile(self) -> bool:
        """Whether per-iteration hooks are pure, making the job batchable.

        Cost-model-only jobs price every iteration from immutable state —
        ``begin_iteration`` is a no-op and ``iteration_profile`` is a pure
        function of the iteration index — so the scheduler may plan several
        iterations ahead (batched fast-forward).  Jobs that run a *real*
        trainer override this to ``False``: their freezing decisions emerge
        one iteration at a time and must never be precomputed.
        """
        return True


@dataclass
class JobRecord:
    """Lifecycle and per-iteration timing of one job.

    ``placed_seconds`` accumulates only the intervals the job actually held
    GPUs, so :meth:`throughput` excludes queueing, preempted and
    failed-and-requeued intervals.
    """

    name: str
    arrival_time: float
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    iterations_done: int = 0
    worker_names: List[str] = field(default_factory=list)
    iteration_seconds: List[float] = field(default_factory=list)
    samples_processed: float = 0.0
    placed_seconds: float = 0.0
    placed_since: Optional[float] = None
    checkpoint_iteration: int = 0
    #: ``samples_processed`` watermark at the last checkpoint, so a rollback
    #: restores the exact credit even if the worker count changed since.
    samples_at_checkpoint: float = 0.0
    checkpoints_taken: int = 0
    checkpoint_seconds: float = 0.0
    checkpoint_bytes_written: int = 0
    restores: int = 0
    restore_seconds: float = 0.0
    restore_bytes_read: int = 0
    preemptions: int = 0
    failures: int = 0
    #: Spot-capacity evictions (counted separately from hard ``failures`` so
    #: reliability dashboards can tell voluntary reclaims from crashes).
    evictions: int = 0
    #: Live per-iteration training history (loss, frozen fraction) for
    #: trainer-backed jobs; ``None`` for cost-model-only jobs, which keeps
    #: their serialized records byte-identical to earlier revisions.
    history: Optional[RunSeries] = None

    @property
    def queueing_delay(self) -> Optional[float]:
        """Seconds between arrival and first placement (None if never placed)."""
        return None if self.start_time is None else self.start_time - self.arrival_time

    @property
    def completion_seconds(self) -> Optional[float]:
        """End-to-end latency from arrival to finish (None while running)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    def throughput(self) -> float:
        """Mean samples/second over the intervals the job was placed on GPUs."""
        if self.placed_seconds <= 0.0:
            return 0.0
        return self.samples_processed / self.placed_seconds

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data view of the record."""
        view: Dict[str, object] = {
            "name": self.name,
            "arrival_time": self.arrival_time,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "iterations_done": self.iterations_done,
            "worker_names": list(self.worker_names),
            "queueing_delay": self.queueing_delay,
            "completion_seconds": self.completion_seconds,
            "samples_processed": self.samples_processed,
            "throughput": self.throughput(),
            "mean_iteration_seconds": (sum(self.iteration_seconds) / len(self.iteration_seconds)
                                       if self.iteration_seconds else 0.0),
            "placed_seconds": self.placed_seconds,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_seconds": self.checkpoint_seconds,
            "checkpoint_bytes_written": self.checkpoint_bytes_written,
            "restores": self.restores,
            "restore_seconds": self.restore_seconds,
            "restore_bytes_read": self.restore_bytes_read,
            "preemptions": self.preemptions,
            "failures": self.failures,
            "evictions": self.evictions,
        }
        if self.history is not None:
            view["loss_series"] = self.history.losses()
            view["frozen_fraction_series"] = self.history.frozen_fractions()
        return view


@dataclass
class SchedulerResult:
    """Outcome of a :meth:`ClusterScheduler.run`.

    ``resources`` summarizes every shared resource's occupancy: busy seconds,
    total bytes and the per-job / per-kind byte split — the audit trail the
    conservation property tests check against the job records.

    ``perf`` carries the engine's lightweight perf counters
    (``events_processed``, ``iterations_simulated``,
    ``iterations_fast_forwarded``, ``cache_hit_rate``) — how much of the run
    the steady-state fast-forward cache served without touching the event
    loop.
    """

    makespan: float
    jobs: Dict[str, JobRecord]
    gpu_busy_seconds: Dict[str, float]
    trace: List[Dict[str, object]]
    resources: Dict[str, Dict[str, object]] = field(default_factory=dict)
    perf: Dict[str, object] = field(default_factory=dict)

    def utilization(self) -> Dict[str, float]:
        """Per-GPU busy fraction of the makespan."""
        if self.makespan <= 0:
            return {name: 0.0 for name in self.gpu_busy_seconds}
        return {name: busy / self.makespan for name, busy in self.gpu_busy_seconds.items()}

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data view (what the benchmarks compare across runs)."""
        return {
            "makespan": self.makespan,
            "jobs": {name: record.as_dict() for name, record in sorted(self.jobs.items())},
            "utilization": dict(sorted(self.utilization().items())),
            "resources": {name: dict(summary) for name, summary in sorted(self.resources.items())},
            "perf": dict(self.perf),
        }