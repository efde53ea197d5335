"""Placement: strict-FIFO admission onto the GPUs the ``placement`` policy's
``_PLACERS`` row orders first, and taking a job off its GPUs again."""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster import GPUDevice
from .jobs import SimJob


class _Placement:
    """Placement for :class:`~.loop.ClusterScheduler` (a mixin: the state it
    reads is declared in ``ClusterScheduler.__init__``)."""

    PLACEMENTS = ("fifo", "round_robin", "tor_pack")

    def _pick_gpus(self, count: int) -> Optional[List[GPUDevice]]:
        """Choose ``count`` free GPUs under the configured placement, or None: the
        first ``count`` of the free GPUs (machine order) as the policy's row orders them."""
        if count > len(self._free):
            return None
        free = [gpu for gpu in self._all_gpus if gpu.name in self._free]
        return self._PLACERS[self.placement](self, free, count)[:count]

    def _fifo_order(self, free: List[GPUDevice], count: int) -> List[GPUDevice]:
        """``fifo``: the first free GPUs in machine order (locality)."""
        return free

    def _round_robin_order(self, free: List[GPUDevice], count: int) -> List[GPUDevice]:
        """``round_robin``: one free GPU per machine, cycling over machines."""
        by_machine: Dict[str, List[GPUDevice]] = {}
        for gpu in free:
            by_machine.setdefault(gpu.machine, []).append(gpu)
        pools = [by_machine[m.name] for m in self.cluster.machines if m.name in by_machine]
        return [gpu for column in zip_longest(*pools) for gpu in column if gpu is not None]

    def _tor_pack_order(self, free: List[GPUDevice], count: int) -> List[GPUDevice]:
        """``tor_pack``: rack-aware packing, fewest ToRs, preferring the tightest fit.

        If one rack can host the whole job, the rack with the *fewest* free
        GPUs that still fits is chosen (best fit, minimizing fragmentation);
        otherwise racks are filled in descending free-GPU order so the job
        spans as few ToRs as possible.  Ties break on the lower ToR index;
        within a rack, GPUs come in machine order — all deterministic.
        """
        by_tor: Dict[int, List[GPUDevice]] = {}
        for gpu in free:
            by_tor.setdefault(self.cluster.tor_index(gpu.machine), []).append(gpu)
        fitting = sorted((len(gpus), tor) for tor, gpus in by_tor.items() if len(gpus) >= count)
        racks = fitting[:1] or sorted((-len(gpus), tor) for tor, gpus in by_tor.items())
        return [gpu for _free_count, tor in racks for gpu in by_tor[tor]]

    #: The placement table: one row per ``placement`` (plain functions, as in ``_KINDS``).
    _PLACERS: Dict[str, Callable[..., List[GPUDevice]]] = {
        "fifo": _fifo_order,
        "round_robin": _round_robin_order,
        "tor_pack": _tor_pack_order,
    }

    def _claim(self, job_name: str, gpus: Sequence[GPUDevice]) -> None:
        """Move ``gpus`` from the free pool onto ``job_name``'s allocation."""
        for gpu in gpus:
            del self._free[gpu.name]
        self._allocations.setdefault(job_name, []).extend(gpus)

    def _try_place(self, now: float) -> None:
        """Strict-FIFO admission: place queued jobs head-first while GPUs last."""
        while self._pending:
            job = self._jobs[self._pending[0]]
            gpus = self._pick_gpus(job.num_workers)
            if gpus is None:
                return
            self._pending.pop(0)
            self._claim(job.name, gpus)
            self._route(job, gpus)
            record = self.records[job.name]
            if record.start_time is None:
                record.start_time = now
            record.placed_since = now
            record.worker_names = [gpu.name for gpu in gpus]
            self._trace(now, "job_start", job=job.name, workers=record.worker_names)
            delay = 0.0
            if job.name in self._needs_restore:
                self._needs_restore.pop(job.name, None)
                restore_bytes, delay = self._read_snapshot(job, now, gpus)
                self._trace(now, "restore", job=job.name, seconds=delay,
                            num_bytes=restore_bytes, from_iteration=record.iterations_done)
            self._schedule_iteration(job, now + delay)

    def _release(self, job_name: str, gpus: Sequence[GPUDevice], now: float) -> None:
        for gpu in gpus:
            if gpu.name not in self._failed_gpus:
                self._free[gpu.name] = gpu
        self._trace(now, "gpus_released", job=job_name, workers=[g.name for g in gpus])

    def _vacate(self, job: SimJob, now: float) -> None:
        """Take ``job`` off its GPUs (finished or descheduled): un-route it,
        free the GPUs and close the placed interval."""
        record = self.records[job.name]
        self._route(job)
        self._release(job.name, self._allocations.pop(job.name), now)
        if record.placed_since is not None:
            record.placed_seconds += now - record.placed_since
            record.placed_since = None

    def _deschedule(self, job_name: str, now: float) -> None:
        """Take a running job off its GPUs: release them, invalidate the
        in-flight iteration and roll progress back to the last checkpoint."""
        job = self._jobs[job_name]
        record = self.records[job_name]
        self._vacate(job, now)
        self._placement_epoch[job_name] += 1
        # The invalidated iteration's transfers that have not started yet are
        # cancelled off every shared resource (the bytes never hit the wire).
        self.engine.resources.cancel_job(job_name, now)
        # The rollback target is whatever snapshot last committed — periodic
        # cadence or a proactive spot-notice write; jobs with neither keep
        # checkpoint_iteration at 0 and restart from scratch.
        rollback_to = record.checkpoint_iteration
        if record.iterations_done > rollback_to:
            record.iterations_done = rollback_to
            record.samples_processed = record.samples_at_checkpoint if rollback_to > 0 else 0.0
            job.rollback(rollback_to)
        if rollback_to > 0:
            self._needs_restore[job_name] = None
        record.worker_names = []

    def _requeue_after_failure(self, job_name: str, now: float) -> None:
        """Re-queue a descheduled job, immediately or after capped backoff.

        Without :meth:`set_restart_backoff` this is the historical immediate
        ``_pending.append``.  With it, the job's k-th consecutive failure
        waits ``min(base * 2**(k-1), cap)`` seconds before a ``requeue``
        event re-admits it — flapping capacity stops thrashing the queue.
        """
        if self.restart_backoff is None:
            self._pending.append(job_name)
            return
        base, cap = self.restart_backoff
        attempt = self._restart_count.get(job_name, 0) + 1
        self._restart_count[job_name] = attempt
        delay = min(base * (2.0 ** (attempt - 1)), cap)
        self._push(now + delay, "requeue", (job_name,))
        self._trace(now, "restart_backoff", job=job_name, attempt=attempt, delay=delay)
