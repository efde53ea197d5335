"""The scheduler's public API: submit jobs, arm faults, resize and preempt.

Every call validates its arguments when it is made (events must not fire
into the void) and lowers to heap events; :mod:`.loop` applies them."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..cluster import Cluster
from .jobs import JobRecord, SimJob


class _API:
    """The submit, fault and resize knobs of :class:`~.loop.ClusterScheduler`
    (a mixin: the state it reads is declared in ``ClusterScheduler.__init__``)."""

    #: Effective bandwidth a failed ToR uplink degrades to.  A dead link is
    #: modelled as a tiny positive floor — never zero — so every transfer
    #: quote stays finite and the piecewise-capacity integrals stay exact.
    TOR_DOWN_GBPS = 1e-3

    def submit(self, job: SimJob) -> None:
        """Queue a job for admission at its ``arrival_time``.

        Worker counts and resource names are validated here, at submit time,
        like job and GPU names elsewhere — events must not fire into the
        void.
        """
        if job.name in self._jobs:
            raise ValueError(f"duplicate job name {job.name!r}")
        if job.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if job.num_workers > len(self._all_gpus):
            raise ValueError(f"job {job.name!r} wants {job.num_workers} workers but the cluster "
                             f"has only {len(self._all_gpus)} GPUs")
        # Resource names are validated at submit time, like job/GPU names
        # (late cluster.add_resource registrations are adopted here).
        if job.storage is not None:
            self.engine.resource_timeline(job.storage)
        if job.link is not None:
            self.engine.resource_timeline(job.link)
        self._jobs[job.name] = job
        self._rank[job.name] = len(self._jobs)
        self._placement_epoch[job.name] = 0
        self.records[job.name] = JobRecord(name=job.name, arrival_time=job.arrival_time,
                                           history=job.run_history())
        self._push(job.arrival_time, "arrival", (job.name,))

    @staticmethod
    def _require(name: str, known: Dict[str, object], what: str) -> str:
        """Validate a GPU or job name at call time (events must not fire into the void)."""
        name = str(name)
        if name not in known:
            raise KeyError(f"unknown {what} {name!r}; known: {sorted(known)}")
        return name

    def set_gpu_speed(self, gpu_name: str, factor: float, at_time: float = 0.0) -> None:
        """Straggler / heterogeneous-GPU knob, applied at ``at_time``."""
        if factor <= 0:
            raise ValueError("speed factor must be positive")
        gpu_name = self._require(gpu_name, self._gpus, "GPU")
        self._push(at_time, "set_speed", (gpu_name, float(factor)))

    def resize_job(self, job_name: str, delta_workers: int, at_time: float) -> None:
        """Elastic worker join (+) / leave (-) at ``at_time``.

        For jobs with ``checkpoint_every`` set, resizing is a *migration*:
        the job writes a synchronized checkpoint and restores it on the new
        worker set, both priced as link-bytes through the engine.
        """
        if delta_workers == 0:
            raise ValueError("delta_workers must be non-zero")
        job_name = self._require(job_name, self._jobs, "job")
        self._push(at_time, "resize", (job_name, int(delta_workers)))

    def inject_failure(self, gpu_name: str, at_time: float,
                       recover_at: Optional[float] = None) -> None:
        """Take a GPU down at ``at_time`` (and optionally back up later).

        Any job holding the GPU is descheduled: its other GPUs are released,
        its progress rolls back to the last checkpoint (or to zero without
        checkpointing) and it re-queues, paying a restore read when it is
        placed again.
        """
        gpu_name = self._require(gpu_name, self._gpus, "GPU")
        self._require_recovery(at_time, recover_at)
        self._push_outage(gpu_name, "gpu", (gpu_name,), at_time, recover_at)

    def preempt_job(self, job_name: str, at_time: float) -> None:
        """Preempt a running job at ``at_time``: its GPUs are released and it
        stays paused (not queued) until :meth:`resume_job`."""
        self._push(at_time, "preempt", (self._require(job_name, self._jobs, "job"),))

    def resume_job(self, job_name: str, at_time: float) -> None:
        """Move a preempted job back into the admission queue at ``at_time``."""
        self._push(at_time, "resume", (self._require(job_name, self._jobs, "job"),))

    # ------------------------------------------------------------------ #
    # Fault-model knobs: correlated domains, degraded links, spot capacity
    # ------------------------------------------------------------------ #
    @staticmethod
    def _require_recovery(at_time: float, recover_at: Optional[float]) -> None:
        """Shared ``recover_at`` ordering check for every fault knob."""
        if recover_at is not None and recover_at <= at_time:
            raise ValueError("recover_at must come after at_time")

    def _push_outage(self, label: str, cause: str, gpus: Tuple[str, ...],
                     at_time: float, recover_at: Optional[float]) -> None:
        """Lower a GPU-capacity fault to ``gpus_down`` (and ``gpus_up``) events.

        ``cause`` names the row of :data:`.loop._CAUSES` the handlers read; ``label``
        is what the decision log calls the fault (a GPU, machine or rack).
        """
        self._push(at_time, "gpus_down", (label, cause, gpus))
        if recover_at is not None:
            self._push(recover_at, "gpus_up", (label, cause, gpus))

    def fail_machine(self, machine: str, at_time: float,
                     recover_at: Optional[float] = None) -> None:
        """Take a whole machine down at ``at_time`` (optionally back up later).

        A correlated failure domain: every resident GPU fails in the same
        event, so a job packed onto the machine loses all its local workers
        at once while spread placements lose only one worker per machine.
        """
        resident = self.cluster.gpus_on_machine(machine)  # KeyError if unknown
        self._require_recovery(at_time, recover_at)
        gpus = tuple(gpu.name for gpu in resident)
        self._push_outage(str(machine), "machine", gpus, at_time, recover_at)

    def fail_rack(self, tor_index: int, at_time: float,
                  recover_at: Optional[float] = None) -> None:
        """Fail rack ``tor_index``: every resident GPU plus the ToR uplink.

        The largest correlated domain the topology declares.  All GPUs on
        the rack's machines go down atomically and — when the cluster runs
        in per-ToR fabric mode — the rack's uplink resource degrades to
        :data:`TOR_DOWN_GBPS` until recovery, so surviving cross-rack jobs
        that shared the uplink feel the outage too.  Blast radius therefore
        depends on placement: ``tor_pack`` concentrates each job in one rack
        (few jobs lost, whole jobs lost) while spread placements expose
        every job to every rack.
        """
        tor_index = int(tor_index)
        machines = self.cluster.machines_on_tor(tor_index)  # KeyError if unknown
        self._require_recovery(at_time, recover_at)
        label = f"rack{tor_index}"
        gpus = tuple(gpu.name for machine in machines
                     for gpu in self.cluster.gpus_on_machine(machine.name))
        # Event order within each instant matters: the uplink goes down
        # before the GPUs (so victims re-placed in the same sweep quote
        # against the degraded link) and comes back up before the GPUs
        # rejoin (so jobs re-placed onto the recovered rack quote at the
        # restored rate, not the outage floor).
        uplink = Cluster.tor_link_name(tor_index)
        if self.cluster.has_per_tor_fabric and uplink in self.engine.resources:
            self._push_link_outage(uplink, self.TOR_DOWN_GBPS, at_time, recover_at,
                                   "tor_failure", "tor_recovered")
        self._push_outage(label, "rack", gpus, at_time, recover_at)

    def fail_tor(self, tor_index: int, at_time: float,
                 recover_at: Optional[float] = None) -> None:
        """Fail only ToR switch ``tor_index``'s uplink at ``at_time``.

        The rack's machines stay up but are effectively cut off from the
        fabric: the uplink resource degrades to :data:`TOR_DOWN_GBPS`, so
        cross-rack all-reduce and checkpoint traffic through it stalls while
        rack-local single-machine jobs keep running — the failure mode that
        rewards ``tor_pack`` placement.  Requires per-ToR fabric mode.
        """
        tor_index = int(tor_index)
        self.cluster.machines_on_tor(tor_index)  # KeyError if unknown
        self._require_recovery(at_time, recover_at)
        uplink = Cluster.tor_link_name(tor_index)
        if uplink not in self.engine.resources:
            raise ValueError(f"fail_tor requires per-ToR fabric resources; "
                             f"{uplink!r} is not registered on this cluster")
        self._push_link_outage(uplink, self.TOR_DOWN_GBPS, at_time, recover_at,
                               "tor_failure", "tor_recovered")

    def degrade_link(self, resource: str, gbps: float, at_time: float,
                     restore_at: Optional[float] = None) -> None:
        """Drop shared resource ``resource`` to ``gbps`` at ``at_time``.

        In-flight transfers on the resource re-quote byte-conservingly from
        the change instant (:meth:`~repro.sim.resources.BaseResourceTimeline.
        set_capacity`); iterations whose completion events were already
        committed keep their quoted durations and the degraded rate takes
        scheduler-visible effect from the next iteration boundary.
        ``restore_at`` brings the resource back to its nominal bandwidth.
        """
        resource = str(resource)
        self.engine.resource_timeline(resource)  # validates the name
        if gbps <= 0:
            raise ValueError("degraded capacity must be positive (use a small "
                             "floor like 1e-3 Gbps for a dead link)")
        self._require_recovery(at_time, restore_at)
        self._push_link_outage(resource, gbps, at_time, restore_at,
                               "link_degraded", "link_restored")

    def _push_link_outage(self, resource: str, gbps: float, at_time: float,
                          restore_at: Optional[float], down: str, up: str) -> None:
        """Lower a link fault to ``link_set_capacity`` events: to ``gbps`` at
        ``at_time`` (decision ``down``), back to nominal at ``restore_at`` (``up``)."""
        self._push(at_time, "link_set_capacity", (resource, float(gbps), down))
        if restore_at is not None:
            nominal = self.engine.resource_timeline(resource).resource.bandwidth_gbps
            self._push(restore_at, "link_set_capacity", (resource, nominal, up))

    def mark_preemptible(self, gpu_names: Sequence[str],
                         notice_seconds: float = 0.0) -> None:
        """Mark GPUs as spot capacity with an eviction-notice window.

        :meth:`evict_spot` on a marked GPU fires a ``spot_notice`` event
        ``notice_seconds`` before the eviction so the resident job can write
        a proactive checkpoint; ``0.0`` means evictions arrive unannounced.
        """
        if notice_seconds < 0:
            raise ValueError("notice_seconds must be non-negative")
        if isinstance(gpu_names, str):
            gpu_names = [gpu_names]
        for gpu_name in gpu_names:
            self._preemptible[self._require(gpu_name, self._gpus, "GPU")] = float(notice_seconds)

    def evict_spot(self, gpu_name: str, at_time: float,
                   rejoin_at: Optional[float] = None) -> None:
        """Evict spot GPU ``gpu_name`` at ``at_time`` (optionally back later).

        The GPU must have been :meth:`mark_preemptible`-ed.  With a notice
        window configured, a ``spot_notice`` event fires first and the
        resident job writes a proactive checkpoint of its completed
        progress (priced through the storage timeline), so the resume loses
        at most the notice-to-eviction window instead of a full checkpoint
        interval — provided the notice is long enough for the write to
        drain.  ``rejoin_at`` returns the reclaimed capacity to the pool.
        """
        gpu_name = self._require(gpu_name, self._gpus, "GPU")
        if gpu_name not in self._preemptible:
            raise ValueError(f"GPU {gpu_name!r} is not marked preemptible; call "
                             f"mark_preemptible first so eviction semantics are explicit")
        self._require_recovery(at_time, rejoin_at)
        notice = self._preemptible[gpu_name]
        if notice > 0.0:
            self._push(max(0.0, at_time - notice), "spot_notice", (gpu_name, float(at_time)))
        self._push_outage(gpu_name, "spot", (gpu_name,), at_time, rejoin_at)

    def set_restart_backoff(self, base_seconds: float, cap_seconds: float) -> None:
        """Enable capped-exponential restart backoff for failed/evicted jobs.

        The k-th consecutive failure of a job delays its re-queue by
        ``min(base_seconds * 2**(k-1), cap_seconds)``; a completed iteration
        resets the job's counter.  Keeps jobs on flapping capacity from
        thrashing the admission queue with restore reads.
        """
        if base_seconds <= 0 or cap_seconds < base_seconds:
            raise ValueError("backoff needs base_seconds > 0 and cap_seconds >= base_seconds")
        self.restart_backoff = (float(base_seconds), float(cap_seconds))