"""Multi-job cluster scheduling on top of the event-driven engine.

The paper evaluates Egeria one job at a time, but its cluster-level claims
(reduced gradient traffic, tolerance to communication bottlenecks) only
matter when several training jobs share machines and links.  A
:class:`ClusterScheduler` places :class:`SimJob` s onto the
:class:`~repro.sim.cluster.Cluster`'s GPUs (FIFO admission; ``fifo``,
``round_robin`` or ``tor_pack`` placement) and advances them iteration by
iteration through the :class:`~repro.sim.engine.EventDrivenEngine`.  Its
knobs cover stragglers and heterogeneous GPUs, elastic resizes, failures,
preemption and a structured fault model (correlated domains, degraded
links, spot capacity with eviction notices, restart backoff; see
:mod:`repro.sim.faults`).  Jobs contend on named shared resources
(:mod:`repro.sim.resources`) for their all-reduce buckets and their
periodic, optionally asynchronous, freezing-aware checkpoints, and steady
runs of iterations are fast-forwarded from the engine's memo, bit-identical
to the one-event-per-iteration and event-by-event references
(``tests/oracles/sim_reference.py``).  ``docs/simulation.md`` and
``docs/faults.md`` describe each knob.

Everything is deterministic: events at one instant run cluster-level first
(in push order), then each job's own in submission order of the jobs, and
nothing is drawn at random, so two runs with the same inputs produce
identical :class:`SchedulerResult` s — the property the multi-job benchmark
asserts.

The package splits :class:`ClusterScheduler` along its seams: :mod:`.api`
(submit, fault and resize knobs), :mod:`.placement`, :mod:`.planner` (one
iteration or a batch of them) and :mod:`.loop` (the heap, the one-row-per-kind
event table and its handlers); :mod:`.jobs` holds the job and its records.
"""

from .jobs import JobRecord, SchedulerResult, SimJob
from .loop import ClusterScheduler

__all__ = ["SimJob", "JobRecord", "SchedulerResult", "ClusterScheduler"]
