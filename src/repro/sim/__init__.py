"""``repro.sim`` — cost models, cluster topology and cluster-level simulation.

Substitutes the paper's GPU testbed.  One timer, one stepper: the
discrete-event :class:`EventDrivenEngine` prices every iteration — per-GPU
compute events and per-link communication events over the cluster graph,
expressing stragglers, heterogeneous GPUs, multi-job sharing and elastic
worker membership — and :class:`ClusterScheduler` advances jobs through it.
The closed-form :meth:`CostModel.iteration` is the reference the engine is
checked against (``EventDrivenEngine.closed_form_deviation`` within 5% on
the single-job configurations), not a mode to select.

Cross-job contention is a first-class concept: clusters carry named
finite-bandwidth :class:`~repro.sim.resources.SharedResource` s (the
leaf–spine fabric — optionally broken into per-ToR uplinks plus a core — and
the checkpoint storage target) whose per-resource timelines queue concurrent
jobs' all-reduce buckets and checkpoint transfers under a pluggable
discipline: first-fit FIFO serialization
(:class:`~repro.sim.resources.ResourceTimeline`) or processor sharing
(:class:`~repro.sim.resources.FairShareTimeline`), selected by ``policy`` per
resource.  :func:`run_scenario` replays a plain-JSON scenario — jobs given as
per-module parameter-count lists — to a deterministic timeline/makespan
report (the ``repro sim run`` CLI).

The package imports no other ``repro`` package (SimLint SIM007 holds the
layer table): it prices anything that reads as a list of module sizes.  A
real trainer enters a cluster through :class:`repro.core.TrainerJob`.

Robustness scenarios come from the fault model (:mod:`repro.sim.faults`,
``docs/faults.md``): correlated failure domains (machine/rack/ToR), mid-run
link degradation with byte-conserving re-quotes, and spot capacity whose
eviction notices trigger proactive checkpoints — driven by explicit scenario
event lists or a seeded, bit-reproducible stochastic generator.

Two performance layers keep the event backend fast (``docs/performance.md``):
the engine memoizes the fully-resolved timing of every steady-state
iteration and **fast-forwards** identical ones in O(1) — bit-identical to
the event-by-event path, invalidated by any state transition — and
:func:`run_sweep` (``repro sim sweep``) fans a scenario parameter grid (e.g.
``core_gbps`` oversubscription studies) across ``multiprocessing`` workers
with deterministic per-cell seeds and a worker-count-independent merged
result table.

Correctness tooling (``docs/correctness.md``): SimLint (``tools/simlint``)
statically forbids determinism-breaking code patterns, and SimSan
(:class:`SimSanitizer`, enabled via ``EventDrivenEngine(sanitize=True)`` or
``REPRO_SIMSAN=1``) checks the engine's runtime invariants — causality,
non-negative durations, monotone ``busy_until``, byte and fair-share rate
conservation, fast-forward/live agreement — raising
:class:`~repro.sim.sanitizer.SanitizerError` with event provenance when one
breaks.

Observability (``docs/observability.md``): SimScope (:mod:`repro.sim.observe`,
enabled per scenario via ``"observe": true`` or the ``repro sim run
--trace-out/--metrics-out`` flags) attaches a
:class:`~repro.sim.observe.SimObserver` that records a structured sim-time
trace (Chrome ``trace_event`` JSON for Perfetto) and metric timelines
(:class:`~repro.sim.observe.MetricsRegistry`) without perturbing the
simulation, and :func:`profile_scenario` (:mod:`repro.sim.profile`, ``repro
sim profile``) ranks the simulator's own hot functions under ``cProfile``.
"""

from .allreduce import AllReduceModel
from .cluster import Cluster, ClusterSpec, paper_testbed_cluster, single_node_cluster
from .cost_model import CostModel
from .engine import EventDrivenEngine, SchedulePolicy
from .sanitizer import SimSanitizer
from .profile import diff_profiles, profile_scenario
from .scenario import preview_faults, run_scenario
from .scheduler import ClusterScheduler, SimJob
from .sweep import run_sweep

__all__ = [
    "CostModel",
    "Cluster",
    "ClusterSpec",
    "paper_testbed_cluster",
    "single_node_cluster",
    "AllReduceModel",
    "SchedulePolicy",
    "EventDrivenEngine",
    "ClusterScheduler",
    "SimJob",
    "run_scenario",
    "preview_faults",
    "run_sweep",
    "SimSanitizer",
    "profile_scenario",
    "diff_profiles",
]
