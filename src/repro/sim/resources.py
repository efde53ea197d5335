"""Shared cluster resources: named links and storage targets with finite bandwidth.

The paper's cluster-level claims (shrinking gradient traffic, tolerance to
communication bottlenecks) are about *shared* resources: several training
jobs' all-reduce buckets cross the same leaf–spine fabric, and concurrent
checkpointers write to the same storage target.  Earlier revisions modelled
that sharing with a flat ``comm_scale`` fair-share multiplier; this module
makes it a first-class system concept instead:

* :class:`SharedResource` — a named link or storage target with a finite
  bandwidth, a fixed per-transfer latency and a **scheduling discipline**
  (``policy="fifo"`` or ``policy="fair"``);
* :class:`ResourceTimeline` — the FIFO (first-fit, gap-filling) per-resource
  event queue.  Transfers are serialized on the resource: a transfer
  requested with ``earliest_start = t`` begins at the start of the first
  idle window of sufficient length at or after ``t``.  Two jobs whose
  transfers actually overlap in simulated time genuinely delay each other,
  while a transfer requested while the resource is idle proceeds
  immediately — even when another job already holds a window further in the
  future (the scheduler reserves checkpoint windows ahead of time).
  Cancelling a window **re-flows** the transfers queued behind it: they are
  re-placed at their earliest feasible start instead of keeping their
  committed slots;
* :class:`FairShareTimeline` — the processor-sharing alternative: instead of
  serializing, the resource splits its capacity evenly among all transfers
  active at each instant (piecewise-constant rates integrated between
  arrival/completion breakpoints), the classic fluid model of a multiplexed
  fabric;
* :class:`ResourcePool` — the engine-side registry of timelines, validated
  by name at call time like job and GPU names.

Both disciplines are deterministic (placement depends only on the request
sequence, which the scheduler's event heap already makes deterministic) and
conserve bytes (every reserved transfer is recorded with its payload size
and owner).  The FIFO discipline is also monotone for request streams issued
in non-decreasing ``earliest_start`` order: scaling every transfer duration
down (a faster resource) moves every start and end earlier, so makespans
never grow when bandwidth grows.  Processor sharing is work-conserving, so
its makespan never exceeds the FIFO makespan on the same request stream.
Those invariants are what the hypothesis property suite asserts; see
``docs/resources.md`` for the full semantics.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from .cost_model import CostModel
from .sanitizer import SimSanitizer

if TYPE_CHECKING:  # pragma: no cover - observers are attached, never imported here
    from .observe.observer import SimObserver

__all__ = [
    "SharedResource",
    "ResourceOccupancy",
    "BaseResourceTimeline",
    "ResourceTimeline",
    "FairShareTimeline",
    "ResourcePool",
    "build_timeline",
]


@dataclass(frozen=True)
class SharedResource:
    """One named, finite-bandwidth resource shared between jobs.

    Parameters
    ----------
    name:
        Identifier the scheduler and jobs reference (validated at call time).
    bandwidth_gbps:
        Capacity of the resource in gigabits per second.
    kind:
        ``"link"`` (network fabric) or ``"storage"`` (checkpoint target);
        informational — both kinds share the same queueing disciplines.
    latency_seconds:
        Fixed per-transfer setup cost (ring launch, storage round trip).
    policy:
        Scheduling discipline of the resource's timeline: ``"fifo"``
        (first-fit serialization, :class:`ResourceTimeline`) or ``"fair"``
        (processor sharing, :class:`FairShareTimeline`).
    """

    #: Valid scheduling disciplines for a shared resource.
    POLICIES = ("fifo", "fair")

    name: str
    bandwidth_gbps: float
    kind: str = "link"
    latency_seconds: float = 0.0
    policy: str = "fifo"

    def __post_init__(self) -> None:
        """Validate bandwidth, kind, latency and policy eagerly."""
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"resource {self.name!r}: bandwidth must be positive")
        if self.kind not in ("link", "storage"):
            raise ValueError(f"resource {self.name!r}: kind must be 'link' or 'storage'")
        if self.latency_seconds < 0:
            raise ValueError(f"resource {self.name!r}: latency must be non-negative")
        if self.policy not in self.POLICIES:
            raise ValueError(f"resource {self.name!r}: policy must be one of {self.POLICIES}")

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view of the resource (used in scheduler summaries)."""
        return {
            "name": self.name,
            "bandwidth_gbps": self.bandwidth_gbps,
            "kind": self.kind,
            "latency_seconds": self.latency_seconds,
            "policy": self.policy,
        }


@dataclass(frozen=True)
class ResourceOccupancy:
    """One reserved transfer window on a shared resource.

    ``earliest_start`` preserves the caller's requested start (what the
    window can be re-flowed back to after a cancellation) and ``seq`` the
    reservation order (what re-flow replays), distinct from the committed
    ``start``/``end`` the discipline assigned.
    """

    start: float
    end: float
    num_bytes: int
    job: Optional[str]
    kind: str
    earliest_start: float = 0.0
    seq: int = -1

    @property
    def seconds(self) -> float:
        """Committed duration of the window."""
        return self.end - self.start


class BaseResourceTimeline:
    """Shared bookkeeping for the per-resource scheduling disciplines.

    Subclasses implement :meth:`reserve` and :meth:`cancel`; everything else
    (byte-priced reservations, per-job/per-kind accounting, plain-data
    summaries) is discipline-independent.
    """

    def __init__(self, resource: SharedResource):
        """Wrap ``resource`` with an initially empty occupancy record."""
        self.resource = resource
        #: Committed windows; FIFO keeps them disjoint, fair-share windows
        #: may overlap (capacity is split, not serialized).
        self._records: List[ResourceOccupancy] = []
        self._busy_until = 0.0
        self._seq = 0
        # Effective capacity, mutable mid-run by set_capacity() (degraded
        # links).  While it equals the nominal bandwidth the timeline is
        # bit-identical to earlier revisions; the change log is kept in
        # absolute sim time so piecewise integration stays exact.
        self._capacity_gbps = resource.bandwidth_gbps
        self._cap_changes: List[Tuple[float, float]] = []
        self._cap_times: List[float] = []
        #: Optional :class:`~repro.sim.sanitizer.SimSanitizer` notified on
        #: every reserve/cancel (attached by the pool; ``None`` = plain run).
        self.sanitizer: Optional[SimSanitizer] = None
        #: Optional :class:`~repro.sim.observe.observer.SimObserver` sampling
        #: request-time queue depth and wait (attached by the pool; ``None``
        #: = unobserved run, the zero-overhead default).
        self.observer: Optional["SimObserver"] = None

    @property
    def busy_until(self) -> float:
        """Latest committed window end (0.0 while the timeline is empty)."""
        return self._busy_until

    @property
    def capacity_gbps(self) -> float:
        """Current effective capacity (nominal until :meth:`set_capacity`)."""
        return self._capacity_gbps

    def capacity_profile(self) -> Tuple[Tuple[float, float], ...]:
        """``(at_time, factor)`` capacity change points, factor of nominal.

        Empty while the capacity never changed — the common case callers use
        to short-circuit profile-aware arithmetic back to the exact legacy
        expressions.
        """
        nominal = self.resource.bandwidth_gbps
        return tuple((at_time, gbps / nominal) for at_time, gbps in self._cap_changes)

    def set_capacity(self, at_time: float, gbps: float) -> None:
        """Change the effective capacity at ``at_time``, resweeping the open
        busy period (transfers in flight or queued re-quote byte-conservingly
        from the change instant).  Discipline-specific."""
        raise NotImplementedError

    def _note_capacity_change(self, at_time: float, gbps: float) -> Tuple[float, float]:
        """Validate and log a capacity change; returns ``(old, new)`` gbps.

        Changes must be time-ordered (the scheduler applies them from its
        event heap, which guarantees it) and strictly positive — a dead link
        is modelled as a tiny positive floor, never zero, so every quote
        stays finite.
        """
        at_time = float(at_time)
        gbps = float(gbps)
        name = self.resource.name
        if gbps <= 0:
            raise ValueError(f"resource {name!r}: capacity must be positive, got {gbps}")
        if at_time < 0:
            raise ValueError(f"resource {name!r}: capacity change time must be >= 0")
        if self._cap_times and at_time < self._cap_times[-1]:
            raise ValueError(
                f"resource {name!r}: capacity changes must be applied in time order "
                f"(got {at_time} after {self._cap_times[-1]})")
        old = self._capacity_gbps
        self._capacity_gbps = gbps
        self._cap_changes.append((at_time, gbps))
        self._cap_times.append(at_time)
        return old, gbps

    def transfer_seconds(self, num_bytes: int, cap_gbps: Optional[float] = None) -> float:
        """Uncontended time to move ``num_bytes`` at the *current* capacity.

        Priced at the resource's nominal bandwidth until a
        :meth:`set_capacity`; after one, new quotes price at the degraded (or
        restored) rate.  ``cap_gbps`` bounds the effective bandwidth from the
        endpoint side — a checkpoint write cannot outrun the writing
        machine's NIC even when the storage target itself is faster.
        """
        if num_bytes <= 0:
            return 0.0
        bandwidth = self._quote_gbps()
        if cap_gbps is not None:
            bandwidth = min(bandwidth, float(cap_gbps))
        return self.resource.latency_seconds + CostModel.transfer_seconds_at(num_bytes, bandwidth)

    def _quote_gbps(self) -> float:
        """Bandwidth new reservations are priced at (discipline-specific)."""
        return self._capacity_gbps

    @property
    def records(self) -> Tuple[ResourceOccupancy, ...]:
        """Snapshot of the committed occupancy windows."""
        return tuple(self._records)

    def reserve(self, earliest_start: float, seconds: float, num_bytes: int = 0,
                job: Optional[str] = None, kind: str = "transfer",
                weight: float = 1.0) -> Tuple[float, float]:
        """Reserve ``seconds`` of occupancy; returns the ``(start, end)`` window.

        ``weight`` is the transfer's fair-share weight — processor-sharing
        timelines split capacity proportionally to it; FIFO serialization
        ignores it (a queue has no notion of rate shares).
        """
        raise NotImplementedError

    def cancel(self, job: str, after_time: float) -> int:
        """Drop ``job``'s not-yet-started reservations; returns how many."""
        raise NotImplementedError

    def reserve_bytes(self, earliest_start: float, num_bytes: int, job: Optional[str] = None,
                      kind: str = "transfer", cap_gbps: Optional[float] = None,
                      weight: float = 1.0) -> Tuple[float, float]:
        """Reserve a transfer priced by the timeline's current capacity (and ``cap_gbps``)."""
        seconds = self.transfer_seconds(num_bytes, cap_gbps=cap_gbps)
        return self.reserve(earliest_start, seconds, num_bytes=num_bytes, job=job, kind=kind,
                            weight=weight)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _accounted(self) -> Collection:
        """What the byte accounting sums: every committed window or admitted
        transfer, as objects with ``num_bytes``/``job``/``kind``."""
        return self._records

    def busy_seconds(self) -> float:
        """Total capacity-seconds of work committed to the resource."""
        return sum(r.seconds for r in self._records)

    def total_bytes(self) -> int:
        """Total payload bytes across every committed window."""
        return sum(r.num_bytes for r in self._accounted())

    def bytes_by_job(self) -> Dict[str, int]:
        """Payload bytes grouped by owning job (``<anonymous>`` if unowned)."""
        totals: Dict[str, int] = {}
        for record in self._accounted():
            key = record.job if record.job is not None else "<anonymous>"
            totals[key] = totals.get(key, 0) + record.num_bytes
        return totals

    def bytes_by_kind(self) -> Dict[str, int]:
        """Payload bytes grouped by transfer kind (allreduce, checkpoint, ...)."""
        totals: Dict[str, int] = {}
        for record in self._accounted():
            totals[record.kind] = totals.get(record.kind, 0) + record.num_bytes
        return totals

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data summary of the timeline's occupancy."""
        return {
            "resource": self.resource.as_dict(),
            "busy_seconds": self.busy_seconds(),
            "busy_until": self.busy_until,
            "num_transfers": len(self._accounted()),
            "total_bytes": self.total_bytes(),
            "bytes_by_job": dict(sorted(self.bytes_by_job().items())),
            "bytes_by_kind": dict(sorted(self.bytes_by_kind().items())),
        }


class ResourceTimeline(BaseResourceTimeline):
    """Occupancy queue of one shared resource (first-fit FIFO placement).

    A transfer requested with ``earliest_start = t`` begins at the start of
    the first idle window of sufficient length at or after ``t`` — transfers
    that overlap in simulated time serialize, while an idle resource serves a
    request immediately even when other windows are already reserved further
    in the future.  Every reservation is recorded with its byte payload and
    owning job, so per-resource traffic can be audited afterwards
    (:meth:`total_bytes`, :meth:`bytes_by_job`) and reservations made for a
    later-invalidated iteration can be cancelled (:meth:`cancel`) — which
    re-flows the transfers queued behind the freed windows.
    """

    def _first_fit(self, earliest_start: float, seconds: float) -> float:
        """Start of the first idle window of length ``seconds`` at/after
        ``earliest_start`` (records are sorted and disjoint: one pass).

        Windows that end before ``earliest_start`` cannot constrain the
        placement, and being disjoint and start-sorted, every window before
        the last one starting at or before ``earliest_start`` does — so the
        scan starts there instead of at the head of the queue.
        """
        candidate = earliest_start
        if candidate >= self._busy_until:
            return candidate  # past every committed window
        index = max(bisect.bisect_right(self._starts, candidate) - 1, 0)
        for position in range(index, len(self._records)):
            window = self._records[position]
            if window.start >= candidate + seconds:
                break  # the gap before this window fits
            if window.end > candidate:
                candidate = window.end
        return candidate

    def __init__(self, resource: SharedResource):
        """Wrap ``resource`` with an empty first-fit occupancy queue."""
        super().__init__(resource)
        #: Window start times, kept parallel to ``_records`` so insertion
        #: points come from one bisect instead of rebuilding a key list.
        self._starts: List[float] = []

    def _insert(self, record: ResourceOccupancy) -> None:
        """Insert a committed window, keeping records sorted by start time."""
        position = bisect.bisect_left(self._starts, record.start)
        self._records.insert(position, record)
        self._starts.insert(position, record.start)
        self._busy_until = max(self._busy_until, record.end)

    def reserve(self, earliest_start: float, seconds: float, num_bytes: int = 0,
                job: Optional[str] = None, kind: str = "transfer",
                weight: float = 1.0) -> Tuple[float, float]:
        """Reserve ``seconds`` of occupancy; returns the ``(start, end)`` window.

        ``weight`` is accepted for interface parity with the fair-share
        discipline and ignored: FIFO windows serialize, they never share
        capacity.
        """
        if seconds < 0:
            raise ValueError("cannot reserve a negative duration")
        earliest_start = float(earliest_start)
        depth = 0
        if self.observer is not None:
            # Queue depth as seen by this request: committed windows that had
            # not started by the requested time (sampled before insertion).
            depth = len(self._records) - bisect.bisect_left(self._starts, earliest_start)
        start = self._first_fit(earliest_start, seconds)
        end = start + seconds
        self._insert(ResourceOccupancy(start, end, int(num_bytes), job, kind,
                                       earliest_start=earliest_start, seq=self._seq))
        self._seq += 1
        if self.sanitizer is not None:
            self.sanitizer.note_reserve(self, earliest_start, start, end, seconds,
                                        num_bytes, job, kind)
        if self.observer is not None:
            self.observer.note_reserve(self, earliest_start, start, end,
                                       int(num_bytes), job, kind, depth)
        return start, end

    def cancel(self, job: str, after_time: float) -> int:
        """Drop ``job``'s reservations starting at or after ``after_time``.

        Called when a resize/failure/preemption invalidates an in-flight
        iteration whose transfers were already placed on the timeline; windows
        that started before ``after_time`` stay (the bytes were on the wire).
        Returns the number of cancelled reservations.

        Transfers that were queued *behind* a cancelled window are
        **re-flowed**: every window that had not started by ``after_time`` is
        re-placed, in committed on-wire order (start, then reservation
        sequence), at its earliest feasible start —
        ``max(earliest_start, after_time)`` first-fit against the surviving
        windows — so the freed capacity benefits the transfers that were
        actually waiting for it, not just future requests.  Replaying in
        committed-start order makes re-flow provably never move a window
        later: when a window is re-placed, every window previously committed
        left of it has only moved further left, so its old slot is still
        free.  Completion events other components already derived from the
        old quotes keep their committed times (the scheduler's event heap is
        not rewritten); the timeline is the audit of when the resource
        actually carried the bytes.
        """
        # Records are sorted by start: only the suffix at or after
        # ``after_time`` can hold a window to drop (usually it holds none).
        records = self._records
        index = bisect.bisect_left(self._starts, after_time)
        if not any(records[position].job == job for position in range(index, len(records))):
            return 0
        if self.sanitizer is not None:
            self.sanitizer.note_cancel(self, job, after_time)
        queued = [r for r in records[index:] if r.job != job]
        cancelled = len(records) - index - len(queued)
        self._reflow(records[:index], queued, after_time, 1.0)
        if self.sanitizer is not None:
            self.sanitizer.note_cancelled(self)
        return cancelled

    def set_capacity(self, at_time: float, gbps: float) -> None:
        """Change the link's effective capacity at ``at_time``.

        The open busy period is resweeped byte-conservingly from the change
        instant:

        * windows fully closed by ``at_time`` keep their committed slots (the
          bytes were on the wire at the old rate);
        * the (at most one — FIFO windows are disjoint) window straddling
          ``at_time`` keeps its start, and its **remaining** span re-quotes
          at the new rate: ``new_end = at_time + (end - at_time) * old/new``
          — exact piecewise integration of the bytes still to move;
        * windows that had not started by ``at_time`` re-quote their full
          duration by the same ratio and re-flow first-fit in committed
          ``(start, seq)`` order at ``max(earliest_start, at_time)`` — the
          one :meth:`_reflow` the cancellation path uses too.

        The fixed per-transfer latency share of a window scales with the
        ratio too — a documented approximation (see ``docs/faults.md``) that
        keeps the resweep a single exact multiply.  New quotes after the
        change price at the new rate via :meth:`transfer_seconds`.  Payload
        bytes are untouched, so the sanitizer's byte ledger still balances.
        """
        old, new = self._note_capacity_change(at_time, gbps)
        ratio = old / new
        # Records are sorted by start: everything before the bisect point has
        # started (closed, or straddling and re-quoted), and only the suffix
        # can still be queued (a zero-length window at exactly ``at_time`` is
        # closed).
        index = bisect.bisect_left(self._starts, at_time)
        kept = [record if record.end <= at_time else
                replace(record, end=at_time + (record.end - at_time) * ratio)
                for record in self._records[:index]]
        queued: List[ResourceOccupancy] = []
        for record in self._records[index:]:
            (kept if record.end <= at_time else queued).append(record)
        self._reflow(kept, queued, at_time, ratio)
        if self.sanitizer is not None:
            self.sanitizer.note_capacity(self, at_time, old, new)

    def _reflow(self, kept: List[ResourceOccupancy], queued: List[ResourceOccupancy],
                after_time: float, ratio: float) -> None:
        """Rebuild the queue from ``kept``, then re-place every ``queued`` window
        in on-wire order, re-quoted to ``seconds * ratio`` (a cancel passes 1.0,
        and ``x * 1.0 == x``), first-fit at ``max(earliest_start, after_time)``:
        never before its request, nor before the instant that freed or re-priced
        the link (the transfer was demonstrably not on the wire by then)."""
        self._records = sorted(kept, key=lambda r: (r.start, r.seq))
        self._starts = [r.start for r in self._records]
        self._busy_until = max((r.end for r in self._records), default=0.0)
        for record in sorted(queued, key=lambda r: (r.start, r.seq)):
            seconds = record.seconds * ratio
            start = self._first_fit(max(record.earliest_start, after_time), seconds)
            self._insert(replace(record, start=start, end=start + seconds))


@dataclass
class _FairTransfer:
    """One transfer in a processor-sharing timeline (demand in capacity-seconds).

    ``weight`` scales the transfer's share of the capacity: at any instant an
    active transfer progresses at ``weight / sum(active weights)`` of the
    line rate (all weights 1.0 recovers the classic even split).
    """

    arrival: float
    demand: float
    num_bytes: int
    job: Optional[str]
    kind: str
    seq: int
    weight: float = 1.0


class FairShareTimeline(BaseResourceTimeline):
    """Processor-sharing occupancy of one shared resource.

    The fluid model of a multiplexed fabric: at every instant the resource's
    capacity is split **evenly** among the transfers active at that instant
    (arrived, not yet complete), so ``k`` concurrent transfers each progress
    at ``1/k`` of the line rate.  Completion times are computed by
    integrating the piecewise-constant rates between breakpoints (arrivals
    and completions) — byte-conserving by construction, deterministic, and
    work-conserving: the resource is never idle while work is pending, so
    the fair-share makespan never exceeds the FIFO makespan on the same
    request stream (a property the hypothesis suite asserts).

    Service begins at the transfer's ``earliest_start`` (there is no queueing
    delay under processor sharing, only a reduced rate), so a committed
    window's ``start`` equals the request time and its ``end`` is the
    integrated completion.  A transfer arriving later **revises** the
    recorded ends of transfers still in flight (they now share capacity);
    the ``(start, end)`` returned by :meth:`reserve` reflects everything
    known at quote time and is the commitment earlier callers keep, while
    :attr:`records` always shows the fully re-flowed schedule.

    The integration is **incremental**: the sweep state (remaining demand of
    every transfer still in service) is kept frozen at the most recent
    arrival breakpoint — the *frontier* — so an in-order arrival only
    advances the schedule from the breakpoint it perturbs (~O(active²)
    decrement steps) instead of re-integrating the whole busy period.
    Advancing the frontier performs exactly the breakpoint arithmetic a
    from-scratch resweep performs, so the schedule is bit-identical to the
    from-scratch oracle in ``tests/oracles/sim_reference.py`` — the
    hypothesis equivalence suite and SimSan's rate-feasibility audit both
    assert this.

    Whatever displaces part of the schedule — an *out-of-order* arrival
    behind the frontier (routine when several jobs' live iterations
    interleave their bucket streams, :attr:`rewind_reserves`), a
    cancellation or a capacity change (:attr:`full_resweeps`) — goes through
    one routine, :meth:`_reintegrate`: a post-admission state snapshot is
    kept per transfer, so the schedule restores the snapshot just before the
    first slot the edit touches, replays the admissions behind it, and
    stops as soon as the rebuilt state is back on the stored track.
    """

    def __init__(self, resource: SharedResource):
        """Wrap ``resource`` with an empty processor-sharing schedule."""
        super().__init__(resource)
        #: seq -> admitted transfer, in admission order (what the accounting
        #: sums iterate, so a cancel must not reorder the survivors).
        self._transfers: Dict[int, _FairTransfer] = {}
        #: seq -> completion time for every admitted transfer.
        self._ends: Dict[int, float] = {}
        #: seq -> fair-share weight for every admitted transfer.  A weight
        #: never changes, so the integrator reads this one table in
        #: ``_remaining``'s iteration order instead of carrying a per-state copy.
        self._weights: Dict[int, float] = {}
        # Incremental integration state, frozen at the last admission in
        # canonical order (the *frontier*): remaining demand of every
        # transfer still in service there.  An in-order reserve() advances
        # this state to the new arrival (finalizing the completions it
        # crosses), admits the transfer, then *projects* the active set's
        # completions on a scratch copy — the saved state is untouched, so
        # the next arrival re-derives exactly the projected values on its
        # way forward (bit-identity).
        self._frontier = 0.0
        self._remaining: Dict[int, float] = {}
        #: Max end among *finalized* completions (immutable history); the
        #: busy watermark is this folded with the live projection's max, so
        #: it is an exact function of the current schedule.
        self._done_max_end = 0.0
        # Rewind support: admitted transfers in canonical (arrival, seq)
        # order, their sort keys (for bisect), and one state snapshot per
        # admission — (remaining, done_max_end) captured right after the
        # transfer was admitted, when the frontier sits at its arrival.
        # Whatever displaces part of the schedule restores the snapshot
        # preceding the first slot it touches (see _reintegrate).
        self._order: List[_FairTransfer] = []
        self._order_keys: List[Tuple[float, int]] = []
        self._snaps: List[Tuple[Dict[int, float], float]] = []
        #: Perf counter: in-order arrivals integrated from the frontier.
        self.incremental_reserves = 0
        #: Perf counter: out-of-order arrivals served by a snapshot rewind.
        self.rewind_reserves = 0
        #: Perf counter: re-integrations caused by a cancel or capacity
        #: change; suffix-only.
        self.full_resweeps = 0

    @property
    def records(self) -> Tuple[ResourceOccupancy, ...]:
        """The fully re-flowed schedule, sorted by (start, admission order)."""
        return tuple(sorted(
            (ResourceOccupancy(t.arrival, self._ends[t.seq], t.num_bytes, t.job, t.kind,
                               earliest_start=t.arrival, seq=t.seq)
             for t in self._transfers.values()),
            key=lambda r: (r.start, r.seq)))

    def reserve(self, earliest_start: float, seconds: float, num_bytes: int = 0,
                job: Optional[str] = None, kind: str = "transfer",
                weight: float = 1.0) -> Tuple[float, float]:
        """Admit a transfer of ``seconds`` capacity-seconds; returns ``(start, end)``.

        ``start`` is ``earliest_start`` itself (processor sharing serves
        immediately at a shared rate); ``end`` is the completion under the
        recomputed fair-share schedule.  ``weight`` sets the transfer's
        capacity share relative to the other active transfers (default 1.0:
        the classic even split); a transfer running alone always gets the
        full capacity regardless of its weight (work conservation).
        """
        if seconds < 0:
            raise ValueError("cannot reserve a negative duration")
        if weight <= 0:
            raise ValueError("fair-share weight must be positive")
        transfer = _FairTransfer(float(earliest_start), float(seconds), int(num_bytes),
                                 job, kind, self._seq, weight=float(weight))
        self._seq += 1
        self._transfers[transfer.seq] = transfer
        self._weights[transfer.seq] = transfer.weight
        position = bisect.bisect(self._order_keys, (transfer.arrival, transfer.seq))
        if position < len(self._order):
            # Out-of-order arrival behind the frontier (interleaved jobs).
            self.rewind_reserves += 1
        else:
            self.incremental_reserves += 1
        self._reintegrate(position, insert=transfer)
        end = self._ends[transfer.seq]
        if self.sanitizer is not None:
            self.sanitizer.note_reserve(self, transfer.arrival, transfer.arrival, end,
                                        seconds, num_bytes, job, kind)
        if self.observer is not None:
            # Queue depth under processor sharing: transfers this arrival
            # shares capacity with (still draining at its arrival instant) —
            # the others in the state right after its own admission.
            self.observer.note_reserve(self, transfer.arrival, transfer.arrival, end,
                                       int(num_bytes), job, kind,
                                       len(self._snaps[position][0]) - 1)
        return transfer.arrival, end

    def cancel(self, job: str, after_time: float) -> int:
        """Drop ``job``'s transfers arriving at or after ``after_time``.

        Transfers that arrived before ``after_time`` have been in (shared)
        service since their arrival, so they stay in full — the conservative
        analogue of FIFO's "bytes on the wire" rule.  The schedule is
        re-integrated from the first dropped transfer's slot, which re-flows
        every affected transfer automatically: completions move earlier the
        moment the cancelled demand disappears.  Returns the number of
        cancelled transfers.
        """
        # Only admissions at or after ``after_time`` can be dropped: scan that
        # suffix of the canonical order, not the whole history.
        order = self._order
        first = bisect.bisect_left(self._order_keys, (after_time,))
        positions = [position for position in range(first, len(order))
                     if order[position].job == job]
        if not positions:
            return 0
        if self.sanitizer is not None:
            self.sanitizer.note_cancel(self, job, after_time)
        dropped = [order[position].seq for position in positions]
        for seq in dropped:
            del self._transfers[seq], self._ends[seq], self._weights[seq]
        self.full_resweeps += 1
        self._reintegrate(positions[0], drop=set(dropped))
        if self.sanitizer is not None:
            self.sanitizer.note_cancelled(self)
        return len(dropped)

    def busy_seconds(self) -> float:
        """Total capacity-seconds of admitted demand (not wall-clock spans).

        Overlapping fair-share windows each get a fraction of the capacity,
        so summing wall-clock window lengths would double-count; the demand
        sum equals what the FIFO discipline would report for the same
        request stream.
        """
        return sum(t.demand for t in self._transfers.values())

    def _accounted(self) -> Collection:
        return self._transfers.values()

    def _quote_gbps(self) -> float:
        """Fair-share demand is priced at the *nominal* bandwidth.

        Under processor sharing a capacity change degrades the service rate
        of every active transfer over time — the integrator applies the
        factor (see :meth:`_end_time`), so pricing demand at the effective
        rate too would double-count the degradation.
        """
        return self.resource.bandwidth_gbps

    def set_capacity(self, at_time: float, gbps: float) -> None:
        """Change the effective capacity at ``at_time``.

        The processor-sharing fluid model handles this exactly: demand is
        stored in nominal capacity-seconds and the integrator drains it at
        ``factor(t)`` (effective/nominal) nominal-units per second, so a
        capacity change is one more breakpoint in the piecewise-constant
        rate.  Every admission after ``at_time`` is re-integrated against
        the new profile (an out-of-order admission behind a change point
        replays correctly afterwards because the profile is indexed by
        absolute sim time); service already rendered up to ``at_time`` is
        untouched because the factors before the change point are unchanged
        — :meth:`_end_time` and :meth:`_work` evaluate the same expressions
        left of the new change point.  The transfers' sharing fractions
        (``weight / sum(weights)``) are capacity-independent, so relative
        fairness is preserved.
        """
        old, new = self._note_capacity_change(at_time, gbps)
        self.full_resweeps += 1
        self._reintegrate(bisect.bisect_right(self._order_keys, (at_time, float("inf"))))
        if self.sanitizer is not None:
            self.sanitizer.note_capacity(self, at_time, old, new)

    def _end_time(self, now: float, work: float) -> float:
        """Absolute completion time of ``work`` nominal capacity-seconds
        served from ``now`` under the capacity profile.

        With no capacity changes this is exactly ``now + work`` — the legacy
        expression, bit-for-bit — otherwise the piecewise-constant factor is
        integrated segment by segment.
        """
        if not self._cap_changes:
            return now + work
        if work <= 0.0:
            return now
        nominal = self.resource.bandwidth_gbps
        index = bisect.bisect_right(self._cap_times, now)
        time = now
        left = work
        while True:
            factor = (self._cap_changes[index - 1][1] / nominal) if index > 0 else 1.0
            if index >= len(self._cap_times):
                return time + left / factor
            boundary = self._cap_times[index]
            segment_work = (boundary - time) * factor
            if segment_work >= left:
                return time + left / factor
            left -= segment_work
            time = boundary
            index += 1

    def _work(self, now: float, target: float) -> float:
        """Nominal capacity-seconds the resource serves over ``[now, target]``.

        The inverse of :meth:`_end_time`: with no capacity changes exactly
        ``target - now`` (the legacy expression), otherwise the integral of
        the piecewise-constant factor over the interval.
        """
        if not self._cap_changes:
            return target - now
        if target <= now:
            return 0.0
        nominal = self.resource.bandwidth_gbps
        index = bisect.bisect_right(self._cap_times, now)
        time = now
        served = 0.0
        while time < target:
            factor = (self._cap_changes[index - 1][1] / nominal) if index > 0 else 1.0
            boundary = self._cap_times[index] if index < len(self._cap_times) else target
            upto = min(boundary, target)
            served += (upto - time) * factor
            time = upto
            index += 1
        return served

    def transfer_schedule(self) -> Tuple[Tuple[float, float, float, float], ...]:
        """``(arrival, end, demand, weight)`` rows of the current schedule.

        The sanitizer's rate-conservation audit consumes this: demand is in
        capacity-seconds, so a feasible processor-sharing schedule never
        completes more demand inside a window than the window's length.
        """
        return tuple(sorted(
            (t.arrival, self._ends[t.seq], t.demand, t.weight)
            for t in self._transfers.values()))

    def _advance(self, target: float) -> None:
        """Integrate the frontier state forward to ``target`` (the next arrival);
        the completions crossed on the way become final."""
        last = self._drain(self._remaining, self._frontier, target)
        self._done_max_end = max(self._done_max_end, last)
        self._frontier = target

    def _drain(self, remaining: Dict[int, float], now: float, target: float) -> float:
        """Drain ``remaining`` from ``now`` toward ``target``; returns the last finish.

        The one breakpoint loop: :meth:`_advance` drains the frontier state
        to the next arrival, :meth:`_project` a scratch copy to infinity.
        Crossed completions land in the end cache (chronologically, so the
        last one — 0.0 if none — is the largest); a partial interval leaves
        ``remaining`` exactly at ``target``.  Per breakpoint this is the
        reference sweep's arithmetic: each active transfer drains at
        ``weight / sum(weights)`` of the line rate, tied transfers carry
        identical remaining-to-weight ratios and finish together, and a
        transfer running alone drains at exactly the full rate
        (``now + remaining``, the quiet-link case fast-forward relies on).
        """
        weights = self._weights
        last = 0.0
        while remaining:
            if len(remaining) == 1:
                # Sole active transfer: full line rate regardless of weight
                # (work conservation), and exact arithmetic.
                (solo_seq,) = remaining
                finish = self._end_time(now, remaining[solo_seq])
                if finish <= target:
                    del remaining[solo_seq]
                    self._ends[solo_seq] = last = now = finish
                    continue
                remaining[solo_seq] -= self._work(now, target)
                break
            total_weight = sum(weights[seq] for seq in remaining)
            ratios = {seq: left / weights[seq] for seq, left in remaining.items()}
            min_ratio = min(ratios.values())
            finish = self._end_time(now, min_ratio * total_weight)
            if finish <= target:
                done = [seq for seq, ratio in ratios.items() if ratio == min_ratio]
                for seq in list(remaining):
                    remaining[seq] -= min_ratio * weights[seq]
                for seq in done:
                    del remaining[seq]
                    self._ends[seq] = finish
                last = now = finish
            else:
                served = self._work(now, target)
                for seq in list(remaining):
                    remaining[seq] -= served * weights[seq] / total_weight
                break
        return last

    def _restore(self, position: int) -> None:
        """Set the live state to the one right after admission ``position - 1``
        (the empty timeline for ``position == 0``)."""
        if position == 0:
            self._frontier = 0.0
            self._remaining = {}
            self._done_max_end = 0.0
        else:
            remaining, self._done_max_end = self._snaps[position - 1]
            self._frontier = self._order[position - 1].arrival
            self._remaining = dict(remaining)

    def _reintegrate(self, position: int, insert: Optional[_FairTransfer] = None,
                     drop: Optional[Set[int]] = None) -> None:
        """Re-integrate the schedule from canonical slot ``position`` onwards.

        The one integration routine: an in-order arrival is the degenerate
        call with ``position == len(self._order)`` (nothing to rewind).
        Otherwise the state captured right after the admission preceding
        ``position`` is restored and the old suffix replays through the same
        :meth:`_advance` steps a fully in-order stream would take — admitting
        ``insert`` at ``position`` first, removing the transfers whose seq is
        in ``drop`` — so the rebuilt schedule (dict iteration order included)
        is bit-identical to a from-scratch resweep of the edited stream.
        Ends finalized before ``position`` are untouched.

        The replay **stops as soon as it is back on the old track**: once
        nothing is left to insert or drop and the rebuilt state equals the
        stored post-admission snapshot of the same transfer, every later
        snapshot, finalized end, projected end and ``busy_until`` is already
        right (equal state and equal later arrivals give an equal future),
        so the old tail stays as it is.  A call that neither inserts nor
        drops is a capacity change: the profile itself moved, so a
        momentarily equal state does not imply an equal future and the
        whole suffix is replayed.
        """
        order, keys, snaps = self._order, self._order_keys, self._snaps
        if position < len(order):
            self._restore(position)
        remaining = self._remaining
        cut_off = insert is not None or bool(drop)
        if insert is not None:
            self._advance(insert.arrival)
            remaining[insert.seq] = insert.demand
            order.insert(position, insert)
            keys.insert(position, (insert.arrival, insert.seq))
            snaps.insert(position, (dict(remaining), self._done_max_end))
            position += 1
        pending = len(drop) if drop else 0
        while position < len(order):
            later = order[position]
            if pending and later.seq in drop:
                del order[position], keys[position], snaps[position]
                pending -= 1
                continue
            self._advance(later.arrival)
            remaining[later.seq] = later.demand
            if cut_off and not pending:
                old_remaining, old_done_max_end = snaps[position]
                # Exact equality is the point: bit-equal state, bit-equal future.
                if (self._done_max_end == old_done_max_end  # simlint: disable=SIM004 -- bit-exact convergence test
                        and remaining == old_remaining
                        and list(remaining) == list(old_remaining)):
                    if position + 1 < len(order):
                        self._restore(len(order))
                    return
            snaps[position] = (dict(remaining), self._done_max_end)
            position += 1
        self._project()

    def _project(self) -> None:
        """Quote completions for the active set by draining a scratch copy.

        Writes (revised) ends for every transfer active at the frontier into
        the end cache; the saved frontier state is untouched, so the next
        arrival's :meth:`_advance` re-derives exactly these values on its
        way forward.  Completions within one busy period are chronological,
        so the last projected finish is the period's max end — what
        ``busy_until`` folds in.
        """
        last = self._drain(dict(self._remaining), self._frontier, math.inf)
        self._busy_until = max(self._done_max_end, last)


def build_timeline(resource: SharedResource) -> BaseResourceTimeline:
    """Construct the timeline class matching the resource's ``policy``."""
    if resource.policy == "fair":
        return FairShareTimeline(resource)
    return ResourceTimeline(resource)


class ResourcePool:
    """Named registry of per-resource timelines held by the engine."""

    def __init__(self, resources: Optional[Iterable[SharedResource]] = None):
        """Build timelines for ``resources`` (policy-dispatched per resource)."""
        self._timelines: Dict[str, BaseResourceTimeline] = {}
        self._sanitizer: Optional[SimSanitizer] = None
        self._observer: Optional["SimObserver"] = None
        for resource in resources or ():
            self.add(resource)

    def attach_sanitizer(self, sanitizer: Optional[SimSanitizer]) -> None:
        """Attach a sanitizer to every current and future timeline.

        ``None`` detaches — the hook-free plain-run configuration.
        """
        self._sanitizer = sanitizer
        for timeline in self._timelines.values():
            timeline.sanitizer = sanitizer

    def attach_observer(self, observer: Optional["SimObserver"]) -> None:
        """Attach an observer to every current and future timeline.

        ``None`` detaches — the hook-free unobserved configuration.
        """
        self._observer = observer
        for timeline in self._timelines.values():
            timeline.observer = observer

    def add(self, resource: SharedResource) -> BaseResourceTimeline:
        """Register a resource under its (unique) name; returns its timeline."""
        if resource.name in self._timelines:
            raise ValueError(f"duplicate resource name {resource.name!r}")
        timeline = build_timeline(resource)
        timeline.sanitizer = self._sanitizer
        timeline.observer = self._observer
        self._timelines[resource.name] = timeline
        return timeline

    def names(self) -> List[str]:
        """Sorted names of every registered resource."""
        return sorted(self._timelines)

    def __contains__(self, name: object) -> bool:
        """Whether a resource of that name is registered."""
        return name in self._timelines

    def get(self, name: str) -> Optional[BaseResourceTimeline]:
        """The named timeline, or ``None`` when unknown."""
        return self._timelines.get(str(name))

    def require(self, name: str) -> BaseResourceTimeline:
        """Validate a resource name at call time (like job/GPU names)."""
        timeline = self._timelines.get(str(name))
        if timeline is None:
            raise KeyError(f"unknown resource {name!r}; known: {self.names()}")
        return timeline

    def cancel_job(self, job: str, after_time: float) -> int:
        """Cancel (and re-flow) the job's pending transfers on every timeline."""
        return sum(timeline.cancel(job, after_time) for timeline in self._timelines.values())

    def perf_counters(self) -> Dict[str, int]:
        """Aggregated host-side work counters across the pool's timelines.

        ``fair_incremental_reserves`` counts fair-share arrivals integrated
        incrementally from the frontier; ``fair_rewind_reserves`` counts
        out-of-order arrivals served by a snapshot rewind;
        ``fair_full_resweeps`` counts re-integrations caused by a cancel or
        capacity change (suffix-only; the name is kept for the benchmark's
        ledger).  Pure observability: the counters never influence
        scheduling.
        """
        incremental = rewinds = resweeps = 0
        for timeline in self._timelines.values():
            if isinstance(timeline, FairShareTimeline):
                incremental += timeline.incremental_reserves
                rewinds += timeline.rewind_reserves
                resweeps += timeline.full_resweeps
        return {"fair_incremental_reserves": incremental,
                "fair_rewind_reserves": rewinds,
                "fair_full_resweeps": resweeps}

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Deterministic name-sorted plain-data summary of every timeline."""
        return {name: timeline.as_dict() for name, timeline in sorted(self._timelines.items())}
