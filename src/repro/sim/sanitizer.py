"""SimSan: a TSan-style runtime invariant sanitizer for the simulator core.

SimLint (``tools/simlint``) statically forbids the *code patterns* that break
determinism; SimSan checks the *runtime invariants* the engine's headline
guarantees rest on, on every event, while the simulation runs:

* **causality** — no event is dequeued before the domain's current clock
  (one clock per domain: the engine's relative event loop, the scheduler's
  absolute heap);
* **non-negative durations** — no compute segment or reserved window runs
  backwards in time;
* **monotone ``busy_until``** — a reservation never moves a timeline's busy
  horizon backwards (cancellation legitimately may: it resynchronizes the
  watermark through :meth:`SimSanitizer.note_cancelled`);
* **byte conservation** — every byte quoted at ``reserve()`` time is present
  in the timeline's audited records, through cancel/re-flow included;
* **fair-share rate conservation** — a processor-sharing schedule never
  completes more capacity-seconds inside a window than the window holds
  (i.e. the sum of active rates never exceeds capacity);
* **fast-forward/live divergence** — a deterministic cadence of memoized
  replays is re-simulated live on shadow timelines and compared field for
  field against the cached entry.

Violations raise a :class:`SanitizerError` subclass carrying the recent
event-provenance trace, so the report names the events that led up to the
corruption rather than just the corrupted value.

Enable it with ``EventDrivenEngine(sanitize=True)`` or ``REPRO_SIMSAN=1``
(the env var is how CI runs the whole tier-1 suite sanitized).  Sanitized
runs are bit-identical to plain runs — every check is read-only and the
spot checks run on deep-copied shadow state with the perf counters saved
and restored.  See ``docs/correctness.md`` for the invariant catalog.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from .simtime import TIME_EPS

__all__ = [
    "SanitizerError",
    "CausalityViolation",
    "NegativeDurationViolation",
    "MonotonicityViolation",
    "ByteConservationViolation",
    "RateConservationViolation",
    "FastForwardDivergence",
    "SimSanitizer",
    "sanitize_from_env",
]

#: Environment variable that switches the sanitizer on for every engine.
ENV_FLAG = "REPRO_SIMSAN"


class SanitizerError(RuntimeError):
    """An engine invariant was violated at runtime.

    ``provenance`` is the trailing window of sanitizer-observed events
    (most recent last) at the moment of the violation; it is rendered into
    the message so a bare traceback already shows the lead-up.
    """

    def __init__(self, message: str, provenance: Tuple[Dict[str, object], ...] = ()):
        """Build the error; ``provenance`` is the recent-event window."""
        self.provenance = provenance
        if provenance:
            tail = "\n".join(f"    {event}" for event in provenance[-8:])
            message = f"{message}\n  recent events (most recent last):\n{tail}"
        super().__init__(message)


class CausalityViolation(SanitizerError):
    """An event was dequeued before the domain's current clock."""


class NegativeDurationViolation(SanitizerError):
    """A segment or occupancy window has negative duration."""


class MonotonicityViolation(SanitizerError):
    """A reservation moved a timeline's ``busy_until`` backwards."""


class ByteConservationViolation(SanitizerError):
    """A timeline's audited bytes disagree with the quoted bytes."""


class RateConservationViolation(SanitizerError):
    """A fair-share schedule exceeds the resource's capacity in a window."""


class FastForwardDivergence(SanitizerError):
    """A memoized replay disagrees with a live re-simulation."""


def sanitize_from_env() -> bool:
    """Whether ``REPRO_SIMSAN`` asks for sanitized engines."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in ("", "0", "false", "no")


class SimSanitizer:
    """Runtime invariant checker the engine, scheduler and timelines hook into.

    One sanitizer instance is shared by an engine, its resource pool and any
    scheduler driving it.  All checks are read-only with respect to simulator
    state; the sanitizer's own state is per-domain clocks, a per-resource
    byte ledger and ``busy_until`` watermark, and a bounded provenance ring.

    Parameters
    ----------
    spot_check_every:
        Cadence of fast-forward divergence spot checks: every Nth memoized
        replay is re-simulated live on shadow timelines and compared.  The
        default keeps sanitized Table 1 runs within the 2x overhead budget;
        1 re-checks every replay (mutation tests), 0 disables spot checks.
    max_provenance:
        Length of the recent-event window carried by raised errors.
    """

    def __init__(self, spot_check_every: int = 32, max_provenance: int = 64):
        """Start with empty clocks, ledgers and provenance."""
        if spot_check_every < 0:
            raise ValueError("spot_check_every must be >= 0 (0 disables)")
        self.spot_check_every = int(spot_check_every)
        self._clocks: Dict[str, float] = {}
        #: resource name -> net bytes quoted through reserve()/cancel().
        self._ledger: Dict[str, int] = {}
        #: resource name -> last observed busy_until (reserve-to-reserve).
        self._watermark: Dict[str, float] = {}
        self._fast_forwards = 0
        self._events: Deque[Dict[str, object]] = deque(maxlen=int(max_provenance))
        #: Running totals, surfaced for tests/debugging.
        self.checks_performed = 0
        self.spot_checks_performed = 0

    # ------------------------------------------------------------------ #
    # Provenance
    # ------------------------------------------------------------------ #
    def note(self, kind: str, **info: object) -> None:
        """Append one observed event to the provenance ring."""
        entry: Dict[str, object] = {"kind": kind}
        entry.update(info)
        self._events.append(entry)

    def provenance(self) -> Tuple[Dict[str, object], ...]:
        """Snapshot of the recent-event window (most recent last)."""
        return tuple(self._events)

    def _raise(self, error_class: type, message: str) -> None:
        raise error_class(message, self.provenance())

    # ------------------------------------------------------------------ #
    # Causality clocks
    # ------------------------------------------------------------------ #
    def reset_clock(self, domain: str, time: float = 0.0) -> None:
        """(Re)anchor a domain's clock — e.g. each engine iteration at 0."""
        self._clocks[domain] = float(time)

    def check_event(self, domain: str, time: float, kind: str, **info: object) -> None:
        """Assert an event dequeued in ``domain`` does not precede its clock."""
        self.checks_performed += 1
        clock = self._clocks.get(domain)
        self.note("event", domain=domain, time=time, event=kind, **info)
        if clock is not None and time < clock - TIME_EPS:
            self._raise(CausalityViolation,
                        f"{domain}: event {kind!r} dequeued at t={time!r} before "
                        f"the current clock t={clock!r}")
        self._clocks[domain] = max(clock if clock is not None else time, time)

    # ------------------------------------------------------------------ #
    # Durations
    # ------------------------------------------------------------------ #
    def check_duration(self, seconds: float, context: str) -> None:
        """Assert a scheduled duration is non-negative."""
        self.checks_performed += 1
        if seconds < -TIME_EPS:
            self._raise(NegativeDurationViolation,
                        f"negative duration {seconds!r} for {context}")

    # ------------------------------------------------------------------ #
    # Timeline hooks (called by resources.py on reserve/cancel)
    # ------------------------------------------------------------------ #
    def note_reserve(self, timeline: object, earliest_start: float, start: float,
                     end: float, seconds: float, num_bytes: int,
                     job: Optional[str], kind: str) -> None:
        """Validate one committed reservation and feed the byte ledger."""
        name = timeline.resource.name
        self.note("reserve", resource=name, start=start, end=end,
                  num_bytes=num_bytes, job=job, transfer=kind)
        self.checks_performed += 1
        if seconds < -TIME_EPS or end < start - TIME_EPS:
            self._raise(NegativeDurationViolation,
                        f"resource {name!r}: reserved window [{start!r}, {end!r}] "
                        f"({seconds!r}s) for job {job!r} has negative duration")
        if start < earliest_start - TIME_EPS:
            self._raise(CausalityViolation,
                        f"resource {name!r}: window for job {job!r} starts at "
                        f"{start!r}, before its own request time {earliest_start!r}")
        busy = timeline.busy_until
        watermark = self._watermark.get(name, 0.0)
        if busy < watermark - TIME_EPS:
            self._raise(MonotonicityViolation,
                        f"resource {name!r}: busy_until moved backwards on reserve "
                        f"({watermark!r} -> {busy!r})")
        self._watermark[name] = busy
        self._ledger[name] = self._ledger.get(name, 0) + int(num_bytes)

    def note_cancel(self, timeline: object, job: str, after_time: float) -> None:
        """Debit the ledger for the windows a cancellation is about to drop."""
        name = timeline.resource.name
        removed = sum(r.num_bytes for r in timeline.records
                      if r.job == job and r.start >= after_time)
        self.note("cancel", resource=name, job=job, after_time=after_time,
                  removed_bytes=removed)
        self._ledger[name] = self._ledger.get(name, 0) - removed

    def note_cancelled(self, timeline: object) -> None:
        """Resync after a cancel: re-flow may legally shrink ``busy_until``."""
        name = timeline.resource.name
        self._watermark[name] = timeline.busy_until
        self.verify_timeline(timeline)

    def note_capacity(self, timeline: object, at_time: float, old_gbps: float,
                      new_gbps: float) -> None:
        """Resync after a ``set_capacity``: the open busy period re-quoted.

        A capacity *increase* may legally shrink ``busy_until`` (remaining
        transfers finish sooner), so the watermark resynchronizes like after
        a cancel; payload bytes are untouched, so the byte ledger must still
        balance — :meth:`verify_timeline` asserts it immediately.
        """
        name = timeline.resource.name
        self.note("set_capacity", resource=name, at_time=at_time,
                  old_gbps=old_gbps, new_gbps=new_gbps)
        self._watermark[name] = timeline.busy_until
        self.verify_timeline(timeline)

    # ------------------------------------------------------------------ #
    # Timeline audits
    # ------------------------------------------------------------------ #
    def verify_timeline(self, timeline: object) -> None:
        """Audit one timeline: window sanity, byte and rate conservation."""
        name = timeline.resource.name
        self.checks_performed += 1
        max_end = 0.0
        for record in timeline.records:
            if record.end < record.start - TIME_EPS:
                self._raise(NegativeDurationViolation,
                            f"resource {name!r}: committed window "
                            f"[{record.start!r}, {record.end!r}] for job "
                            f"{record.job!r} has negative duration")
            max_end = max(max_end, record.end)
        if timeline.busy_until < max_end - TIME_EPS:
            self._raise(MonotonicityViolation,
                        f"resource {name!r}: busy_until={timeline.busy_until!r} "
                        f"is behind the latest committed window end {max_end!r}")
        audited = timeline.total_bytes()
        quoted = self._ledger.get(name)
        if quoted is not None and audited != quoted:
            self._raise(ByteConservationViolation,
                        f"resource {name!r}: audited bytes {audited} != quoted "
                        f"bytes {quoted} (windows dropped or duplicated)")
        schedule = getattr(timeline, "transfer_schedule", None)
        if schedule is not None:
            profile = getattr(timeline, "capacity_profile", None)
            self._verify_fair_rates(name, schedule(),
                                    profile() if profile is not None else ())

    @staticmethod
    def _profile_capacity(profile: Tuple[Tuple[float, float], ...],
                          start: float, end: float) -> float:
        """Nominal capacity-seconds a resource serves over ``[start, end]``.

        ``profile`` is the timeline's ``(at_time, factor-of-nominal)`` change
        log; the factor is 1.0 before the first change point.  The integral
        of the piecewise-constant factor bounds how much fair-share demand
        can legally complete inside the window.
        """
        if end <= start:
            return 0.0
        capacity = 0.0
        time = start
        factor = 1.0
        for at_time, new_factor in profile:
            if at_time <= start:
                factor = new_factor
                continue
            if at_time >= end:
                break
            capacity += (at_time - time) * factor
            time = at_time
            factor = new_factor
        capacity += (end - time) * factor
        return capacity

    def _verify_fair_rates(self, name: str,
                           schedule: Tuple[Tuple[float, float, float, float], ...],
                           profile: Tuple[Tuple[float, float], ...] = ()) -> None:
        """Feasibility check of a processor-sharing schedule.

        Capacity-seconds are conserved iff for every window ``[S, T]`` the
        total demand of transfers that both arrive at/after ``S`` and
        complete by ``T`` fits in the capacity the window holds — ``T - S``
        at nominal rate, or the integral of the capacity ``profile`` when
        mid-run ``set_capacity`` changes degraded/restored the resource —
        otherwise the active rates summed past the line rate somewhere
        inside the window.  Candidate ``S`` are arrival times (down-sampled
        deterministically on huge schedules), candidate ``T`` every
        completion.
        """
        if not schedule:
            return
        by_end = sorted(schedule, key=lambda t: (t[1], t[0]))
        arrivals = sorted({t[0] for t in schedule})
        if len(arrivals) > 128:
            stride = len(arrivals) // 128 + 1
            arrivals = arrivals[::stride]
        for start_bound in arrivals:
            demand_inside = 0.0
            for arrival, end, demand, _weight in by_end:
                if arrival < start_bound:
                    continue
                demand_inside += demand
                if profile:
                    window = self._profile_capacity(profile, start_bound, end)
                else:
                    window = end - start_bound
                if demand_inside > window * (1.0 + 1e-9) + TIME_EPS:
                    self._raise(RateConservationViolation,
                                f"resource {name!r}: {demand_inside!r} capacity-"
                                f"seconds completed inside [{start_bound!r}, "
                                f"{end!r}] ({window!r} capacity-seconds) — "
                                f"active rates exceed capacity")

    def verify_pool(self, pool: object) -> None:
        """Audit every timeline in a resource pool (end-of-run check)."""
        for name in pool.names():
            self.verify_timeline(pool.get(name))

    # ------------------------------------------------------------------ #
    # Fast-forward divergence
    # ------------------------------------------------------------------ #
    def should_spot_check(self) -> bool:
        """Deterministic cadence: True on every Nth memoized replay."""
        if self.spot_check_every <= 0:
            return False
        self._fast_forwards += 1
        return self._fast_forwards % self.spot_check_every == 0

    def check_fast_forward(self, cached: object, live: object, **info: object) -> None:
        """Compare a cached fast-forward entry against a live re-simulation."""
        self.spot_checks_performed += 1
        self.note("spot_check", **info)
        if cached == live:
            return
        differing = []
        for field_name in cached.__dataclass_fields__:
            cached_value = getattr(cached, field_name)
            live_value = getattr(live, field_name)
            if cached_value != live_value:
                differing.append(f"{field_name}: cached={cached_value!r} "
                                 f"live={live_value!r}")
        details = "; ".join(differing) or "entries differ"
        self._raise(FastForwardDivergence,
                    f"memoized replay diverges from live re-simulation "
                    f"({details})")
