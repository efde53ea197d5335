"""Outside-in span tracer for the benchmark's traced pass.

The benchmark touches nothing under ``src/``: per-layer numbers come from
wrapping each layer's *public* functions from here.  A span is
``[name, start, end, parent]``; spans are kept in memory, one list per unit
of work, and reduced after the unit ends.  A layer's **self time** is its
span's duration minus the part of it covered by child spans, so the self
times of one unit add up to the wall time of its root spans.

A call that re-enters the layer it is already in (``AdamW.step`` calling
``Adam.step``, ``ResourcePool.cancel_job`` calling ``timeline.cancel``) is
folded into the open span, so ``calls`` counts entries into a layer, not
Python frames.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

#: Root span around the region a workload's end-to-end metric is timed over.
TIMED = "bench.timed"
#: Root span around the per-unit set-up (builders, scenario construction).
SETUP = "bench.setup"

Span = List[object]  # [name, start, end, parent index or -1]


class Region:
    """``with tracer.region(name) as r`` — times a block; a span when tracing."""

    __slots__ = ("_tracer", "_name", "_start", "seconds")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self.seconds = 0.0

    def __enter__(self) -> "Region":
        if self._tracer.active:
            self._tracer.open(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = perf_counter() - self._start
        if self._tracer.active:
            self._tracer.close()


class Tracer:
    """Records spans around patched callables while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> None:
        stack = self._stack
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(len(self.spans) - 1)
        self.spans[-1][1] = perf_counter()

    def close(self) -> None:
        end = perf_counter()
        self.spans[self._stack.pop()][2] = end

    def region(self, name: str) -> Region:
        return Region(self, name)

    def take(self) -> List[Span]:
        """Hand over the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("take() with spans still open")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def install(self, targets: Iterable[Tuple[object, str, str]]) -> None:
        """Patch ``(owner, attribute, span name)`` targets and start recording.

        A class owner is patched wherever it or a subclass defines the
        attribute, so overrides (``SGD.step``, ``FairShareTimeline.reserve``)
        are covered; a module owner has its global rebound.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name in targets:
            for holder in _holders(owner, attribute):
                original = holder.__dict__[attribute]
                if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"cannot trace {holder!r}.{attribute}")
                setattr(holder, attribute, self._wrap(original, name))
                self._patched.append((holder, attribute, original))
        self.active = True

    def uninstall(self) -> None:
        """Restore every patched attribute and stop recording."""
        while self._patched:
            holder, attribute, original = self._patched.pop()
            setattr(holder, attribute, original)
        self.active = False


def _holders(owner: object, attribute: str) -> List[object]:
    if not isinstance(owner, type):
        return [owner]
    found, pending, seen = [], [owner], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attribute in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    if not found:
        raise AttributeError(f"{owner!r} and its subclasses define no {attribute!r}")
    return found


# ---------------------------------------------------------------------- #
# Reduction
# ---------------------------------------------------------------------- #
def self_times(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name ``(self seconds, calls)`` of one unit's spans."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, seconds in zip(spans, own):
        name = span[0]
        busy[name] = busy.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + 1
    return busy, calls


def durations_by_parent(spans: List[Span], name: str, parent_name: str) -> List[List[float]]:
    """Durations of ``name`` spans grouped by their enclosing ``parent_name`` span, in order."""
    groups: Dict[int, List[float]] = {}
    for index, span in enumerate(spans):
        if span[0] == parent_name:
            groups[index] = []
    for span in spans:
        if span[0] == name and span[3] in groups:
            groups[span[3]].append(span[2] - span[1])
    return [groups[index] for index in sorted(groups)]


def write_chrome_trace(spans: List[Span], path: str, process: str) -> None:
    """Write spans as Chrome ``trace_event`` JSON (Perfetto, ``tools/check_trace.py``)."""
    origin = spans[0][1] if spans else 0.0
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": process}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "main"}},
    ]
    for index, (name, start, end, parent) in enumerate(spans):
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
                       "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                       "args": {"id": index, "parent": parent}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
