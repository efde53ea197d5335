"""Host time in *calibrated* seconds.

A shared sandbox runs the same code 20-50 % slower for seconds to minutes at
a time (a busy neighbour on the physical core); no statistic over one run's
own samples removes that, it moves every sample of the run.  So every timed
region is bracketed by a fixed reference kernel (:func:`spin`) and its
duration divided by the machine's momentary slowdown:

    calibrated seconds = measured seconds x NOMINAL_SPIN_S / spin seconds

The kernel uses numpy and plain Python only — nothing of the program under
test — so a change to the program moves the measured seconds and not the
divisor.  Disk time is not calibrated; the workloads keep file I/O out of
their timed regions where the program allows.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Tuple

import numpy as np

from tracer import TIMED, Tracer

#: What one :func:`spin` pass takes on the reference box in its usual state;
#: it only fixes the scale (a calibrated second is 250 passes).
NOMINAL_SPIN_S = 0.004
#: A bracket sample older than this is taken again.
_FRESH_S = 0.05

_MATRIX = np.random.default_rng(0).standard_normal((48, 48)).astype(np.float32)


def _spin_once() -> float:
    """Half small-matrix numpy ops (the trainer's mix), half interpreter work (the simulator's)."""
    start = perf_counter()
    x = _MATRIX
    for _ in range(330):
        x = np.maximum(x @ _MATRIX * 0.01, 0.0) + 1.0
    table, total = {}, 0.0
    for i in range(20_000):
        table[i & 255] = total
        total += (i * 0.5) % 7.0
    return perf_counter() - start


def spin() -> float:
    """Median of three passes of the reference kernel, in seconds."""
    return statistics.median(_spin_once() for _ in range(3))


class Clock:
    """Times callables in calibrated seconds; a TIMED span when tracing."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._samples = []
        self._sampled_at = float("-inf")

    def _sample(self) -> float:
        self._samples.append(spin())
        self._sampled_at = perf_counter()
        return self._samples[-1]

    def _bracket(self) -> float:
        if perf_counter() - self._sampled_at > _FRESH_S:
            return self._sample()
        return self._samples[-1]

    def typical_slowdown(self) -> float:
        """Median slowdown over the run's samples (1.0 = the reference box)."""
        return statistics.median(self._samples or [self._sample()]) / NOMINAL_SPIN_S

    def measure(self, fn: Callable, *args) -> Tuple[object, float]:
        """``fn(*args)`` inside a TIMED region: ``(result, calibrated seconds)``."""
        before = self._bracket()
        with self.tracer.region(TIMED) as region:
            result = fn(*args)
        after = self._sample()
        return result, region.seconds * 2.0 * NOMINAL_SPIN_S / (before + after)
