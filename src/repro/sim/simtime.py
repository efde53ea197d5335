"""Tolerance helpers for comparing simulated timestamps.

Simulated times are floats accumulated through long chains of additions
(event times, bucket ends, fair-share sweeps), so two quantities that are
*semantically* equal can differ in the last ulp.  Exact ``==`` on such
values is a latent heisenbug — SimLint's SIM004 rule forbids it inside the
simulator core and points here instead.

The sanctioned exceptions are where *bit-exact* equality is the contract —
the fast-forward replay check in ``engine.py`` (a cached iteration may only
be replayed when it reproduces the live run exactly) and the live loop's
``(time, seq)`` merge that must order events as the event heap did — and
each ``==`` carries a justified inline suppression.
"""

from __future__ import annotations

import math

__all__ = ["TIME_EPS", "times_close"]

#: Default absolute tolerance for simulated-time comparison, in simulated
#: seconds.  Sim times in this repo are O(1e0..1e5) seconds built from
#: O(1e-6..1e0) increments; 1e-9 s is far below any modeled duration yet far
#: above accumulated double rounding error for those magnitudes.
TIME_EPS: float = 1e-9

#: Relative tolerance guard for very large timestamps (abs tol alone would
#: be too strict once times exceed ~1e7 seconds).
TIME_REL: float = 1e-12


def times_close(a: float, b: float, *, eps: float = TIME_EPS) -> bool:
    """Whether two simulated timestamps are equal up to tolerance."""
    return math.isclose(a, b, rel_tol=TIME_REL, abs_tol=eps)

