"""The profiling harness behind ``repro sim profile``.

:func:`profile_scenario` replays one scenario under :mod:`cProfile` and
returns a machine-readable report: wall-clock runtime, simulator throughput
(events and iterations per wall-clock second, from
``EventDrivenEngine.perf_counters``), the run's headline results and the
ranked hot functions — the ROADMAP "profile first, then attack the top
offenders" enabler.  Hot-function rows carry ``calls`` / ``tottime`` /
``cumtime`` exactly as :mod:`pstats` accounts them, sorted by the chosen
column.

This module is the one place in the simulator core allowed to read the wall
clock (explicitly suppressed per call site): profiling *measures host time by
definition*, and none of it feeds back into simulated time — the profiled
run's simulation results are the same as anyone else's.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Dict, List, Optional, Union

from .scenario import run_scenario

__all__ = ["profile_scenario", "diff_profiles"]

#: ``sort`` choices mapped to their pstats row column.
_SORT_COLUMNS = ("cumulative", "tottime", "calls")


def _hot_functions(profiler: cProfile.Profile, top: int, sort: str) -> List[Dict[str, object]]:
    """Rank the profiler's per-function rows; returns the ``top`` hottest.

    Ties (and the final ranking) are broken deterministically by the
    function's ``file:line:name`` string.
    """
    rows: List[Dict[str, object]] = []
    stats = pstats.Stats(profiler)
    for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) in stats.stats.items():
        rows.append({
            "function": f"{filename}:{line}:{name}",
            "calls": int(ncalls),
            "tottime": float(tottime),
            "cumtime": float(cumtime),
        })
    if sort == "calls":
        rows.sort(key=lambda row: (-row["calls"], row["function"]))  # type: ignore[operator]
    elif sort == "tottime":
        rows.sort(key=lambda row: (-row["tottime"], row["function"]))  # type: ignore[operator]
    else:
        rows.sort(key=lambda row: (-row["cumtime"], row["function"]))  # type: ignore[operator]
    return rows[:top]


def profile_scenario(scenario: Union[str, Dict[str, object]], top: int = 25,
                     sort: str = "cumulative",
                     default_policy: Optional[str] = None) -> Dict[str, object]:
    """Profile one scenario run; returns the machine-readable report.

    ``scenario`` is a spec dict or a path to a scenario JSON file (exactly
    what :func:`repro.sim.scenario.run_scenario` accepts); ``top`` bounds
    the hot-function list and ``sort`` ranks it (``"cumulative"``,
    ``"tottime"`` or ``"calls"``).  The report carries the profiled run's
    ``makespan`` and engine ``perf`` counters, the wall-clock
    ``wall_seconds``, the derived ``events_per_second`` /
    ``iterations_per_second`` throughput, and the ranked ``hot_functions``.
    Timing includes profiler overhead — compare profiled runs with profiled
    runs, and use ``benchmarks/`` for absolute numbers.
    """
    if sort not in _SORT_COLUMNS:
        raise ValueError(f"sort must be one of {_SORT_COLUMNS}, got {sort!r}")
    profiler = cProfile.Profile()
    begin = time.perf_counter()  # simlint: disable=SIM001 -- host-side profiling harness, never feeds sim time
    profiler.enable()
    try:
        report = run_scenario(scenario, default_policy=default_policy)
    finally:
        profiler.disable()
    wall_seconds = time.perf_counter() - begin  # simlint: disable=SIM001 -- host-side profiling harness, never feeds sim time

    perf = report.get("perf") if isinstance(report.get("perf"), dict) else {}
    events = float(perf.get("events_processed", 0) or 0)
    iterations = float(perf.get("iterations_simulated", 0) or 0)
    iterations += float(perf.get("iterations_fast_forwarded", 0) or 0)
    return {
        "scenario": scenario if isinstance(scenario, str) else "<inline>",
        "wall_seconds": wall_seconds,
        "events_per_second": events / wall_seconds if wall_seconds > 0 else 0.0,
        "iterations_per_second": iterations / wall_seconds if wall_seconds > 0 else 0.0,
        "makespan": report.get("makespan"),
        "num_jobs": report.get("num_jobs"),
        "perf": dict(perf),
        "sort": sort,
        "hot_functions": _hot_functions(profiler, int(top), sort),
    }


def diff_profiles(baseline: Dict[str, object], current: Dict[str, object]) -> Dict[str, object]:
    """Per-function regression table between two profile reports.

    ``baseline`` and ``current`` are :func:`profile_scenario` reports (the
    baseline typically loaded from a ``--out`` file of an earlier run).
    Every function appearing in either ``hot_functions`` list gets a row
    with its baseline/current ``cumtime``/``tottime``/``calls`` and their
    deltas, ranked worst-regression-first (``delta_cumtime`` descending) —
    so a before/after comparison of an optimization is one
    ``repro sim profile --baseline`` invocation.  Functions absent on one
    side count zero there and are flagged ``"new"``/``"gone"``.
    """
    base_rows = {str(row["function"]): row
                 for row in baseline.get("hot_functions", [])}  # type: ignore[union-attr]
    current_rows = {str(row["function"]): row
                    for row in current.get("hot_functions", [])}  # type: ignore[union-attr]
    functions: List[Dict[str, object]] = []
    for function in sorted(set(base_rows) | set(current_rows)):
        old, new = base_rows.get(function), current_rows.get(function)
        old_cum = float(old["cumtime"]) if old else 0.0
        new_cum = float(new["cumtime"]) if new else 0.0
        old_tot = float(old["tottime"]) if old else 0.0
        new_tot = float(new["tottime"]) if new else 0.0
        old_calls = int(old["calls"]) if old else 0
        new_calls = int(new["calls"]) if new else 0
        functions.append({
            "function": function,
            "status": "new" if old is None else ("gone" if new is None else "common"),
            "baseline_cumtime": old_cum, "cumtime": new_cum,
            "delta_cumtime": new_cum - old_cum,
            "baseline_tottime": old_tot, "tottime": new_tot,
            "delta_tottime": new_tot - old_tot,
            "baseline_calls": old_calls, "calls": new_calls,
            "delta_calls": new_calls - old_calls,
        })
    functions.sort(key=lambda row: (-row["delta_cumtime"], row["function"]))  # type: ignore[operator]
    old_wall = float(baseline.get("wall_seconds", 0.0) or 0.0)
    new_wall = float(current.get("wall_seconds", 0.0) or 0.0)
    return {
        "baseline_scenario": baseline.get("scenario"),
        "scenario": current.get("scenario"),
        "baseline_wall_seconds": old_wall,
        "wall_seconds": new_wall,
        "delta_wall_seconds": new_wall - old_wall,
        "wall_ratio": (new_wall / old_wall) if old_wall > 0 else None,
        "functions": functions,
    }
