"""Parallel scenario sweeps: a parameter grid fanned across worker processes.

The cluster simulator answers *what-if* questions — what happens to makespan
when the core fabric is oversubscribed, when the discipline flips to fair
share, when a job's placement changes?  Answering them well means running the
same scenario many times with one knob turned, which is embarrassingly
parallel.  This module makes that a first-class, reproducible artifact: a
*sweep* is a plain-JSON description of a base scenario plus a parameter grid,
and :func:`run_sweep` (the ``repro sim sweep`` CLI subcommand) expands the
grid into independent *cells*, runs each cell's scenario through
:func:`~repro.sim.scenario.run_scenario` — serially or across a
``multiprocessing`` pool — and merges the per-cell reports into one
deterministic result table.

Sweep schema::

    {
      "scenario":      { ... },            # inline base scenario ...
      "scenario_file": "scenario.json",    # ... or a path relative to the sweep file
      "grid": {
        "cluster.core_gbps": [0.5, 1.0, 2.0, 4.0],   # dotted path -> values
        "placement": ["tor_pack", "round_robin"],
        "jobs.0.num_workers": [2, 4]
      },
      "workers": 2,                        # default pool size (CLI --workers wins)
      "seed": 0                            # base seed; cell i is labelled seed + i
    }

Grid keys are dotted paths into the scenario dict; integer components index
into lists (``jobs.0.num_workers``).  Cells are the cartesian product of the
grid values in *key insertion order* (the last key varies fastest), each with
a per-cell seed (``seed + cell index``) — so the cell list, the per-cell
results and the merged table are identical no matter how many workers ran
them or in which order they finished.  The parallel and serial paths produce
byte-identical output (asserted by the sweep test suite and CI's
``sweep-smoke`` step); workers only buy wall-clock time.

A cell's ``seed`` is a label: the scheduler draws nothing at random and does
not read it.  To vary a stochastic fault stream across cells, put
``faults.seed`` in the grid.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing
import os
from typing import Dict, List, Optional, Tuple, Union

from .scenario import _check_keys, _read_spec, run_scenario

__all__ = ["expand_grid", "build_cells", "run_sweep"]

_SWEEP_KEYS = {"scenario", "scenario_file", "grid", "workers", "seed"}

#: Keys of the full per-cell scenario report kept in the merged table.  The
#: cluster description and trace sizes are identical across cells (or
#: implied by the overrides) and would bloat the merged JSON.
_CELL_RESULT_KEYS = ("makespan", "jobs", "utilization", "resources", "perf")


def _apply_override(spec: Dict, dotted_path: str, value: object) -> None:
    """Set ``dotted_path`` (e.g. ``cluster.core_gbps``, ``jobs.0.policy``) in place.

    Intermediate dict levels are created on demand (overriding
    ``cluster.core_gbps`` must work even when the base scenario omits the
    ``cluster`` section entirely); list indices must already exist — a sweep
    cannot invent a job that is not in the base scenario.
    """
    parts = dotted_path.split(".")
    node: object = spec
    for position, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            if part not in node:
                node[part] = {}
            node = node[part]
        if not isinstance(node, (dict, list)):
            prefix = ".".join(parts[: position + 2])
            raise ValueError(f"grid path {dotted_path!r}: {prefix!r} is not a dict or list")
    leaf = parts[-1]
    if isinstance(node, list):
        node[int(leaf)] = value
    else:
        node[leaf] = value


def expand_grid(grid: Dict[str, List]) -> List[Dict[str, object]]:
    """Cartesian product of the grid, one ``{dotted path: value}`` per cell.

    Cells come in row-major order over the grid's *insertion* order (the
    last listed key varies fastest) — the deterministic cell indexing the
    per-cell seeds and the merged table rely on.
    """
    if not grid:
        raise ValueError("sweep grid is empty")
    keys = list(grid)
    value_lists = []
    for key in keys:
        values = grid[key]
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"grid key {key!r} needs a non-empty list of values")
        value_lists.append(list(values))
    return [dict(zip(keys, combo)) for combo in itertools.product(*value_lists)]


def _resolve_base(sweep: Dict, base_dir: Optional[str] = None) -> Tuple[Dict, int]:
    """The sweep's base scenario (inline or loaded) and its base seed."""
    _check_keys(sweep, _SWEEP_KEYS, "sweep")
    has_inline = sweep.get("scenario") is not None
    has_file = sweep.get("scenario_file") is not None
    if has_inline == has_file:
        raise ValueError("give exactly one of 'scenario' or 'scenario_file'")
    if has_file:
        path = str(sweep["scenario_file"])
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        base_scenario = _read_spec(path)
    else:
        base_scenario = sweep["scenario"]
    base_seed = int(sweep.get("seed", base_scenario.get("seed", 0)))
    return base_scenario, base_seed


def build_cells(sweep: Dict, base_dir: Optional[str] = None) -> List[Dict[str, object]]:
    """Expand a sweep spec into fully-resolved cells, ready to run.

    Each cell is ``{"index", "params", "seed", "scenario"}`` where
    ``scenario`` is a deep copy of the base scenario with the cell's
    overrides and per-cell seed (``base seed + cell index``) applied.
    ``base_dir`` anchors a relative ``scenario_file`` (the sweep file's own
    directory in the CLI).
    """
    base_scenario, base_seed = _resolve_base(sweep, base_dir)
    cells: List[Dict[str, object]] = []
    for index, params in enumerate(expand_grid(dict(sweep.get("grid") or {}))):
        scenario = copy.deepcopy(base_scenario)
        for dotted_path, value in params.items():
            _apply_override(scenario, dotted_path, value)
        scenario["seed"] = base_seed + index
        cells.append({"index": index, "params": params, "seed": base_seed + index,
                      "scenario": scenario})
    return cells


def _run_cell(cell: Dict[str, object]) -> Dict[str, object]:
    """Run one cell's scenario to its merged-table row (must stay picklable).

    When the base scenario (or a grid override) enables ``observe``, the
    cell's SimScope metrics *summary* rides along as a ``"metrics"`` key —
    compact per-metric statistics, not the full time-series, so the merged
    table stays small.  Metrics are sim-time-derived and therefore identical
    no matter how many workers ran the sweep.
    """
    report = run_scenario(cell["scenario"])
    row: Dict[str, object] = {"index": cell["index"], "params": cell["params"],
                              "seed": cell["seed"]}
    for key in _CELL_RESULT_KEYS:
        row[key] = report[key]
    if "metrics" in report:
        row["metrics"] = report["metrics"]
    return row


def run_sweep(sweep: Union[str, Dict], workers: Optional[int] = None) -> Dict[str, object]:
    """Run every cell of a sweep (dict or path to a JSON file); merge results.

    ``workers`` overrides the spec's pool size (1 = serial, in-process).
    The merged output is **independent of the worker count** (it is not even
    recorded in it): cells are deterministic, carry their own seeds, and are
    merged in cell order no matter which process finished first.  Returns::

        {"grid": ..., "num_cells": N, "cells": [row, ...]}

    where each row holds the cell's ``params``, ``seed``, ``makespan``,
    per-job records, utilization, per-resource occupancy and engine perf
    counters.  The row's ``seed`` labels the cell and changes nothing it
    runs; a grid over ``faults.seed`` varies a stochastic fault stream.
    Parallel sweeps build their own pool and reap it before returning.
    """
    base_dir = os.path.dirname(os.path.abspath(sweep)) if isinstance(sweep, str) else None
    spec = _read_spec(sweep)
    cells = build_cells(spec, base_dir)
    pool_size = int(workers if workers is not None else spec.get("workers", 1))
    if pool_size < 1:
        raise ValueError("workers must be at least 1")
    pool_size = min(pool_size, len(cells))

    if pool_size == 1:
        rows = [_run_cell(cell) for cell in cells]
    else:
        # fork shares the already-imported interpreter state (cheap start,
        # identical module versions); spawn is the fallback where fork does
        # not exist.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        pool = multiprocessing.get_context(method).Pool(pool_size)
        try:
            # pool.map returns results in cell order regardless of completion
            # order, which keeps the merged table deterministic.
            rows = pool.map(_run_cell, cells)
        finally:
            # close/join, never terminate: a worker that exits normally runs
            # its exit hooks (tools/linecov.py writes its per-process file
            # from one).
            pool.close()
            pool.join()

    return {
        "grid": dict(spec.get("grid") or {}),
        "num_cells": len(cells),
        "cells": rows,
    }
