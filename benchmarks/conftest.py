"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index) on the scaled synthetic workloads.  The experiment scale
can be raised with ``REPRO_BENCH_SCALE=small`` for longer, closer-to-paper
runs; the default ``tiny`` keeps the whole suite in the minutes range.
"""

import os
import sys
from pathlib import Path

import pytest

# The slow, obviously-right formulations live under tests/oracles/; benchmarks
# that build a "before" side from them import ``oracles`` like the tests do.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def scale() -> str:
    """Workload scale for the experiment harnesses ("tiny" or "small")."""
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


def print_rows(title, rows, keys=None):
    """Pretty-print a list of dict rows below the benchmark output."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = keys or list(rows[0].keys())
    header = " | ".join(f"{k:>18}" for k in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.4f}")
            else:
                cells.append(f"{str(value):>18}")
        print(" | ".join(cells))
