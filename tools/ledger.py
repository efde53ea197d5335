#!/usr/bin/env python3
"""Print the benchmark ledger: every committed ``BENCH_<n>.json`` point side by side.

Usage::

    python tools/ledger.py BENCH_*.json

For each workload and each end-to-end metric that the repository's
``BENCHMARK.json`` declares, one line per report, in the order of ``<n>``:
the number of runs, the median, the spread (interquartile distance over
median, as ``bench/compare.py`` computes it) and the change of the median
against the previous point, signed so that ``+`` is better.  A report
without the workload prints ``-``.

Print only, exit code 0: the points were measured on different days, by
different builds, at different loads, so a change between two of them is a
reading, not a verdict (``bench/compare.py`` judges one pair of reports).
Traced ``.calls`` counters are not compared either: they are per-unit means
over a seed mix that depends on how many units fit in the run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def _point_number(path: Path) -> int:
    match = re.search(r"(\d+)", path.stem)
    return int(match.group(1)) if match else -1


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def ledger_lines(reports: Dict[str, dict], metrics: List[dict]) -> List[str]:
    """The ledger's lines for ``{label: report}`` (in series order) and the end-to-end ``metrics``."""
    workloads: List[str] = []
    for report in reports.values():
        workloads.extend(name for name in report["workloads"] if name not in workloads)
    lines = []
    for workload in workloads:
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            lines.append(f"{workload} {name} ({metric['unit']}, {'higher' if higher else 'lower'} is better)")
            previous: Optional[float] = None
            for label, report in reports.items():
                entry = report["workloads"].get(workload)
                values = [] if entry is None else [run["metrics"][name]["value"] for run in entry["runs"]]
                if not values:
                    lines.append(f"  {label:<10} -")
                    continue
                median = statistics.median(values)
                change = ""
                if previous:
                    delta = (median - previous) / previous
                    change = f"  {delta if higher else -delta:+7.1%} vs previous"
                lines.append(f"  {label:<10} n={len(values)}  median {median:>12.6g}  "
                             f"spread {spread(values):6.3f}{change}")
                previous = median
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", type=Path, help="BENCH_<n>.json reports of bench/run.py")
    args = parser.parse_args(argv)
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    reports = {}
    for path in sorted(args.reports, key=lambda path: (_point_number(path), path.name)):
        with open(path, encoding="utf-8") as handle:
            reports[path.stem] = json.load(handle)
    print("\n".join(ledger_lines(reports, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
