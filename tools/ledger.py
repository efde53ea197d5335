#!/usr/bin/env python3
"""Print the benchmark ledger: the chain of paired ``AB_<n>.json`` reports, or
the ``BENCH_<n>.json`` points side by side.

Usage::

    python tools/ledger.py AB_*.json
    python tools/ledger.py BENCH_*.json

**A/B chain.**  ``tools/abtest.py`` writes one ``AB_<n>.json`` per change:
paired runs of a base commit against the change.  The ledger first checks
that the reports form a chain: each report's base is the commit that added
the report before it, or a descendant of that commit that changes nothing
under ``src/``, ``bench/`` or ``tools/`` (a documentation-only re-anchor).
Any other base is a gap, named on a ``GAP:`` line, and the exit code is 1.
Then, for each workload and each end-to-end metric that the repository's
``BENCHMARK.json`` declares, one line per report: the median over the pairs
of ``head / base - 1``, the product of those steps from the first report
(``chained``), and the verdict of :func:`tools.abtest.verdict` on the pairs
(today's rule, also for reports written under an older one).  The changes
are raw, not signed by direction; the header line says which way is better.

**BENCH points.**  For each workload and metric, one line per report, in
the order of ``<n>``: the number of runs, the median, the spread
(interquartile distance over median, as ``bench/compare.py`` computes it)
and the change of the median against the previous point, signed so that
``+`` is better.  A report without the workload prints ``-``.  Print only,
exit code 0: the points were measured on different days, by different
builds, at different loads, so a change between two of them is a reading,
not a verdict (``bench/compare.py`` judges one pair of reports).  Traced
``.calls`` counters are not compared either: they are per-unit means over a
seed mix that depends on how many units fit in the run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))  # run as a script: make ``tools`` importable

from tools.abtest import verdict  # noqa: E402

#: The trees a re-anchor between two A/B reports must leave unchanged.
MEASURED_TREES = ("src", "bench", "tools")


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


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def git_links(commit: str, path: str) -> Dict[str, object]:
    """What :func:`chain_lines` asks git: the commit that added ``path`` (``None``
    when uncommitted) and whether ``commit`` descends from it with
    :data:`MEASURED_TREES` unchanged."""
    added = _git("log", "--diff-filter=A", "--format=%H", "--", path).stdout.split()
    adder = added[-1] if added else None
    reanchor = bool(adder) and _git("merge-base", "--is-ancestor", adder, commit).returncode == 0 \
        and _git("diff", "--quiet", adder, commit, "--", *MEASURED_TREES).returncode == 0
    return {"adder": adder, "reanchor": reanchor}


def chain_lines(reports: Dict[str, dict],
                links: Callable[[str, str], Dict[str, object]]) -> List[str]:
    """One ``chain:`` line per report of ``{path: report}`` (in series order),
    ``GAP:`` where a base does not continue the chain; ``links(base, previous_path)``
    answers as :func:`git_links` does."""
    lines, previous = [], None
    for path, report in reports.items():
        label, base = Path(path).stem, report["base"]["commit"]
        if previous is None:
            lines.append(f"chain: {label} base {base[:7]} (first report)")
        else:
            known = links(base, previous)
            adder, before = known["adder"], Path(previous).stem
            if adder is None:
                lines.append(f"GAP: {label} base {base[:7]}: {before} is not committed")
            elif base == adder:
                lines.append(f"chain: {label} base {base[:7]} = the commit that added {before}")
            elif known["reanchor"]:
                lines.append(f"chain: {label} base {base[:7]} descends from {adder[:7]}, which "
                             f"added {before}, and changes nothing under "
                             + ", ".join(f"{tree}/" for tree in MEASURED_TREES))
            else:
                lines.append(f"GAP: {label} base {base[:7]} does not continue from {adder[:7]}, "
                             f"which added {before}")
        previous = path
    return lines


def paired_change(base: Sequence[float], head: Sequence[float]) -> float:
    """The median over pairs of ``head / base - 1``."""
    return statistics.median(h / b - 1.0 for b, h in zip(base, head))


def ab_lines(reports: Dict[str, dict], metrics: List[dict]) -> List[str]:
    """Per workload and metric: each report's paired median change, the chained
    product from the first report and the verdict, for ``{label: report}``."""
    workloads: List[str] = []
    for report in reports.values():
        workloads.extend(name for name in report["workloads"] if name not in workloads)
    lines = []
    for workload in workloads:
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            lines.append(f"{workload} {name} ({metric['unit']}, {'higher' if higher else 'lower'} is better)")
            chained = 1.0
            for label, report in reports.items():
                entry = report["workloads"].get(workload)
                if entry is None:
                    lines.append(f"  {label:<6} -")
                    continue
                base = [run["base"]["metrics"][name]["value"] for run in entry["runs"]]
                head = [run["head"]["metrics"][name]["value"] for run in entry["runs"]]
                step = paired_change(base, head)
                chained *= 1.0 + step
                lines.append(f"  {label:<6} base {report['base']['commit'][:7]}  n={len(base)}  "
                             f"paired median {step:+7.1%}  chained {chained - 1.0:+7.1%}  "
                             f"{verdict(base, head, higher, metric['bound'])}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", type=Path,
                        help="AB_<n>.json reports of tools/abtest.py, or BENCH_<n>.json reports of bench/run.py")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    reports = {}
    for path in sorted(args.reports, key=lambda path: (_point_number(path), path.name)):
        with open(path, encoding="utf-8") as handle:
            reports[str(path)] = json.load(handle)
    paired = ["pairs" in report for report in reports.values()]
    if any(paired) and not all(paired):
        parser.error("give either AB_<n>.json reports or BENCH_<n>.json reports, not both")
    if not any(paired):
        print("\n".join(ledger_lines({Path(path).stem: report for path, report in reports.items()},
                                     metrics)))
        return 0
    chain = chain_lines(reports, git_links)
    print("\n".join(chain + ab_lines({Path(path).stem: report for path, report in reports.items()},
                                      metrics)))
    return 1 if any(line.startswith("GAP:") for line in chain) else 0


if __name__ == "__main__":
    sys.exit(main())
