#!/usr/bin/env python3
"""Compare two reports of ``run.py`` against the bounds fixed in BENCHMARK.json.

``python3 bench/compare.py A.json B.json`` prints, per workload and
end-to-end metric, both medians, the ratio B/A with its base, each report's
own spread (interquartile distance / median over its runs) and a verdict:

* **regressed** — B's median is worse than A's by more than the bound;
* **unresolved** — either report's own spread exceeds the bound, so the
  runs cannot tell (unless every run of B beats every run of A);
* **unchanged** — otherwise.

Exit code 1 on any regression.  With one report it prints the medians and
spreads only (the steadiness check: every spread should be below a third of
its bound).
"""

import json
import statistics
import sys
from pathlib import Path


def _values(entry: dict, metric: str) -> list:
    return [run["metrics"][metric]["value"] for run in entry["runs"]]


def _spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    root = Path(__file__).resolve().parent.parent
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle)["workloads"])
    base = reports[0]
    regressed = False
    for workload, entry in base.items():
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = _values(entry, name)
            line = (f"{workload:<18} {name:<12} A median {statistics.median(a):>12.6g} "
                    f"{metric['unit']:<4} spread {_spread(a):6.3f} (n={len(a)})")
            if len(reports) == 2 and workload in reports[1]:
                b = _values(reports[1][workload], name)
                median_a, median_b = statistics.median(a), statistics.median(b)
                higher = metric["better"] == "higher"
                worse = (median_a - median_b if higher else median_b - median_a) / median_a
                all_better = min(b) > max(a) if higher else max(b) < min(a)
                if worse > bound:
                    verdict, regressed = "regressed", True
                elif max(_spread(a), _spread(b)) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "unchanged"
                line += (f" | B median {median_b:>12.6g} spread {_spread(b):6.3f} (n={len(b)})"
                         f" | B/A {median_b / median_a:6.3f} of {median_a:.6g}"
                         f" | bound {bound:.2f} {verdict}")
            else:
                line += f" | bound {bound:.2f}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
