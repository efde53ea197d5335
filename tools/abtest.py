#!/usr/bin/env python3
"""Paired A/B runs of ``bench/run.py``: a base commit against the working tree.

Usage::

    python tools/abtest.py --base REV --workload W [W ...] --pairs N \\
        --out AB_<n>.json [--quick]

``REV`` is exported with ``git archive`` into a temporary tree (removed
afterwards); the other side is the working tree, uncommitted changes
included.  ``__pycache__`` directories are cleared in both trees, and each
tree then runs every workload once untimed, so both sides start from the
same bytecode and file-cache state.  Pair ``i`` runs ``bench/run.py
--workload W --seed i --trace 0`` for ``BENCHMARK.json``'s ``run_seconds``
in both trees, the base first on even pairs and the working tree first on
odd ones.

The JSON report keeps every run and gives, per workload, each side's share
of failed checks and, per end-to-end metric of ``BENCHMARK.json``, both
medians and quartiles, the paired deltas (working tree minus base), the win
count and one verdict from :func:`verdict`.  It also records both commits
and the ``PYTHONDONTWRITEBYTECODE`` setting, because with bytecode writing
off ``setup_s`` mostly measures compiling ``src/``.  The exit code is 1 when
:func:`passed` fails: an incorrect run, a larger share of failed checks on
the working tree, or a ``regressed`` metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Share of the pairs the working tree must win for a "better" (or lose for a "worse") verdict.
WIN_SHARE = 0.9
#: Share of a metric's bound the median gap must exceed for a "better" or "worse" verdict.
MIN_EFFECT = 0.1
#: Measurement window of the untimed warm-up run each tree gets per workload.
WARMUP_SECONDS = 2.0


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of ``values`` (``statistics.quantiles``' default method); one value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def pair_wins(base: Sequence[float], head: Sequence[float], higher_is_better: bool) -> Tuple[int, int]:
    """``(wins, losses)`` of the working tree over paired runs ``base[i]`` / ``head[i]``; a tie is neither."""
    if len(base) != len(head) or not base:
        raise ValueError("paired runs need one base and one head value per pair")
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for a, b in zip(base, head) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(base, head) if sign * (b - a) < 0)
    return wins, losses


def verdict(base: Sequence[float], head: Sequence[float], higher_is_better: bool, bound: float) -> str:
    """``"regressed"``, ``"better"``, ``"worse"`` or ``"unresolved"`` for paired runs ``base[i]`` / ``head[i]``.

    "regressed" is ``bench/compare.py``'s rule and comes first, at any
    number of pairs: the working tree's median is worse than the base's by
    more than ``bound``, a share of the base's median.  Otherwise the
    working tree is "better" when it wins at least :data:`WIN_SHARE` of the
    pairs (see :func:`pair_wins`) *and* its median beats the base's by more
    than both the base's interquartile distance and :data:`MIN_EFFECT` of
    the bound; "worse" is the same rule with the sides swapped.  Anything
    else, and a single pair, cannot be told apart from the noise of these
    runs or is too small to matter.
    """
    wins, losses = pair_wins(base, head, higher_is_better)
    sign = 1.0 if higher_is_better else -1.0
    q1, median_base, q3 = quartiles(base)
    gap = sign * (statistics.median(head) - median_base)
    if -gap > bound * median_base:
        return "regressed"
    if len(base) < 2:
        return "unresolved"  # one pair has no spread to beat
    floor = max(q3 - q1, MIN_EFFECT * bound * abs(median_base))
    if wins >= WIN_SHARE * len(base) and gap > floor:
        return "better"
    if losses >= WIN_SHARE * len(base) and -gap > floor:
        return "worse"
    return "unresolved"


def summarize(runs: List[dict], metrics: List[dict]) -> Dict[str, dict]:
    """Per end-to-end metric: medians, quartiles, paired deltas, wins and the verdict of ``runs``' pairs."""
    summary = {}
    for metric in metrics:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        base = [run["base"]["metrics"][name]["value"] for run in runs]
        head = [run["head"]["metrics"][name]["value"] for run in runs]
        deltas = [b - a for a, b in zip(base, head)]
        median_base = statistics.median(base)
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": bound,
            "base": {"median": median_base, "quartiles": quartiles(base)},
            "head": {"median": statistics.median(head), "quartiles": quartiles(head)},
            "paired_deltas": deltas,
            "wins": pair_wins(base, head, higher)[0],
            "pairs": len(runs),
            "change": (statistics.median(head) - median_base) / median_base if median_base else 0.0,
            "verdict": verdict(base, head, higher, bound),
        }
    return summary


def failed_share(runs: List[dict], side: str) -> float:
    """The share of ``side``'s checks that failed over all of ``runs``."""
    attempted = sum(run[side]["attempted"] for run in runs)
    return sum(run[side]["failed"] for run in runs) / attempted if attempted else 0.0


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, into: Path) -> None:
    """Write commit ``rev``'s files into the empty directory ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _clear_bytecode(tree: Path) -> None:
    for sub in ("src", "bench", "tools"):
        for cache in sorted((tree / sub).rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)


def _bench(tree: Path, workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """One ``bench/run.py --trace 0`` run in ``tree``: its last stdout line, parsed."""
    command = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
               "--trace", "0", "--seconds", str(seconds)] + (["--quick"] if quick else [])
    done = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(base_rev: str, workloads: List[str], pairs: int, quick: bool) -> dict:
    """Export ``base_rev``, warm both trees up and run ``pairs`` alternating pairs per workload."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    report = {
        "base": {"rev": base_rev, "commit": _git("rev-parse", f"{base_rev}^{{commit}}")},
        "head": {"commit": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))},
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pairs": pairs, "seconds": seconds, "quick": quick, "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="abtest-") as scratch:
        base_tree = Path(scratch)
        _export(report["base"]["commit"], base_tree)
        trees = {"base": base_tree, "head": ROOT}
        for tree in trees.values():
            _clear_bytecode(tree)
        for workload in workloads:
            for tree in trees.values():
                _bench(tree, workload, 0, WARMUP_SECONDS, quick)  # untimed warm-up
        for workload in workloads:
            runs = []
            for seed in range(pairs):
                order = ("base", "head") if seed % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _bench(trees[side], workload, seed, seconds, quick)
                runs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['work_per_s']['value']:.6g}" for side in ("base", "head")),
                    flush=True)
            report["workloads"][workload] = {
                "correct": all(pair[side]["correct"] for pair in runs for side in ("base", "head")),
                "failed_share": {side: failed_share(runs, side) for side in ("base", "head")},
                "metrics": summarize(runs, metrics),
                "runs": runs,
            }
    return report


def verdict_lines(report: dict) -> List[str]:
    """One line per workload and metric (medians, wins and the verdict), and one per workload whose
    working tree fails a larger share of its checks than the base."""
    lines = []
    for workload, entry in report["workloads"].items():
        for name, row in entry["metrics"].items():
            lines.append(f"{workload} {name}: {row['base']['median']:.6g} -> {row['head']['median']:.6g} "
                         f"{row['unit']} ({row['change']:+.1%}), {row['wins']}/{row['pairs']} wins, "
                         f"{row['verdict']}" + ("" if entry["correct"] else ", INCORRECT RUNS"))
        failed = entry["failed_share"]
        if failed["head"] > failed["base"]:
            lines.append(f"{workload} failed checks: {failed['base']:.4f} -> {failed['head']:.4f} "
                         f"of those attempted, regressed")
    return lines


def passed(report: dict) -> bool:
    """Every run correct, no larger share of failed checks on the working tree and no metric ``regressed``."""
    return all(entry["correct"] and entry["failed_share"]["head"] <= entry["failed_share"]["base"]
               and all(row["verdict"] != "regressed" for row in entry["metrics"].values())
               for entry in report["workloads"].values())


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against (any git revision)")
    parser.add_argument("--workload", nargs="+", required=True, help="bench/run.py workload names")
    parser.add_argument("--pairs", type=int, required=True, help="alternating pairs per workload, seeds 0..N-1")
    parser.add_argument("--quick", action="store_true", help="bench/run.py's tiny inputs")
    parser.add_argument("--out", required=True, help="report path, e.g. AB_<n>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    report = run(args.base, args.workload, args.pairs, args.quick)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print("\n".join(verdict_lines(report)))
    print(f"report written to {args.out}")
    return 0 if passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
