"""``tools/ledger.py``: the committed A/B chain and benchmark series, printed per workload and metric."""

import json
import subprocess
from pathlib import Path

import pytest

from tools import ledger

ROOT = Path(__file__).resolve().parent.parent
METRICS = [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def _report(workloads):
    return {"workloads": {name: {"runs": [{"metrics": {metric: {"value": value} for metric, value in run.items()}}
                                          for run in runs]}
                          for name, runs in workloads.items()}}


def test_medians_spreads_and_signed_changes():
    first = _report({"w": [{"work_per_s": 100.0, "setup_s": 0.4}, {"work_per_s": 110.0, "setup_s": 0.5},
                           {"work_per_s": 90.0, "setup_s": 0.3}]})
    second = _report({"w": [{"work_per_s": 120.0, "setup_s": 0.5}], "v": [{"work_per_s": 1.0, "setup_s": 1.0}]})
    lines = ledger.ledger_lines({"BENCH_1": first, "BENCH_2": second}, METRICS)
    assert lines[0] == "w work_per_s (1/s, higher is better)"
    assert "median          100" in lines[1] and "vs previous" not in lines[1]
    assert "median          120" in lines[2] and lines[2].endswith("+20.0% vs previous")
    # Lower is better: a slower setup reads as a negative change.
    assert lines[5].endswith("-25.0% vs previous")
    # A workload missing from a point prints a dash there.
    assert lines[7] == "  BENCH_1    -"


def test_spread_is_the_interquartile_distance_over_the_median():
    assert ledger.spread([5.0]) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert ledger.spread(values) == (4.5 - 1.5) / 3.0


def test_committed_series_prints_every_workload_and_metric(capsys):
    reports = sorted(ROOT.glob("BENCH_*.json"))
    assert reports
    assert ledger.main([str(path) for path in reports]) == 0
    out = capsys.readouterr().out
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = json.loads(reports[-1].read_text())["workloads"]
    headers = [line for line in out.splitlines() if not line.startswith(" ")]
    assert len(headers) == len(workloads) * len(metrics)
    # Points print in the order of their number, not of their name.
    labels = [line.split()[0] for line in out.splitlines()[1:len(reports) + 1]]
    assert labels == sorted(labels, key=lambda label: int(label.split("_")[1]))


def _ab_report(base_commit, workloads):
    """An A/B report whose pairs are ``(base, head)`` values of every metric."""
    return {"pairs": 1, "base": {"commit": base_commit},
            "workloads": {name: {"runs": [{side: {"metrics": {metric: {"value": value[i]}
                                                                for metric, value in pair.items()}}
                                           for i, side in enumerate(("base", "head"))}
                                          for pair in pairs]}
                          for name, pairs in workloads.items()}}


def test_chain_names_direct_links_reanchors_and_gaps():
    reports = {f"AB_{n}.json": _ab_report(base, {}) for n, base in
               [(1, "a" * 40), (2, "b" * 40), (3, "d" * 40), (4, "f" * 40), (5, "0" * 40)]}
    added = {"AB_1.json": "b" * 40, "AB_2.json": "c" * 40, "AB_3.json": "e" * 40, "AB_4.json": None}

    def links(commit, path):
        # "d" re-anchors "c"; "f" descends from "e" but changes measured code.
        return {"adder": added[path], "reanchor": (added[path], commit) == ("c" * 40, "d" * 40)}

    assert ledger.chain_lines(reports, links) == [
        "chain: AB_1 base aaaaaaa (first report)",
        "chain: AB_2 base bbbbbbb = the commit that added AB_1",
        "chain: AB_3 base ddddddd descends from ccccccc, which added AB_2, "
        "and changes nothing under src/, bench/, tools/",
        "GAP: AB_4 base fffffff does not continue from eeeeeee, which added AB_3",
        "GAP: AB_5 base 0000000: AB_4 is not committed"]


def test_paired_median_changes_chain_by_product():
    first = _ab_report("a" * 40, {"w": [{"work_per_s": (100.0, 115.0), "setup_s": (1.0, 1.0)},
                                        {"work_per_s": (102.0, 116.0), "setup_s": (1.0, 0.5)},
                                        {"work_per_s": (98.0, 113.0), "setup_s": (2.0, 2.0)}]})
    second = _ab_report("b" * 40, {"w": [{"work_per_s": (100.0, 50.0), "setup_s": (1.0, 1.0)}]})
    assert ledger.paired_change([100.0, 200.0, 100.0], [110.0, 230.0, 120.0]) == pytest.approx(0.15)
    lines = ledger.ab_lines({"AB_1": first, "AB_2": second, "AB_3": _ab_report("c" * 40, {})}, METRICS)
    assert lines[0] == "w work_per_s (1/s, higher is better)"
    assert lines[1].endswith("paired median  +15.0%  chained  +15.0%  better")
    assert lines[2].endswith("paired median  -50.0%  chained  -42.5%  regressed")
    assert lines[3] == "  AB_3   -"
    assert lines[5].endswith("paired median   +0.0%  chained   +0.0%  unresolved")


def test_mixed_ab_and_bench_reports_are_rejected(capsys):
    with pytest.raises(SystemExit) as stopped:
        ledger.main([str(ROOT / "AB_41.json"), str(ROOT / "BENCH_39.json")])
    assert stopped.value.code == 2
    assert "not both" in capsys.readouterr().err


def _has_history():
    done = subprocess.run(["git", "log", "-1", "--format=%H", "--", "AB_41.json"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.returncode == 0 and bool(done.stdout.strip())


@pytest.mark.skipif(not _has_history(), reason="needs the repository's git history")
def test_committed_ab_reports_chain_without_a_gap(capsys):
    reports = sorted(ROOT.glob("AB_*.json"))
    assert [path.stem for path in reports][:2] == ["AB_41", "AB_42"] and "AB_46" in {p.stem for p in reports}
    assert ledger.main([str(path) for path in reports]) == 0
    out = capsys.readouterr().out.splitlines()
    chain = [line for line in out if line.startswith(("chain:", "GAP:"))]
    assert len(chain) == len(reports) and not any(line.startswith("GAP:") for line in chain)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = json.loads(reports[-1].read_text())["workloads"]
    headers = [line for line in out[len(chain):] if not line.startswith(" ")]
    assert len(headers) == len(workloads) * len(metrics)
    # AB_41's sim_contended peak_rss_mb (+0.3 %, 1/10 wins) is below the minimum effect.
    rss = out[out.index("sim_contended peak_rss_mb (MB, lower is better)") + 1]
    assert rss.startswith("  AB_41") and rss.endswith("unresolved")
