"""``tools/ledger.py``: the committed benchmark series, printed per workload and metric."""

import json
from pathlib import Path

from tools import ledger

ROOT = Path(__file__).resolve().parent.parent
METRICS = [{"name": "work_per_s", "unit": "1/s", "better": "higher"},
           {"name": "setup_s", "unit": "s", "better": "lower"}]


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
