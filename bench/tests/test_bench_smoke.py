"""Tier-1 smoke test of the benchmark harness (``--quick`` inputs, a few seconds).

Catches a broken harness — a renamed public call the tracer can no longer
patch, a metric BENCHMARK.json declares but ``run.py`` no longer computes, a
check that stopped holding — before anyone reads a number from it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
compare = _load("compare")
SPEC = run.declared()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_declared_metric(workload):
    for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        outcome = run.measure(workload, seed=0, seconds=0.0, trace=trace, quick=True)
        result = outcome["result"]
        assert result["correct"], outcome["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
            {metric["name"]: metric["unit"] for metric in listed}
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_command_line_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sim_steady", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--quick"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def _report(path, values):
    runs = [{"metrics": {m["name"]: {"value": v, "unit": m["unit"]} for m in SPEC["end_to_end"]}}
            for v in values]
    path.write_text(json.dumps({"workloads": {"sim_steady": {"runs": runs}}}))
    return str(path)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    base = _report(tmp_path / "a.json", [100.0, 101.0, 99.0, 100.5])
    same = _report(tmp_path / "b.json", [100.2, 99.5, 100.9, 100.0])
    noisy = _report(tmp_path / "c.json", [60.0, 140.0, 100.0, 99.0, 101.0, 65.0, 135.0])
    assert compare.main([base, same]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert compare.main([base, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    # Every metric is 1.5x its base: setup_s and peak_rss_mb got worse.
    assert compare.main([base, _report(tmp_path / "d.json", [150.0, 151.0, 149.0])]) == 1
    assert "regressed" in capsys.readouterr().out
