"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.sim.scenario import preview_faults


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_train_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_train_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--workload", "alexnet"])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "--workload", "resnet56_cifar10"])
        assert args.systems == ["vanilla", "egeria"]
        assert args.scale == "tiny"


class TestCkptParser:
    def test_ckpt_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ckpt"])

    def test_ckpt_save_parses(self):
        args = build_parser().parse_args(
            ["ckpt", "save", "--workload", "resnet56_cifar10", "--dir", "/tmp/x", "--every", "2"])
        assert args.command == "ckpt" and args.ckpt_command == "save"
        assert args.every == 2 and args.system == "egeria"

    def test_ckpt_inspect_parses(self):
        args = build_parser().parse_args(["ckpt", "inspect", "--dir", "/tmp/x"])
        assert args.ckpt_command == "inspect" and args.id is None

    def test_ckpt_restore_accepts_every(self):
        args = build_parser().parse_args(
            ["ckpt", "restore", "--workload", "resnet56_cifar10", "--dir", "/tmp/x", "--every", "3"])
        assert args.ckpt_command == "restore" and args.every == 3


class TestCkptCommands:
    def test_save_inspect_restore_roundtrip(self, tmp_path, capsys):
        ckpt_dir = str(tmp_path / "store")
        code = main(["ckpt", "save", "--workload", "resnet56_cifar10", "--system", "vanilla",
                     "--epochs", "2", "--every", "1", "--dir", ckpt_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 checkpoints" in out

        assert main(["ckpt", "inspect", "--dir", ckpt_dir]) == 0
        out = capsys.readouterr().out
        assert "ckpt-" in out and "written" in out

        code = main(["ckpt", "restore", "--workload", "resnet56_cifar10", "--system", "vanilla",
                     "--epochs", "3", "--dir", ckpt_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed vanilla" in out

    def test_restore_rejects_wrong_system(self, tmp_path, capsys):
        ckpt_dir = str(tmp_path / "store")
        assert main(["ckpt", "save", "--workload", "resnet56_cifar10", "--system", "vanilla",
                     "--epochs", "1", "--dir", ckpt_dir]) == 0
        capsys.readouterr()
        code = main(["ckpt", "restore", "--workload", "resnet56_cifar10", "--system", "egeria",
                     "--epochs", "2", "--dir", ckpt_dir])
        assert code == 2
        assert "saved by system" in capsys.readouterr().err

    def test_restore_past_target_is_noop(self, tmp_path, capsys):
        ckpt_dir = str(tmp_path / "store")
        assert main(["ckpt", "save", "--workload", "resnet56_cifar10", "--system", "vanilla",
                     "--epochs", "2", "--dir", ckpt_dir]) == 0
        capsys.readouterr()
        assert main(["ckpt", "restore", "--workload", "resnet56_cifar10", "--system", "vanilla",
                     "--epochs", "2", "--dir", ckpt_dir]) == 0
        assert "nothing to resume" in capsys.readouterr().out


class TestSimCommands:
    SCENARIO = {
        "cluster": {"num_machines": 2, "gpus_per_machine": 2, "storage_gbps": 10.0},
        "jobs": [
            {"name": "a", "modules": [4000, 8000, 6000], "batch_size": 16,
             "num_workers": 2, "iterations": 4, "checkpoint_every": 2},
            {"name": "b", "modules": [4000, 8000, 6000], "batch_size": 16,
             "num_workers": 2, "iterations": 4, "checkpoint_every": 2,
             "async_checkpoint": True},
        ],
        "gpu_speeds": [{"gpu": "node0:gpu0", "factor": 0.8}],
    }

    def _write(self, tmp_path, spec):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_sim_run_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim"])

    def test_sim_run_prints_report(self, tmp_path, capsys):
        assert main(["sim", "run", self._write(tmp_path, self.SCENARIO)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["makespan"] > 0.0
        assert set(report["jobs"]) == {"a", "b"}
        assert report["jobs"]["a"]["iterations_done"] == 4
        assert report["resources"]["ckpt-store"]["total_bytes"] > 0
        assert "trace" not in report

    def test_sim_run_writes_out_file_and_is_deterministic(self, tmp_path, capsys):
        scenario = self._write(tmp_path, self.SCENARIO)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["sim", "run", scenario, "--out", out1]) == 0
        assert main(["sim", "run", scenario, "--out", out2]) == 0
        capsys.readouterr()
        first, second = (json.loads(open(p).read()) for p in (out1, out2))
        assert first == second

    def test_sim_run_removed_trace_flag_points_at_trace_out(self, tmp_path, capsys):
        scenario = self._write(tmp_path, self.SCENARIO)
        assert main(["sim", "run", scenario, "--trace"]) == 2
        err = capsys.readouterr().err
        assert "--trace was removed" in err
        assert "--trace-out" in err

    def test_sim_run_rejects_bad_scenarios(self, tmp_path, capsys):
        bad_key = dict(self.SCENARIO, warp=1)
        assert main(["sim", "run", self._write(tmp_path, bad_key)]) == 2
        assert "unknown scenario keys" in capsys.readouterr().err

        bad_resource = dict(self.SCENARIO)
        bad_resource["jobs"] = [dict(self.SCENARIO["jobs"][0], storage="nope")]
        assert main(["sim", "run", self._write(tmp_path, bad_resource)]) == 2
        assert "unknown resource" in capsys.readouterr().err

        assert main(["sim", "run", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err

        bad_policy = dict(self.SCENARIO)
        bad_policy["resources"] = [{"name": "scratch", "bandwidth_gbps": 1.0,
                                    "policy": "lottery"}]
        assert main(["sim", "run", self._write(tmp_path, bad_policy)]) == 2
        assert "policy" in capsys.readouterr().err
        self._assert_wrong_types_rejected("run", tmp_path, capsys)

    @pytest.mark.parametrize("knobs, message", [
        ({"gpu_speeds": [{"gpu": "node0:gpu0", "factor": 0.5, "at_tme": 3.0}]},
         "unknown gpu_speeds[0] keys ['at_tme']"),
        ({"failures": [{"gpu": "node0:gpu0", "at_time": 1.0},
                       {"gpu": "node0:gpu1", "at_time": 1.0, "recover": 2.0}]},
         "unknown failures[1] keys ['recover']"),
        ({"failures": [{"gpus": "node0:gpu0", "at_time": 1.0}]},
         "unknown failures[0] keys ['gpus']"),
        ({"resizes": [{"job": "a", "at_time": 1.0}]},
         "resizes[0]: missing required keys ['delta']"),
    ])
    def test_sim_run_rejects_misspelt_knob_keys(self, tmp_path, capsys, knobs, message):
        """Knob lists obey the module's "unknown keys raise" contract: the
        error names the list, the index and the key (it used to run with the
        typo read as a default, or print the bare ``error: 'gpu'``)."""
        assert main(["sim", "run", self._write(tmp_path, dict(self.SCENARIO, **knobs))]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def _assert_wrong_types_rejected(self, command, tmp_path, capsys):
        """A value of the wrong JSON type is a reported error, not a traceback."""
        for wrong in ({"cluster": {"num_machines": "two"}}, {"jobs": 5}, {"jobs": [7]}):
            assert main(["sim", command, self._write(tmp_path, dict(self.SCENARIO, **wrong))]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("key", ["memoize", "batch_fast_forward"])
    def test_sim_run_rejects_the_removed_stepping_keys(self, tmp_path, capsys, key):
        """How iterations are stepped is not a scenario setting: exit 2, key named."""
        assert main(["sim", "run", self._write(tmp_path, dict(self.SCENARIO, **{key: False}))]) == 2
        captured = capsys.readouterr()
        assert f"unknown scenario keys ['{key}']" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_sim_run_policy_override(self, tmp_path, capsys):
        scenario = self._write(tmp_path, self.SCENARIO)
        assert main(["sim", "run", scenario, "--policy", "fair"]) == 0
        report = json.loads(capsys.readouterr().out)
        resources = report["cluster"]["resources"]
        assert resources["ckpt-store"]["policy"] == "fair"
        assert resources["fabric"]["policy"] == "fair"
        # An explicitly pinned policy wins over the CLI override.
        pinned = dict(self.SCENARIO)
        pinned["cluster"] = dict(pinned["cluster"], storage_policy="fifo")
        assert main(["sim", "run", self._write(tmp_path, pinned),
                     "--policy", "fair"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cluster"]["resources"]["ckpt-store"]["policy"] == "fifo"
        assert report["cluster"]["resources"]["fabric"]["policy"] == "fair"

    def test_sim_run_per_tor_scenario(self, tmp_path, capsys):
        scenario = {
            "cluster": {"num_machines": 4, "gpus_per_machine": 2,
                        "num_tor_switches": 2, "per_tor_fabric": True},
            "placement": "tor_pack",
            "jobs": [
                {"name": "a", "modules": [40000, 80000], "num_workers": 4, "iterations": 2},
                {"name": "b", "modules": [40000, 80000], "num_workers": 4, "iterations": 2},
            ],
        }
        assert main(["sim", "run", self._write(tmp_path, scenario)]) == 0
        report = json.loads(capsys.readouterr().out)
        # Rack-packed jobs queue on their own ToR uplinks, never the core.
        assert report["resources"]["tor0-uplink"]["total_bytes"] > 0
        assert report["resources"]["tor1-uplink"]["total_bytes"] > 0
        assert report["resources"]["core"]["total_bytes"] == 0

    def test_sim_run_trace_and_metrics_out(self, tmp_path, capsys):
        from repro.sim.observe import check_metrics, check_trace

        scenario = self._write(tmp_path, self.SCENARIO)
        trace_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.json")
        report_path = str(tmp_path / "report.json")
        assert main(["sim", "run", scenario, "--out", report_path,
                     "--trace-out", trace_path, "--metrics-out", metrics_path]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        trace = json.loads(open(trace_path).read())
        metrics = json.loads(open(metrics_path).read())
        report = json.loads(open(report_path).read())
        assert check_trace(trace) == []
        assert check_metrics(metrics, report) == []
        assert report["metrics"]  # observation implied by the export flags

    def test_sim_faults_writes_the_previewed_plan(self, tmp_path, capsys):
        scenario = str(Path(__file__).resolve().parents[1] / "examples" / "scenario_fault_storm.json")
        out = tmp_path / "plan.json"
        assert main(["sim", "faults", scenario, "--out", str(out)]) == 0
        plan = json.loads(out.read_text())
        assert plan["num_events"] == preview_faults(scenario)["num_events"]
        assert plan["num_events"] == len(plan["events"]) > 0
        assert f"{plan['num_events']} fault events" in capsys.readouterr().out

    def test_sim_faults_rejects_a_malformed_scenario(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"cluster": {"num_machines": 2')
        assert main(["sim", "faults", str(broken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["sim", "faults", self._write(tmp_path, dict(self.SCENARIO, warp=1))]) == 2
        assert "unknown scenario keys" in capsys.readouterr().err

    def test_sim_profile_prints_ranked_report(self, tmp_path, capsys):
        scenario = self._write(tmp_path, self.SCENARIO)
        out_path = str(tmp_path / "profile.json")
        assert main(["sim", "profile", scenario, "--top", "5",
                     "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "top 5 functions by cumulative" in out
        report = json.loads(open(out_path).read())
        assert report["events_per_second"] > 0
        assert len(report["hot_functions"]) == 5

    def test_sim_profile_diffs_against_a_baseline(self, tmp_path, capsys):
        scenario = self._write(tmp_path, self.SCENARIO)
        baseline_path = tmp_path / "a.json"
        assert main(["sim", "profile", scenario, "--top", "5", "--out", str(baseline_path)]) == 0
        baseline = json.loads(baseline_path.read_text())
        capsys.readouterr()
        current_path = tmp_path / "b.json"
        assert main(["sim", "profile", scenario, "--top", "5", "--baseline", str(baseline_path),
                     "--out", str(current_path)]) == 0
        out = capsys.readouterr().out
        assert f"vs baseline {baseline_path}: wall {baseline['wall_seconds']:.3f}s -> " in out
        assert "function(s) regressed" in out or "no per-function regressions" in out
        diff = json.loads(current_path.read_text())["baseline_diff"]
        assert diff["baseline_wall_seconds"] == baseline["wall_seconds"]
        assert diff["wall_ratio"] == diff["wall_seconds"] / diff["baseline_wall_seconds"]
        rows = diff["functions"]
        assert {row["function"] for row in rows} >= {row["function"] for row in baseline["hot_functions"]}
        assert [row["delta_cumtime"] for row in rows] == sorted(
            (row["delta_cumtime"] for row in rows), reverse=True)
        for row in rows:
            assert row["status"] in ("common", "new", "gone")
            assert row["delta_calls"] == row["calls"] - row["baseline_calls"]

    def test_sim_profile_rejects_a_truncated_baseline(self, tmp_path, capsys):
        scenario = self._write(tmp_path, self.SCENARIO)
        baseline_path = tmp_path / "a.json"
        assert main(["sim", "profile", scenario, "--out", str(baseline_path)]) == 0
        text = baseline_path.read_text()
        baseline_path.write_text(text[: len(text) // 2])
        capsys.readouterr()
        assert main(["sim", "profile", scenario, "--baseline", str(baseline_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sim_profile_rejects_bad_scenarios(self, tmp_path, capsys):
        bad_key = dict(self.SCENARIO, warp=1)
        assert main(["sim", "profile", self._write(tmp_path, bad_key)]) == 2
        assert "unknown scenario keys" in capsys.readouterr().err
        self._assert_wrong_types_rejected("profile", tmp_path, capsys)


class TestCommands:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "resnet56_cifar10" in out and "egeria" in out

    def test_train_vanilla_one_epoch(self, capsys):
        code = main(["train", "--workload", "resnet56_cifar10", "--system", "vanilla", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Final top1" in out

    def test_compare_prints_a_vanilla_and_an_egeria_row(self, capsys):
        assert main(["compare", "--workload", "resnet56_cifar10", "--scale", "tiny"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [row[:2] for row in rows] == [["resnet56_cifar10", "vanilla"],
                                             ["resnet56_cifar10", "egeria"]]

    def test_train_egeria_prints_history(self, capsys):
        code = main(["train", "--workload", "resnet56_cifar10", "--system", "egeria", "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
