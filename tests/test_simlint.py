"""Tests for SimLint: per-rule fixtures, suppressions, baseline, self-check.

Each rule has one fixture module under ``tests/simlint_fixtures/`` holding a
positive case (the rule fires), a suppressed case (an inline justified
``# simlint: disable=...`` silences it) and a clean case (no finding).  The
fixtures are linted as text — they are never imported.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tools.simlint import ALL_RULES, lint_paths, lint_source, rule_index
from tools.simlint.rules import LAYERS
from tools.simlint.runner import lint_file, load_baseline, main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "simlint_fixtures"

#: fixture file -> (rule id, live finding lines, suppressed finding lines).
FIXTURE_EXPECTATIONS = {
    "wall_clock.py": ("SIM001", [12, 17], [22]),
    "global_random.py": ("SIM002", [10, 15], [20]),
    "set_iteration.py": ("SIM003", [12, 20, 21, 27], [39]),
    "time_equality.py": ("SIM004", [9, 14], [20]),
    "mutable_default.py": ("SIM005", [6, 12, 18], [24]),
    "public_api.py": ("SIM006", [7, 7, 7, 11, 19, 19, 19], [24, 24, 24]),
    "repro/sim/upward_imports.py": ("SIM007", [10, 16, 17, 22, 23], []),
    "repro/core/layered_imports.py": ("SIM007", [6, 11], []),
    "unread_import.py": ("SIM008", [6, 7, 12, 25], [11]),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("fixture_name", sorted(FIXTURE_EXPECTATIONS))
    def test_fixture_findings(self, fixture_name):
        """Positive cases fire on the expected lines, clean cases stay quiet."""
        rule, live_lines, suppressed_lines = FIXTURE_EXPECTATIONS[fixture_name]
        result = lint_file(FIXTURES / fixture_name)
        assert [f.rule for f in result.findings] == [rule] * len(live_lines)
        assert [f.line for f in result.findings] == live_lines
        assert [f.line for f in result.suppressed] == suppressed_lines
        assert all(f.rule == rule for f in result.suppressed)
        # Every suppression in the fixtures is justified: no SIM000.
        assert not any(f.rule == "SIM000" for f in result.findings)

    def test_every_rule_has_a_fixture(self):
        """The fixture table covers the whole rule catalog."""
        covered = {rule for rule, _, _ in FIXTURE_EXPECTATIONS.values()}
        assert covered == set(rule_index())

    def test_package_init_reexports_are_not_unread_imports(self):
        """An ``__init__.py``'s imports are its exports; elsewhere they must be read."""
        source = '"""Package."""\n\nfrom .engine import EventDrivenEngine\n'
        assert lint_source("pkg/__init__.py", source).ok
        assert [f.rule for f in lint_source("pkg/module.py", source).findings] == ["SIM008"]

    def test_findings_carry_provenance(self):
        """Findings render as path:line:col and keep the offending snippet."""
        result = lint_file(FIXTURES / "wall_clock.py")
        finding = result.findings[0]
        assert finding.render().startswith(f"{finding.path}:{finding.line}:")
        assert "time.time()" in finding.snippet


class TestLayerTable:
    def test_table_names_every_package(self):
        """A new ``src/repro`` package must take its place in SIM007's table."""
        root = REPO_ROOT / "src" / "repro"
        packages = {path.parent.name for path in root.glob("*/__init__.py")} | {"cli", ""}
        assert set(LAYERS) == packages

    def test_table_is_acyclic(self):
        """Each package reaches only packages strictly below it."""
        def below(package, seen=()):
            assert package not in seen, seen
            return set().union(*(below(lower, seen + (package,)) | {lower}
                                 for lower in LAYERS[package]))
        assert all(package not in below(package) for package in LAYERS)

    def test_relative_imports_resolve_from_a_subpackage(self):
        """``repro/sim/scheduler/jobs.py``'s old ``TYPE_CHECKING`` import reached ``repro.metrics``."""
        source = ('"""Doc."""\nfrom typing import TYPE_CHECKING\nfrom ..engine import SchedulePolicy\n'
                  "from . import loop\nif TYPE_CHECKING:\n    from ...metrics.tracking import RunHistory\n"
                  '__all__ = ["SchedulePolicy", "loop", "RunHistory"]\n')
        result = lint_source("src/repro/sim/scheduler/jobs.py", source)
        assert [(f.rule, f.line) for f in result.findings] == [("SIM007", 6)]
        assert "repro.metrics" in result.findings[0].message

    def test_files_outside_repro_are_not_checked(self):
        source = '"""Doc."""\nfrom repro.experiments import build_workload\n__all__ = ["build_workload"]\n'
        assert not lint_source("tools/helper.py", source).findings

    def test_absolute_and_aliased_imports_count(self):
        source = ('"""Doc."""\nimport repro.core.trainer as trainer\n'
                  "from repro import sim, cli\nimport repro\n"
                  '__all__ = ["trainer", "sim", "cli", "repro"]\n')
        result = lint_source("src/repro/sim/example.py", source)
        assert [(f.rule, f.line) for f in result.findings] == [("SIM007", 2), ("SIM007", 3)]
        assert "repro.cli" in result.findings[1].message


class TestSuppressions:
    def test_unjustified_suppression_is_sim000(self):
        """A bare disable comment is itself a finding."""
        source = (
            '"""Doc."""\n'
            "import random\n"
            "x = random.random()  # simlint: disable=SIM002\n"
        )
        result = lint_source("fixture.py", source)
        rules = [f.rule for f in result.findings]
        assert rules == ["SIM000"]
        assert result.suppressed and result.suppressed[0].rule == "SIM002"
        assert "justification" in result.findings[0].message

    def test_prose_mentioning_the_syntax_is_not_a_suppression(self):
        """Docstrings quoting '# simlint: disable=SIMxxx' are ignored."""
        source = '"""Use # simlint: disable=SIMxxx -- why to silence a rule."""\n'
        result = lint_source("fixture.py", source)
        assert not result.suppressions
        assert not result.findings

    def test_standalone_comment_covers_next_line(self):
        source = (
            '"""Doc."""\n'
            "import random\n"
            "# simlint: disable=SIM002 -- fixture justification\n"
            "x = random.random()\n"
        )
        result = lint_source("fixture.py", source)
        assert not result.findings
        assert [f.rule for f in result.suppressed] == ["SIM002"]

    def test_suppression_does_not_cover_other_rules(self):
        source = (
            '"""Doc."""\n'
            "import random\n"
            "# simlint: disable=SIM001 -- wrong rule named\n"
            "x = random.random()\n"
        )
        result = lint_source("fixture.py", source)
        assert [f.rule for f in result.findings] == ["SIM002"]


class TestSimCoreScoping:
    def test_sim_core_rules_skip_ordinary_files(self):
        """SIM001/SIM004 stay quiet outside repro/sim without the marker."""
        source = (
            '"""Doc."""\n'
            "import time\n"
            "def f(start_time: float, end_time: float) -> bool:\n"
            '    """Doc."""\n'
            "    t = time.time()\n"
            "    return start_time == end_time\n"
        )
        result = lint_source("scripts/helper.py", source)
        assert not result.findings

    def test_repro_sim_paths_are_sim_core(self):
        source = '"""Doc."""\nimport time\nt = time.time()\n'
        result = lint_source("src/repro/sim/example.py", source)
        assert [f.rule for f in result.findings] == ["SIM001"]

    def test_marker_must_be_a_standalone_comment_line(self):
        """Prose mentioning the marker does not opt a file into sim-core."""
        source = '"""The marker is `# simlint: sim-core` on its own line."""\nimport time\nt = time.time()\n'
        assert not lint_source("scripts/helper.py", source).findings


class TestBaseline:
    def test_baselined_findings_do_not_fail_the_run(self):
        source = '"""Doc."""\nimport random\nx = random.random()\n'
        live = lint_source("fixture.py", source)
        assert not live.ok
        keys = [f.key() for f in live.findings]
        grandfathered = lint_source("fixture.py", source, baseline=keys)
        assert grandfathered.ok
        assert [f.rule for f in grandfathered.baselined] == ["SIM002"]

    def test_committed_baseline_is_empty(self):
        """The repo lints clean: no grandfathered findings."""
        assert load_baseline(REPO_ROOT / "tools" / "simlint" / "baseline.json") == []

    def test_write_baseline_roundtrip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text('"""Doc."""\nimport random\nx = random.random()\n')
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--baseline", str(baseline), "--write-baseline"]) == 0
        # With the baseline in force the same file now lints clean.
        assert main([str(bad), "--baseline", str(baseline)]) == 0
        entries = json.loads(baseline.read_text())
        assert len(entries) == 1 and entries[0][1] == "SIM002"


class TestRunner:
    def test_syntax_error_is_a_finding(self):
        result = lint_source("broken.py", "def broken(:\n")
        assert [f.rule for f in result.findings] == ["SIM999"]

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('"""Doc."""\nimport random\nx = random.random()\n')
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "SIM002"
        assert payload["files_checked"] == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_src_lints_clean_via_module_entry_point(self):
        """The acceptance command: python -m tools.simlint src/ exits 0."""
        proc = subprocess.run(
            [sys.executable, "-m", "tools.simlint", "src"],
            cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_simlint_lints_itself_clean(self):
        """Self-check: the linter passes its own rules (and the repo has no
        unexplained suppressions anywhere in tools/)."""
        result = lint_paths([REPO_ROOT / "tools"])
        assert result.ok, [f.render() for f in result.findings]
        assert all(s.justified for s in result.suppressions)
