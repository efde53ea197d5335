"""What a fresh interpreter imports: no graph library anywhere, nothing outside
``repro.sim`` for ``import repro.sim``, no training stack for ``repro sim``, and a
pinned number of ``repro`` modules per entry point.

``networkx`` is a test-only dependency.  The checks run in a fresh
interpreter because the test process itself has ``networkx`` loaded by
``tests/oracles/sim_reference.py`` and the whole training stack by the other
tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_POINTS = ("repro", "repro.experiments", "repro.sim.scenario", "repro.cli", "repro.ckpt", "repro.core")


#: The packages that train a model; a ``repro sim`` command needs none of them.
TRAINING_STACK = ("repro.nn", "repro.core", "repro.models", "repro.optim", "repro.data", "repro.experiments")


def _loaded_modules(probe: str) -> list:
    """``probe`` runs in a fresh interpreter and prints a JSON list of module names."""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
                            check=True, timeout=120)
    return json.loads(result.stdout.splitlines()[-1])


def test_entry_points_import_no_networkx():
    probe = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0].startswith('networkx'))))\n"
    )
    assert _loaded_modules(probe) == []


def test_sim_run_without_workload_jobs_imports_no_training_stack(tmp_path):
    """``repro sim run`` on a scenario whose jobs are module lists: parser, scenario and report only."""
    scenario = ROOT / "tests" / "fixtures" / "sim_steady-seed0.json"
    assert all("modules" in job for job in json.loads(scenario.read_text())["jobs"])
    probe = (
        "import json, sys\n"
        "from repro.cli import main\n"
        f"assert main(['sim', 'run', {str(scenario)!r}, '--out', {str(tmp_path / 'report.json')!r}]) == 0\n"
        f"stack = {TRAINING_STACK!r}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(stack))))\n"
    )
    assert _loaded_modules(probe) == []
    assert json.loads((tmp_path / "report.json").read_text())["num_jobs"] == 4


def test_sim_imports_only_itself():
    """The simulator stands alone: ``import repro.sim`` loads the root package and ``repro.sim.*``."""
    probe = (
        "import json, sys\n"
        "import repro.sim\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    loaded = _loaded_modules(probe)
    assert "repro.sim.scenario" in loaded
    assert [m for m in loaded if not m.startswith("repro.sim.") and m != "repro.sim"] == []


#: ``repro`` modules a fresh interpreter holds after importing each entry point.
#: An exact counter: a module added to or cut from an entry point's import
#: graph shows here.
REPRO_MODULES = {"repro.experiments": 75, "repro.core": 54, "repro.cli": 24, "repro.sim.scenario": 19}


@pytest.mark.parametrize("entry_point", sorted(REPRO_MODULES))
def test_entry_point_loads_a_pinned_number_of_repro_modules(entry_point):
    probe = (
        "import importlib, json, sys\n"
        f"importlib.import_module({entry_point!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))))\n"
    )
    assert len(_loaded_modules(probe)) == REPRO_MODULES[entry_point]
