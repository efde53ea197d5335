"""The runtime imports no graph library: ``networkx`` is a test-only dependency.

The check runs in a fresh interpreter because the test process itself has
``networkx`` loaded by ``tests/oracles/sim_reference.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = ("repro", "repro.experiments", "repro.sim.scenario", "repro.cli", "repro.ckpt", "repro.core")


def test_entry_points_import_no_networkx():
    probe = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0].startswith('networkx'))))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
                            check=True, timeout=120)
    assert json.loads(result.stdout) == []
