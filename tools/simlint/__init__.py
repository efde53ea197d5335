"""SimLint: a determinism lint pass for the simulator core.

The cluster simulator's headline guarantees are *invariants* — bit-identical
fast-forward replay, byte-conserving re-flow, worker-count-independent sweep
output.  Those invariants die quietly when nondeterminism leaks into the
code: a wall-clock read inside the event loop, an unseeded global RNG, a
``set`` whose iteration order feeds event scheduling.  SimLint statically
forbids those bug classes, and the imports that would tie the simulator to
the training stack, with a plugin-based AST analyzer where every rule is a
visitor class with a stable id:

========  ==============================================================
SIM001    no wall-clock reads inside ``repro.sim`` (sim time must flow
          from the event loop)
SIM002    no unseeded global ``random`` / ``numpy.random`` state
SIM003    unordered-iteration hazard: iterating (or declaring) a ``set``
          whose elements can feed event scheduling or output ordering
SIM004    float ``==`` / ``!=`` on simulated timestamps (use the
          ``repro.sim.simtime`` tolerance helpers, or justify exactness)
SIM005    mutable default arguments
SIM006    missing type annotations / docstrings on ``repro.sim`` public API
SIM007    an import of a ``repro`` package that the layer table
          (``rules.LAYERS``) does not allow — lazy and ``TYPE_CHECKING``
          imports included
========  ==============================================================

Findings can be suppressed inline with a *justified* comment::

    busy = time.time()  # simlint: disable=SIM001 -- host-side profiling only

A ``disable`` without the ``-- justification`` text is itself reported
(SIM000), so every suppression in the tree explains itself.  A committed
baseline file (``tools/simlint/baseline.json``) grandfathers known findings
during incremental adoption.  Run it as::

    python -m tools.simlint src/            # text output, exit 1 on findings
    python -m tools.simlint src/ --format json

See ``docs/correctness.md`` for every rule's rationale and fix pattern.
"""

from .report import Finding, Suppression
from .rules import ALL_RULES, Rule, rule_index
from .runner import LintResult, lint_file, lint_paths, lint_source, main

__all__ = [
    "Finding",
    "Suppression",
    "Rule",
    "ALL_RULES",
    "rule_index",
    "LintResult",
    "lint_source",
    "lint_file",
    "lint_paths",
    "main",
]
