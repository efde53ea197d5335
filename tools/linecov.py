#!/usr/bin/env python3
"""Line collector: which ``src/`` functions and lines a command never executes.

Usage::

    timeout 2400 python -m tools.linecov run --data .linecov -- python -m pytest -x -q
    python -m tools.linecov run --data .linecov -- python3 bench/run.py --workload sim_steady
    python -m tools.linecov run --preset --data .linecov
    python -m tools.linecov report --data .linecov   # never-entered functions, then blocks

``run`` executes the command with a ``sitecustomize`` hook on
``PYTHONPATH`` that installs a ``sys.settrace`` collector in every Python
process the command starts (the command itself, and any subprocess that
inherits the environment).  Only frames whose file lies under ``src/`` are
traced line by line.  Each process writes ``linecov-<pid>.json`` into
the ``--data`` directory when it exits: the lines it executed and the functions it entered,
per file.  A forked child (a ``multiprocessing`` worker) writes its own file
too, from threading's exit hook, which a pool worker shut down by
``close()``/``join()`` runs before its ``os._exit``.  A process killed by a
signal writes nothing, and the collector installs no signal handler, so the
programs it observes keep their own.  ``run`` never empties that directory,
so several commands accumulate.

``run --preset`` runs :data:`PRESET` instead of one command: every entry
point outside ``tests/`` (each ``repro`` subcommand, example, ``bench/``
workload and Table 1 workload, ``pytest benchmarks`` and
``tools.fingerprint --check``), one after another.  Its never-entered count
is the number a change to ``src/`` is measured by; it takes about a quarter
of an hour on two cores.

Each file is written when the interpreter starts shutting down, before any
``atexit`` handler runs, so a handler that hangs cannot lose it; wrap long
runs in ``timeout`` all the same.

Tools that pause tracing call ``sys.settrace(None)`` — pytest-benchmark does
around every benchmarked call — so the collector wraps ``sys.settrace`` and
re-installs itself whenever it is handed ``None``; without that every
benchmark body would read as unexecuted.

``report`` merges every file in the directory and compares it with the code
objects of each ``src/`` module: a function is *never entered* when no
process called its code object, and a *block* is a run of consecutive
executable lines that never ran inside a function that was entered.  It is
stdlib only (Python 3.11 has no ``sys.monitoring``) and slow: tier-1 under
the collector takes several times its plain wall time, so it is a tool, not
a test.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType, FrameType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV_DATA = "LINECOV_DATA"
FORMAT = "repro.linecov/1"

#: Per entered ``src/`` code object: the lines it can report that have not run
#: yet.  A code object whose every line has run is no longer traced, which is
#: what keeps hot, fully exercised loops near full speed.
_todo: Dict[CodeType, Set[int]] = {}
#: Filename -> whether it lies under ``src/`` (decided once per file).
_wanted: Dict[str, bool] = {}
_prefix = str(SRC) + os.sep
_real_settrace: Callable = sys.settrace


def _own_lines(code: CodeType) -> Set[int]:
    """Lines a frame of ``code`` can report, minus the ``def`` line its parent runs.

    Line 0 is the module prologue; a function's first line (``def`` or first
    decorator) runs in the enclosing scope and never reports from inside.
    """
    own = {line for _start, _end, line in code.co_lines() if line}
    if code.co_name != "<module>":
        own.discard(code.co_firstlineno)
    return own


def _local(frame: FrameType, event: str, arg: object) -> Optional[Callable]:
    if event == "line":
        todo = _todo[frame.f_code]
        todo.discard(frame.f_lineno)
        if not todo:
            return None  # every line of this code has run: stop tracing the frame
    return _local


def _global(frame: FrameType, event: str, arg: object) -> Optional[Callable]:
    code = frame.f_code
    todo = _todo.get(code)
    if todo is None:
        filename = code.co_filename
        wanted = _wanted.get(filename)
        if wanted is None:
            wanted = _wanted[filename] = filename.startswith(_prefix)
        if not wanted:
            return None
        todo = _todo[code] = _own_lines(code)
    return _local if todo else None


def _settrace(func: Optional[Callable]) -> None:
    """``sys.settrace`` that puts the collector back when handed ``None``."""
    _real_settrace(_global if func is None else func)


def _dump() -> None:
    data = os.environ.get(ENV_DATA)
    if not data:
        return
    files: Dict[str, Dict[str, List[int]]] = {}
    for code, todo in list(_todo.items()):
        record = files.setdefault(code.co_filename, {"lines": [], "entered": []})
        record["lines"].extend(_own_lines(code) - todo)
        record["entered"].append(code.co_firstlineno)
    for record in files.values():
        record["lines"] = sorted(set(record["lines"]))
        record["entered"] = sorted(set(record["entered"]))
    path = Path(data) / f"linecov-{os.getpid()}.json"
    path.write_text(json.dumps({"format": FORMAT, "files": files}, sort_keys=True),
                    encoding="utf-8")


def _after_fork() -> None:
    """A forked child starts empty and writes its own file when it exits.

    A ``multiprocessing`` child leaves through ``os._exit`` right after
    ``threading._shutdown()``, so ``atexit`` never runs there: the child
    writes from threading's exit hook.
    """
    for code in list(_todo):
        _todo[code] = _own_lines(code)
    with contextlib.suppress(RuntimeError):  # forked while the parent was shutting down
        threading._register_atexit(_dump)


def install() -> None:
    """Start collecting in this process (called by the ``sitecustomize`` hook).

    The file is written when the interpreter starts shutting down, before
    any ``atexit`` handler runs (one that hangs cannot lose it), and again
    after them.
    """
    sys.settrace = _settrace
    _real_settrace(_global)
    threading.settrace(_global)
    threading._register_atexit(_dump)
    atexit.register(_dump)
    os.register_at_fork(after_in_child=_after_fork)


_HOOK = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_repro_linecov", {path!r})
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.install()
"""


def run(data: Path, command: Sequence[str], env: Optional[Dict[str, str]] = None,
        **popen: object) -> int:
    """Run ``command`` with the collector installed in each of its Python processes.

    ``env`` replaces the inherited environment and ``popen`` (``cwd``,
    ``stdout``) goes to :func:`subprocess.call`.
    """
    data.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="linecov-hook-") as hook:
        Path(hook, "sitecustomize.py").write_text(_HOOK.format(path=str(Path(__file__).resolve())),
                                                  encoding="utf-8")
        env = dict(os.environ if env is None else env)
        env[ENV_DATA] = str(data.resolve())
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (hook, env.get("PYTHONPATH", "")) if part)
        return subprocess.call(list(command), env=env, **popen)


# --------------------------------------------------------------------------- #
# Preset
# --------------------------------------------------------------------------- #
_REPRO = ("python", "-m", "repro.cli")
_SYSTEMS = ("vanilla", "egeria", "autofreeze", "skipconv", "static_freeze", "freezeout")
_SCENARIOS = ("examples/scenario_faults.json", "examples/scenario_fault_storm.json",
              "examples/scenario_fault_domains.json")
#: ``sim`` commands run four ways, as ``(environment, flags)``: plain, with
#: fair-share links, and both under SimSan (whose fair-rate check needs both).
_FAIR = ("--policy", "fair")
_SIM_MODES = (((), ()), ((), _FAIR), (("REPRO_SIMSAN=1",), ()), (("REPRO_SIMSAN=1",), _FAIR))

#: What ``run --preset`` runs, in order, from the repository root with ``src``
#: on ``PYTHONPATH``.  ``python`` is this interpreter, ``{tmp}`` one scratch
#: directory for the whole run, and leading ``NAME=value`` words set the
#: environment.  ``tests/test_linecov.py`` checks that it names every
#: example, ``bench/`` workload, Table 1 workload and ``repro`` subcommand.
PRESET: Tuple[Tuple[str, ...], ...] = (
    *(("python", "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "3",
       "--trace", "1")
      for workload in ("train_cnn_egeria", "train_cnn_vanilla", "train_xfmr_egeria", "ckpt_cycle",
                       "sim_contended", "sim_steady", "sim_fault_storm")),
    *(("python", f"examples/{name}.py")
      for name in ("quickstart", "image_classification_freezing", "distributed_training",
                   "translation_and_finetuning")),
    (*_REPRO, "list"),
    (*_REPRO, "train", "--workload", "resnet56_cifar10", "--system", "egeria"),
    *((*_REPRO, "compare", "--workload", workload, "--systems", *_SYSTEMS)
      for workload in ("resnet56_cifar10", "resnet50_imagenet", "mobilenet_v2_cifar10",
                       "deeplabv3_voc", "transformer_tiny_wmt16", "transformer_base_wmt16",
                       "bert_squad")),
    (*_REPRO, "ckpt", "save", "--workload", "resnet56_cifar10", "--epochs", "3",
     "--dir", "{tmp}/ckpt"),
    (*_REPRO, "ckpt", "inspect", "--dir", "{tmp}/ckpt"),
    (*_REPRO, "ckpt", "restore", "--workload", "resnet56_cifar10", "--epochs", "4",
     "--dir", "{tmp}/ckpt"),
    # Adam's buffers take the other restore path (``Adam._load_buffer_state``).
    (*_REPRO, "ckpt", "save", "--workload", "transformer_tiny_wmt16", "--epochs", "2",
     "--dir", "{tmp}/ckpt-adam"),
    (*_REPRO, "ckpt", "restore", "--workload", "transformer_tiny_wmt16", "--epochs", "3",
     "--dir", "{tmp}/ckpt-adam"),
    *((*env, *_REPRO, "sim", command, scenario, *flags)
      for env, flags in _SIM_MODES for command in ("run", "faults") for scenario in _SCENARIOS),
    (*_REPRO, "sim", "run", "examples/scenario_fault_storm.json", "--out", "{tmp}/report.json",
     "--trace-out", "{tmp}/trace.json", "--metrics-out", "{tmp}/metrics.json"),
    ("python", "tools/check_trace.py", "--trace", "{tmp}/trace.json",
     "--metrics", "{tmp}/metrics.json", "--report", "{tmp}/report.json"),
    (*_REPRO, "sim", "profile", "examples/scenario_faults.json", "--out", "{tmp}/profile.json"),
    (*_REPRO, "sim", "profile", "examples/scenario_faults.json", "--policy", "fair",
     "--baseline", "{tmp}/profile.json"),
    ("REPRO_SIMSAN=1", *_REPRO, "sim", "profile", "examples/scenario_faults.json"),
    (*_REPRO, "sim", "sweep", "examples/sweep_oversubscription.json"),
    ("REPRO_SIMSAN=1", *_REPRO, "sim", "sweep", "examples/sweep_oversubscription.json"),
    ("python", "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"),
    ("python", "-m", "tools.fingerprint", "--check"),
)


def run_preset(data: Path) -> int:
    """Run every :data:`PRESET` command under the collector; 1 if any of them failed."""
    base = {name: value for name, value in os.environ.items() if name != "REPRO_SIMSAN"}
    base["PYTHONPATH"] = os.pathsep.join(part for part in (str(SRC), base.get("PYTHONPATH", ""))
                                         if part)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="linecov-preset-") as scratch:
        for index, words in enumerate(PRESET, 1):
            print(f"[{index}/{len(PRESET)}] {' '.join(words)}", flush=True)
            env, argv = dict(base), []
            for word in words:
                if not argv and "=" in word:
                    name, value = word.split("=", 1)
                    env[name] = value
                else:
                    argv.append(sys.executable if word == "python" else word.format(tmp=scratch))
            code = run(data, argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
            if code:
                failed += 1
                print(f"  exit {code}", flush=True)
    return 1 if failed else 0


# --------------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------------- #
def load(data: Path) -> Tuple[Dict[str, Set[int]], Dict[str, Set[int]], int]:
    """Union of every process file in ``data``: ``(lines, entered, processes)``."""
    lines: Dict[str, Set[int]] = {}
    entered: Dict[str, Set[int]] = {}
    paths = sorted(data.glob("linecov-*.json"))
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        for name, record in payload["files"].items():
            lines.setdefault(name, set()).update(record["lines"])
            entered.setdefault(name, set()).update(record["entered"])
    return lines, entered, len(paths)


def _functions(code: CodeType) -> Iterator[CodeType]:
    """Every code object nested in ``code`` (not ``code`` itself), depth first."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const
            yield from _functions(const)


def _blocks(missing: Set[int], executable: Set[int]) -> List[Tuple[int, int]]:
    """Group missing lines into runs with no executed executable line between them."""
    runs: List[Tuple[int, int]] = []
    for line in sorted(missing):
        if runs and all(between not in executable or between in missing
                        for between in range(runs[-1][1] + 1, line)):
            runs[-1] = (runs[-1][0], line)
        else:
            runs.append((line, line))
    return runs


def report(data: Path) -> Dict[str, object]:
    """Never-entered ``src/`` functions and unexecuted blocks, merged over ``data``."""
    lines, entered, processes = load(data)
    never: List[Dict[str, object]] = []
    blocks: List[Dict[str, object]] = []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.resolve())
        module = compile(path.read_text(encoding="utf-8"), name, "exec")
        executed = lines.get(name, set())
        called = entered.get(name, set())
        relative = str(path.relative_to(SRC.parent))
        for code in [module, *_functions(module)]:
            own = _own_lines(code)
            if code is not module and code.co_firstlineno not in called:
                if not code.co_name.startswith("<"):  # lambdas and comprehensions
                    never.append({"file": relative, "line": code.co_firstlineno,
                                  "function": code.co_qualname, "lines": len(own)})
                continue
            missing = own - executed
            if code is module and name not in lines:
                continue  # a module nothing imported: its functions are listed above
            for first, last in _blocks(missing, own):
                blocks.append({"file": relative, "first": first, "last": last,
                               "function": code.co_qualname,
                               "lines": sum(1 for line in missing if first <= line <= last)})
    return {"processes": processes, "never_entered": never, "blocks": blocks,
            "never_entered_lines": sum(int(row["lines"]) for row in never),
            "block_lines": sum(int(row["lines"]) for row in blocks)}


def _print(result: Dict[str, object]) -> None:
    print(f"{result['processes']} process files")
    never = result["never_entered"]
    print(f"never-entered src/ functions: {len(never)} "
          f"({result['never_entered_lines']} executable lines)")
    for row in never:
        print(f"  {row['file']}:{row['line']}  {row['function']}  ({row['lines']} lines)")
    blocks = result["blocks"]
    print(f"unexecuted blocks in entered code: {len(blocks)} ({result['block_lines']} lines)")
    for row in blocks:
        span = row["first"] if row["first"] == row["last"] else f"{row['first']}-{row['last']}"
        print(f"  {row['file']}:{span}  {row['function']}  ({row['lines']} lines)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run a command under the collector")
    run_parser.add_argument("--data", type=Path, required=True, help="directory for the process files")
    run_parser.add_argument("--preset", action="store_true",
                            help="run the PRESET command list instead of one command")
    run_parser.add_argument("cmd", nargs=argparse.REMAINDER, help="-- command and arguments")
    report_parser = commands.add_parser("report", help="merge the process files and print")
    report_parser.add_argument("--data", type=Path, required=True, help="directory of process files")
    args = parser.parse_args(argv)
    if args.command == "run":
        command = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
        if args.preset:
            if command:
                parser.error("run --preset takes no command")
            return run_preset(args.data)
        if not command:
            parser.error("run needs a command after -- (or --preset)")
        return run(args.data, command)
    _print(report(args.data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
