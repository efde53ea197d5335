"""``tools/linecov.py``: the line collector and the report built from its files."""

import importlib.util
import json
import os
import sys
import textwrap

from tools import linecov

FIXTURE = textwrap.dedent('''\
    def entered(flag):
        if flag:
            return 1
        unused = 2
        return unused


    def never():
        return 3


    def benchmarked():
        return 4
''')


def test_report_lists_the_never_entered_function_and_the_unexecuted_block(tmp_path, monkeypatch):
    src = (tmp_path / "src").resolve()
    src.mkdir()
    module_path = src / "fixture_mod.py"
    module_path.write_text(FIXTURE, encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    monkeypatch.setattr(linecov, "SRC", src)
    monkeypatch.setattr(linecov, "_prefix", str(src) + os.sep)
    monkeypatch.setattr(linecov, "_todo", {})
    monkeypatch.setattr(linecov, "_wanted", {})
    monkeypatch.setenv(linecov.ENV_DATA, str(data))

    previous = sys.gettrace()
    try:
        linecov._settrace(None)  # what pytest-benchmark hands over: the collector goes back in
        assert sys.gettrace() is linecov._global
        spec = importlib.util.spec_from_file_location("fixture_mod", module_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.entered(True) == 1
        linecov._settrace(None)
        assert module.benchmarked() == 4
    finally:
        sys.settrace(previous)
    linecov._dump()

    (written,) = data.glob("linecov-*.json")
    assert json.loads(written.read_text(encoding="utf-8"))["format"] == linecov.FORMAT
    result = linecov.report(data)
    assert result["processes"] == 1
    assert result["never_entered"] == [{"file": "src/fixture_mod.py", "line": 8,
                                        "function": "never", "lines": 1}]
    assert result["blocks"] == [{"file": "src/fixture_mod.py", "first": 4, "last": 5,
                                 "function": "entered", "lines": 2}]
    assert (result["never_entered_lines"], result["block_lines"]) == (1, 2)


def test_blocks_join_missing_lines_across_non_executable_ones():
    # 11 and 12 are blank or comments (not executable): 10 and 13 form one block.
    assert linecov._blocks({10, 13, 20}, {10, 13, 14, 20}) == [(10, 13), (20, 20)]


def test_own_lines_leave_out_the_def_line():
    code = compile("def f():\n    x = 1\n    return x\n", "m.py", "exec")
    (function,) = [const for const in code.co_consts if hasattr(const, "co_lines")]
    assert linecov._own_lines(function) == {2, 3}
    assert linecov._own_lines(code) == {1}


def _subcommands(parser, prefix=()):
    """Every ``repro`` subcommand path, e.g. ``("sim", "run")``, read off the parser."""
    import argparse

    paths = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = _subcommands(sub, (*prefix, name))
                paths.extend(nested or [(*prefix, name)])
    return paths


def test_preset_names_every_entry_point():
    """A new example, workload or subcommand cannot drop out of the never-entered count."""
    from repro.cli import build_parser
    from repro.models.registry import WORKLOADS

    root = linecov.ROOT
    words = {word for command in linecov.PRESET for word in command}
    examples = {f"examples/{path.name}" for pattern in ("*.py", "*.json")
                for path in (root / "examples").glob(pattern)}
    assert examples and examples <= words

    bench = {row["name"] for row in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    bench_runs = {words[words.index("--workload") + 1] for words in linecov.PRESET
                  if "bench/run.py" in words}
    assert bench and bench <= bench_runs

    cli = [words[words.index("repro.cli") + 1:] for words in linecov.PRESET if "repro.cli" in words]
    assert set(WORKLOADS) <= {args[args.index("--workload") + 1] for args in cli if "--workload" in args}
    for path in _subcommands(build_parser()):
        assert any(tuple(args[:len(path)]) == path for args in cli), path
