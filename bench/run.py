#!/usr/bin/env python3
"""The repo benchmark: seven workloads over the Egeria trainer and the cluster simulator.

Two ways to run it (see README.md):

* ``python3 bench/run.py --workload W --seed S --seconds N --trace 0|1`` measures
  one workload in this process for N seconds and prints, as the last line
  of stdout, ``{"correct", "attempted", "failed", "metrics"}`` — every
  end-to-end metric of BENCHMARK.json with ``--trace 0``, every per-layer
  metric with ``--trace 1``.
* ``python3 bench/run.py [--workload W ...] [--seed S] [--runs R] [--traced]
  [--out FILE]`` runs each workload that way in a fresh child process and
  writes one JSON report (the input of ``compare.py``).
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_SEEDS = range(5)
#: Child processes a run starts only to time set-up again (setup_s is a median).
SETUP_PROBES = 2


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def declared() -> dict:
    """BENCHMARK.json: the workloads and metrics this program must report."""
    return _read_json(ROOT / "BENCHMARK.json")


def load_program():
    """Import the benchmark's modules (and with them ``repro``) from this checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
    for path in (str(BENCH_DIR), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import clock
    import layers
    import tracer
    import workloads
    return workloads, layers, tracer, clock


class Context:
    """What a workload may use: its seed, the clock, the tracer and a scratch directory."""

    def __init__(self, seed: int, quick: bool, clock, golden: dict):
        self.seed, self.quick, self.golden = seed, quick, golden
        self.clock, self.tracer = clock, clock.tracer
        self.unit_seed = seed  # seed of the unit being set up or run
        self.scratch = OUT_DIR / f"run-{os.getpid()}"
        self._dirs = 0

    def new_dir(self, label: str) -> str:
        self._dirs += 1
        path = self.scratch / f"{label}{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def clean(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _late_early_ratio(per_epoch: list) -> float:
    """Mean seconds per call over the last 5 epochs / over the first 5."""
    per_epoch = [calls for calls in per_epoch if calls]
    width = min(5, len(per_epoch) // 2)
    if not width:
        return 0.0
    early = [d for calls in per_epoch[:width] for d in calls]
    late = [d for calls in per_epoch[-width:] for d in calls]
    return (sum(late) / len(late)) / (sum(early) / len(early))


class LayerLedger:
    """Self times and call counts summed over a run's traced units."""

    def __init__(self, tracing, layers):
        self.tracing, self.layers = tracing, layers
        self.units = 0
        self.busy, self.calls, self.timed_s = {}, {}, 0.0
        self.forward_epochs, self.backward_epochs = [], []

    def add(self, spans: list) -> None:
        busy, calls = self.tracing.self_times(spans)
        for key, value in busy.items():
            self.busy[key] = self.busy.get(key, 0.0) + value
        for key, value in calls.items():
            self.calls[key] = self.calls.get(key, 0) + value
        self.timed_s += sum(end - start for name, start, end, _ in spans
                            if name == self.tracing.TIMED)
        if not self.units:
            self.forward_epochs = self.tracing.durations_by_parent(
                spans, "nn.forward", self.layers.TRAIN_EPOCH)
            self.backward_epochs = self.tracing.durations_by_parent(
                spans, "nn.backward", self.layers.TRAIN_EPOCH)
        self.units += 1

    def metrics(self, units: list, listed: list) -> dict:
        """Every per-layer metric: the first unit's exact counters, the span sums per unit."""
        traced, untraced = units[0::2], units[1::2]
        save_ms = [ms for unit in units for ms in unit.samples.get("ckpt.save_ms", [])]
        restore_ms = [ms for unit in units for ms in unit.samples.get("ckpt.restore_ms", [])]
        values = dict(units[0].counters)
        values.update({
            "nn.forward.late_early_ratio": _late_early_ratio(self.forward_epochs),
            "nn.backward.late_early_ratio": _late_early_ratio(self.backward_epochs),
            "ckpt.save_ms_p50": statistics.median(save_ms) if save_ms else 0.0,
            "ckpt.save_ms_p90": statistics.quantiles(save_ms, n=10)[-1] if save_ms else 0.0,
            "ckpt.restore_ms_p50": statistics.median(restore_ms) if restore_ms else 0.0,
            "trace.unaccounted_frac": self.busy.get(self.tracing.TIMED, 0.0) / self.timed_s,
            "trace.overhead_frac": (statistics.median(unit.timed_s for unit in traced)
                                    / statistics.median(unit.timed_s for unit in untraced) - 1.0),
        })
        for metric in listed:
            layer, _, kind = metric["name"].rpartition(".")
            if kind == "busy_s":
                values[metric["name"]] = self.busy.get(layer, 0.0) / self.units
            elif kind == "calls":
                values[metric["name"]] = self.calls.get(layer, 0) / self.units
        return values


def start(name: str, seed: int, quick: bool, started: float):
    """Everything before the first unit: imports, context, input generation, warm-up.

    Returns ``(modules, workload, ctx, seconds since started)``.
    """
    modules = load_program()
    workloads, _, tracing, clock = modules
    workload = workloads.WORKLOADS[name]()
    ctx = Context(seed, quick, clock.Clock(tracing.Tracer()),
                  _read_json(BENCH_DIR / "golden.json"))
    workload.prepare(ctx)
    workload.warm_up(ctx)
    return modules, workload, ctx, perf_counter() - started


def probe_setup(name: str, seed: int, quick: bool, started: float) -> float:
    """Seconds from ``started`` to a first unit ready to run (one ``setup_s`` sample)."""
    _, workload, ctx, _ = start(name, seed, quick, started)
    try:
        workload.set_up(ctx)
        return perf_counter() - started
    finally:
        ctx.clean()


def _probe_in_child(name: str, seed: int, quick: bool) -> float:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-probe"] + (["--quick"] if quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return float(done.stdout)


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
            trace_out: str = None, started: float = None, setup_probes: int = 0) -> dict:
    """Run one workload for ``seconds``; returns the result object and a log.

    With ``trace`` the units alternate traced/untraced, so one run yields
    the per-layer self times and the tracer's own overhead.  ``setup_s`` is
    the median of this process's own set-up and of ``setup_probes`` fresh
    child processes that only set up.
    """
    started = perf_counter() if started is None else started
    (workloads, layers, tracing, _), workload, ctx, ready_s = start(name, seed, quick, started)
    tracer, ledger = ctx.tracer, LayerLedger(tracing, layers)
    units, unit_seeds, setup_samples, walls = [], [], [], []
    try:
        window_start = perf_counter()
        while True:
            # Tracing alternates traced/untraced units; each pair shares a seed.
            index = len(units) // 2 if trace else len(units)
            ctx.unit_seed = seed + index % workloads.SEED_CYCLE
            traced = trace and len(units) % 2 == 0
            if traced:
                tracer.install(layers.TARGETS)
            try:
                unit_start = perf_counter()
                with tracer.region(tracing.SETUP) as setup:
                    state = workload.set_up(ctx)
                units.append(workload.run(ctx, state))
                walls.append(perf_counter() - unit_start)
            finally:
                tracer.uninstall()
            unit_seeds.append(ctx.unit_seed)
            setup_samples.append(setup.seconds)
            if traced:
                spans = tracer.take()
                if trace_out and not ledger.units:
                    tracing.write_chrome_trace(spans, trace_out, f"bench {name} seed {seed}")
                ledger.add(spans)
            elapsed = perf_counter() - window_start
            if len(units) >= (2 if trace else 1) and \
                    elapsed + statistics.median(walls) > seconds:
                break
    finally:
        ctx.clean()

    checks = [check for unit in units for check in unit.checks]
    first = {}
    for unit_seed, unit in zip(unit_seeds, units):
        if unit_seed in first:
            checks.append(("units of one seed repeat bit for bit",
                           unit.digest == first[unit_seed].digest))
        first.setdefault(unit_seed, unit)
    failures = sorted({label for label, ok in checks if not ok})

    spec = declared()
    if trace:
        listed = spec["per_layer"]
        values = ledger.metrics(units, listed)
    else:
        listed = spec["end_to_end"]
        setups = [ready_s + statistics.median(setup_samples)]
        setups += [_probe_in_child(name, seed, quick) for _ in range(setup_probes)]
        values = {
            "setup_s": statistics.median(setups) / ctx.clock.typical_slowdown(),
            "work_per_s": statistics.median(unit.items / unit.timed_s for unit in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}
    return {"result": {"correct": not failures, "attempted": len(checks),
                       "failed": sum(1 for _, ok in checks if not ok), "metrics": metrics},
            "units": len(units), "failures": failures}


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #
def _pin_environment() -> None:
    """One BLAS/OpenMP thread, sanitizer off: before numpy is first imported."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    os.environ.pop("REPRO_SIMSAN", None)


def _print_metrics(name: str, outcome: dict) -> None:
    result = outcome["result"]
    print(f"{name}: {outcome['units']} units, {result['failed']} of {result['attempted']} "
          f"checks failed (failed_ops_frac {result['failed'] / result['attempted']:.4f})")
    for label in outcome["failures"]:
        print(f"  FAILED: {label}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<46} {entry['value']:>16.6g} {entry['unit']}")


def run_single(args) -> int:
    _pin_environment()
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(repr(probe_setup(args.workload[0], args.seed, args.quick, _PROCESS_START)))
        return 0
    outcome = measure(args.workload[0], args.seed, args.seconds, bool(args.trace),
                      quick=args.quick, trace_out=args.trace_out, started=_PROCESS_START,
                      setup_probes=SETUP_PROBES)
    _print_metrics(args.workload[0], outcome)
    print(json.dumps(outcome["result"]))
    return 0


def _child(name: str, seed: int, args, trace: bool) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(int(trace))]
    if args.quick:
        command.append("--quick")
    if trace:
        command += ["--trace-out", str(OUT_DIR / f"{name}.trace.json")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    return {"seed": seed, **json.loads(lines[-1])}


def run_all(args) -> int:
    spec = declared()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    OUT_DIR.mkdir(exist_ok=True)
    report = {"seconds": args.seconds, "quick": args.quick, "workloads": {}}
    for name in names:
        entry = {"runs": [_child(name, args.seed + i, args, trace=False)
                          for i in range(args.runs)]}
        if args.traced:
            entry["traced"] = _child(name, args.seed, args, trace=True)
        report["workloads"][name] = entry
    out = args.out or str(OUT_DIR / "report.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"report written to {out}")
    entries = report["workloads"].values()
    results = [run for entry in entries for run in entry["runs"]]
    results += [entry["traced"] for entry in entries if "traced" in entry]
    return 0 if all(run["correct"] for run in results) else 1


def dump_scenario(args) -> int:
    workloads = load_program()[0]
    OUT_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        workload = workloads.WORKLOADS[name]()
        if not isinstance(workload, workloads.SimWorkload):
            sys.exit(f"bench: {name} is not a scenario workload")
        path = OUT_DIR / f"{name}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(workload.generator(args.seed, args.quick), handle, indent=1)
        print(f"{path}  (replay: PYTHONPATH=src python -m repro.cli sim run {path})")
    return 0


def write_golden() -> int:
    """Measure golden.json once: final-loss spread and scenario digests, seeds 0-4."""
    _pin_environment()
    workloads, _, tracing, clock = load_program()
    golden = {"seeds": list(GOLDEN_SEEDS), "final_loss": {}, "sim_digest": {}}
    for name, build in workloads.WORKLOADS.items():
        units = []
        for seed in GOLDEN_SEEDS:
            workload = build()
            ctx = Context(seed, False, clock.Clock(tracing.Tracer()),
                          {"final_loss": {}, "sim_digest": {}})
            try:
                workload.prepare(ctx)
                units.append(workload.run(ctx, workload.set_up(ctx)))
            finally:
                ctx.clean()
            print(name, seed, units[-1].digest[:12], flush=True)
        if isinstance(workload, workloads.SimWorkload):
            golden["sim_digest"][name] = {str(s): u.digest for s, u in zip(GOLDEN_SEEDS, units)}
        else:
            losses = [unit.counters["final_loss"] for unit in units]
            golden["final_loss"][name] = {"spread": max(losses) - min(losses),
                                          "by_seed": dict(zip(map(str, GOLDEN_SEEDS), losses))}
    with open(BENCH_DIR / "golden.json", "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable)",
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of one run's measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure one workload in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--trace-out", help="with --trace 1: Chrome trace_event JSON of one unit")
    parser.add_argument("--traced", action="store_true", help="also run the traced pass")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload, seeds S..")
    parser.add_argument("--out", help="report path (default bench/out/report.json)")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--dump-scenario", action="store_true",
                        help="write the generated scenario JSON of --workload and exit")
    parser.add_argument("--write-golden", action="store_true", help="re-measure golden.json")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set one workload up, print the seconds it took and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.dump_scenario:
        if not args.workload:
            parser.error("--dump-scenario needs --workload")
        return dump_scenario(args)
    if args.trace is not None or args.setup_probe:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace and --setup-probe need exactly one --workload")
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
