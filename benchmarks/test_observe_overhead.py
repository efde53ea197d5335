"""Overhead budget of SimScope on a multi-job fault-injection scenario.

The CI acceptance criterion for the observability layer: a run with the full
observer attached (tracer + metrics) and one with the constructed-but-disabled
null sink stay bit-identical to the plain run, the full observer records real
data (spans, instants, metric series), and the observer's *work* stays
proportional to what the simulation does — stated as exact call counts:

* the simulator calls a hook once per iteration, per scheduler decision and
  per reservation, never per event;
* each hook records O(1) items: one instant per decision, two metric samples
  per reservation, a bounded handful per iteration and committed window;
* the null sink is called at the same hook sites and records nothing; the
  plain run constructs no observer and makes no call at all.

The budget used to be wall-clock ratios against the plain run (traced
<= 1.30x, null sink <= 1.05x); a ratio like that tightens whenever the
simulator itself gets faster, although the observer's cost did not move.
Seconds are still printed, and asserted nowhere.
"""

import collections
import copy
import json
import time

from conftest import print_rows
from repro.sim import run_scenario
from repro.sim.observe import MetricsRegistry, SimObserver, Tracer

_ITERATIONS = 150

#: Two ToR-colocated jobs plus a cross-rack one, periodic checkpoints, one
#: mid-run GPU failure with recovery and one preempt/resume cycle — enough
#: event diversity to exercise every observer hook on the hot path.
_SCENARIO = {
    "cluster": {"num_machines": 4, "gpus_per_machine": 2, "num_tor_switches": 2,
                "nic_gbps": 1.0, "tor_uplink_gbps": 1.0, "core_gbps": 0.5,
                "per_tor_fabric": True},
    "placement": "round_robin",
    "jobs": [
        {"name": "a", "modules": [400000, 800000, 600000], "batch_size": 4,
         "num_workers": 4, "iterations": _ITERATIONS, "policy": "egeria",
         "frozen_prefix": 1, "checkpoint_every": 25, "storage": "ckpt-store"},
        {"name": "b", "modules": [500000, 500000, 500000], "batch_size": 4,
         "num_workers": 4, "iterations": _ITERATIONS, "arrival_time": 0.5,
         "checkpoint_every": 30, "storage": "ckpt-store"},
    ],
    "failures": [{"gpu": "node0:gpu0", "at_time": 3.0, "recover_at": 6.0}],
    "preemptions": [{"job": "b", "at_time": 4.0}],
    "resumes": [{"job": "b", "at_time": 7.0}],
}

#: The simulator's hook sites and the recorders behind them.
_HOOKS = ("note_cluster", "note_iteration", "scheduler_event", "note_reserve", "finalize")
_RECORDERS = ((Tracer, "span"), (Tracer, "instant"), (MetricsRegistry, "counter_add"),
              (MetricsRegistry, "gauge_set"), (MetricsRegistry, "observe"))


def _count_calls(monkeypatch):
    """Count every hook and recorder call from here on; returns the live counter."""
    calls = collections.Counter()
    for owner, name in [(SimObserver, hook) for hook in _HOOKS] + list(_RECORDERS):
        def counted(*args, _original=getattr(owner, name), _label=name, **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def _run(observe):
    """One scenario run with the given ``observe`` setting; returns the report."""
    spec = copy.deepcopy(_SCENARIO)
    if observe is not None:
        spec["observe"] = observe
    return run_scenario(spec)


def _comparable(report):
    """The report as a canonical JSON string, minus observer-only keys."""
    stripped = {key: value for key, value in report.items() if key != "metrics"}
    return json.dumps(stripped, sort_keys=True)


def test_observe_overhead_and_transparency(benchmark, monkeypatch):
    """Bit-identical under both observers; O(1) observer calls per simulated action."""

    def run_all():
        # Best-of-3 per configuration for the printed seconds.
        seconds = {"plain": float("inf"), "null": float("inf"), "traced": float("inf")}
        reports = {}
        for _ in range(3):
            for label, observe in (("plain", None),
                                   ("null", {"trace": False, "metrics": False}),
                                   ("traced", True)):
                start = time.perf_counter()
                reports[label] = _run(observe)
                seconds[label] = min(seconds[label], time.perf_counter() - start)
        return seconds, reports

    seconds, reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    assert _comparable(reports["null"]) == _comparable(reports["plain"]), \
        "null-sink observer perturbed the simulation"
    assert _comparable(reports["traced"]) == _comparable(reports["plain"]), \
        "full observer perturbed the simulation"
    # The full observer must have done real work, not short-circuited.
    assert reports["traced"]["metrics"], "traced run recorded no metrics"
    assert "metrics" not in reports["plain"]
    print_rows("SimScope wall-clock (bit-identical; informational)", [
        {"config": label, "seconds": seconds[label]} for label in ("plain", "null", "traced")])

    calls = _count_calls(monkeypatch)
    counted = {}
    for label, observe in (("plain", None), ("null", {"trace": False, "metrics": False}),
                           ("traced", True)):
        calls.clear()
        assert _comparable(_run(observe)) == _comparable(reports["plain"])
        counted[label] = dict(calls)
    print_rows("SimScope calls per run", [{"config": label, **{
        name: counted[label].get(name, 0) for name in _HOOKS + tuple(n for _o, n in _RECORDERS)}}
        for label in ("plain", "null", "traced")])

    assert counted["plain"] == {}, "a plain run reached the observer"
    traced, null = counted["traced"], counted["null"]
    recorders = [name for _owner, name in _RECORDERS]
    assert not any(null.get(name) for name in recorders), "the null sink recorded something"
    assert {hook: null[hook] for hook in _HOOKS} == {hook: traced[hook] for hook in _HOOKS}, \
        "the null sink is not called at the traced run's hook sites"

    perf = reports["plain"]["perf"]
    iterations = perf["iterations_simulated"] + perf["iterations_fast_forwarded"]
    windows = sum(entry["num_transfers"] for entry in reports["plain"]["resources"].values())
    assert traced["note_cluster"] == 1 and traced["finalize"] <= 2  # run() + run_scenario()
    assert traced["note_iteration"] == iterations            # once per iteration, not per event
    # Once per reservation: at least the committed windows (some were
    # cancelled), at most a bucket per module on both uplinks and the core
    # every iteration plus the storage transfers.
    storage = reports["plain"]["resources"]["ckpt-store"]["num_transfers"]
    assert windows <= traced["note_reserve"] <= iterations * 3 * 3 + storage
    assert traced["instant"] == traced["scheduler_event"]    # one instant per decision
    assert traced["observe"] <= traced["note_reserve"] + traced["scheduler_event"]
    assert traced["span"] <= iterations + traced["scheduler_event"] + windows
    assert traced["counter_add"] <= iterations + traced["scheduler_event"] + windows
    assert traced["gauge_set"] <= (iterations + 1 + traced["note_reserve"]
                                   + 2 * traced["scheduler_event"])
