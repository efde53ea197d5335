"""Table 1 — time-to-accuracy speedups of Egeria over the vanilla baseline.

The paper reports 19%–43% TTA speedups across seven model/dataset workloads
without accuracy loss.  This bench trains vanilla and Egeria on each scaled
workload, computes the TTA speedup against the vanilla converged accuracy and
prints the paper-vs-measured rows.
"""

from conftest import print_rows
from oracles.sim_reference import closed_form_seconds

from repro.core.trainer import BaseTrainer
from repro.experiments import available_workloads, build_workload, run_table1_tta, run_trainer

#: CV workloads show the clearest speedups at tiny scale; the NLP workloads
#: are included for structure/accuracy verification and run with the rest.
_WORKLOADS = (
    "resnet56_cifar10",
    "resnet50_imagenet",
    "mobilenet_v2_cifar10",
    "transformer_tiny_wmt16",
    "bert_squad",
)


def test_table1_tta_speedup(benchmark, scale):
    rows = benchmark.pedantic(
        lambda: run_table1_tta(scale=scale, workload_names=_WORKLOADS),
        rounds=1, iterations=1,
    )
    print_rows("Table 1: TTA speedups (paper vs measured)", rows,
               keys=["workload", "paper_model", "metric", "paper_tta_speedup", "measured_tta_speedup",
                     "vanilla_final", "egeria_final", "egeria_reached_target"])

    assert len(rows) == len(_WORKLOADS)
    # Egeria must reach the vanilla-derived accuracy target on every workload
    # (the paper's "without sacrificing accuracy" claim).
    assert all(row["egeria_reached_target"] for row in rows)
    # And at least the CNN workloads (where the deep stages dominate the
    # parameter count and training is long enough for freezing to engage)
    # must show a positive TTA speedup.
    cnn_rows = [row for row in rows if row["workload"].startswith(("resnet", "mobilenet"))]
    assert any(row["measured_tta_speedup"] is not None and row["measured_tta_speedup"] > 0.0
               for row in cnn_rows)


def test_table1_event_backend_matches_closed_form_at_small_scale(benchmark, monkeypatch):
    """Drive the Table 1 workloads through the event engine at the "small"
    scale and assert event/closed-form agreement within 5%.

    One training run per workload carries both clocks — the discrete-event
    engine replaying every iteration, and ``CostModel.iteration`` summed
    alongside it for the same freezing state — so the comparison isolates
    the simulated time from the training math.
    """
    epochs = 4
    closed_form = []
    account = BaseTrainer._account_iteration_time

    def account_both(trainer):
        closed_form.append(closed_form_seconds(trainer))
        account(trainer)

    monkeypatch.setattr(BaseTrainer, "_account_iteration_time", account_both)

    def run():
        rows = []
        for name in _WORKLOADS:
            workload = build_workload(name, scale="small", seed=0)
            closed_form.clear()
            event = run_trainer("egeria", workload, num_epochs=epochs)
            closed = sum(closed_form)
            rows.append({
                "workload": name,
                "event_simulated_time": event["simulated_time"],
                "closed_form_simulated_time": closed,
                "deviation": abs(event["simulated_time"] - closed) / closed if closed else 0.0,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows("Table 1 workloads, small scale: event vs closed-form simulated time", rows)
    assert len(rows) == len(_WORKLOADS)
    for row in rows:
        assert row["event_simulated_time"] > 0.0
        assert row["closed_form_simulated_time"] > 0.0
        assert row["deviation"] < 0.05, row


def test_table1_full_workload_coverage(benchmark, scale):
    """The registry covers all seven Table 1 workloads (cheap structural check)."""
    names = benchmark(available_workloads)
    assert set(names) == {
        "resnet56_cifar10", "resnet50_imagenet", "mobilenet_v2_cifar10", "deeplabv3_voc",
        "transformer_base_wmt16", "transformer_tiny_wmt16", "bert_squad",
    }
