"""Figure 2 — premature freezing with transfer-learning techniques hurts accuracy.

The paper freezes layer modules statically at an early epoch (and with a
gradient-based metric) and observes up to ~2% final-accuracy loss versus the
no-freeze baseline — the motivation for plasticity-guided freezing.
"""

from conftest import print_rows

from repro.experiments import run_fig2_premature_freezing


def test_fig2_premature_freezing(benchmark, scale):
    result = benchmark.pedantic(lambda: run_fig2_premature_freezing(scale=scale), rounds=1, iterations=1)

    rows = [
        {"system": name, "final_accuracy": final,
         "accuracy_drop_vs_baseline": result["accuracy_drop"].get(name, 0.0),
         "frozen_fraction": result["frozen_fraction"].get(name, 0.0)}
        for name, final in result["final"].items()
    ]
    print_rows("Figure 2: premature freezing vs no-freeze baseline", rows)

    assert set(result["curves"]) == {"no_freeze", "static_freeze", "gradient_metric"}
    assert all(len(curve) == len(result["epochs"]) for curve in result["curves"].values())
    # The premature-freezing runs actually froze a substantial share of the model.
    assert result["frozen_fraction"]["static_freeze"] > 0.0
    # Shape check: the aggressive freezing baselines do not *beat* the full
    # baseline, and at least one of them loses accuracy (the paper's ~1-2%).
    assert min(result["final"]["static_freeze"], result["final"]["gradient_metric"]) < result["final"]["no_freeze"]
    # A final accuracy is read on 16 validation samples and moves by +-0.2 from
    # seed to seed (one seed in five breaks "does not beat" by a sample or two,
    # before and after the stem BatchNorm started to freeze with its layer
    # module), so that half compares means over seeds; the two extra seeds run
    # outside the timed section.
    results = [result] + [run_fig2_premature_freezing(scale=scale, seed=seed) for seed in (1, 2)]
    final = {name: sum(r["final"][name] for r in results) / len(results) for name in result["final"]}
    assert final["static_freeze"] <= final["no_freeze"] + 0.05
    assert final["gradient_metric"] <= final["no_freeze"] + 0.05
