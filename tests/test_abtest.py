"""``tools/abtest.py``: the verdict rule, the per-metric summary and the pass rule, on synthetic numbers."""

import pytest

from tools import abtest

METRICS = [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
#: A bound wide enough that no case below but the regression ones crosses it,
#: and narrow enough that a tenth of it (the minimum effect) stays inside their gaps.
BOUND = 0.5


def test_nine_of_ten_wins_and_a_gap_beyond_the_base_iqr_is_better():
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    head = [b + 10.0 for b in base[:9]] + [base[9] - 1.0]
    assert abtest.verdict(base, head, higher_is_better=True, bound=BOUND) == "better"
    # The same numbers read as a cost: the head is worse.
    assert abtest.verdict(base, head, higher_is_better=False, bound=BOUND) == "worse"


def test_eight_of_ten_wins_is_unresolved_however_large_the_gap():
    base = [100.0] * 10
    head = [200.0] * 8 + [99.0, 99.0]
    assert abtest.verdict(base, head, higher_is_better=True, bound=BOUND) == "unresolved"


def test_a_gap_inside_the_base_iqr_is_unresolved_even_with_every_pair_won():
    base = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
    head = [b + 1.0 for b in base]
    assert abtest.verdict(base, head, higher_is_better=True, bound=BOUND) == "unresolved"


def test_a_gap_below_a_tenth_of_the_bound_is_unresolved_however_many_pairs_agree():
    # sim_contended peak_rss_mb at AB_41: +0.3 % in the median, 1 of 10 pairs
    # won, a gap beyond the base's IQR; the bound is 15 %.
    base = [45.9921875, 45.953125, 45.9609375, 46.03515625, 45.91796875,
            45.9609375, 46.046875, 46.06640625, 46.12109375, 46.12109375]
    head = [46.17578125, 46.08984375, 46.12890625, 46.12109375, 46.01953125,
            46.17578125, 46.1953125, 46.19921875, 46.1875, 46.08984375]
    assert abtest.pair_wins(base, head, higher_is_better=False) == (1, 9)
    assert abtest.verdict(base, head, higher_is_better=False, bound=0.15) == "unresolved"
    # The same pairs against a bound ten times narrower clear the minimum effect.
    assert abtest.verdict(base, head, higher_is_better=False, bound=0.015) == "worse"


def test_ties_win_nothing():
    assert abtest.pair_wins([1.0, 2.0, 3.0], [1.0, 2.5, 2.0], higher_is_better=True) == (1, 1)
    assert abtest.verdict([1.0, 1.0], [1.0, 1.0], higher_is_better=True, bound=BOUND) == "unresolved"


def test_a_median_worse_by_more_than_the_bound_is_regressed_however_few_pairs_lose():
    base = [100.0] * 10
    head = [75.0] * 8 + [101.0, 101.0]  # -25 % in the median, 8 of 10 pairs lost
    assert abtest.verdict(base, head, higher_is_better=True, bound=0.2) == "regressed"
    assert abtest.verdict(base, head, higher_is_better=True, bound=0.3) == "unresolved"
    # A cost that grows by more than its bound, on one pair.
    assert abtest.verdict([0.4], [0.52], higher_is_better=False, bound=0.25) == "regressed"
    assert abtest.verdict([0.4], [0.48], higher_is_better=False, bound=0.25) == "unresolved"


def test_one_pair_is_unresolved_and_two_can_resolve():
    assert abtest.verdict([0.5], [0.4], higher_is_better=False, bound=BOUND) == "unresolved"
    assert abtest.verdict([0.5, 0.52], [0.4, 0.41], higher_is_better=False, bound=BOUND) == "better"


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        abtest.verdict([1.0, 2.0], [1.0], higher_is_better=True, bound=BOUND)
    with pytest.raises(ValueError):
        abtest.verdict([], [], higher_is_better=True, bound=BOUND)


def test_summary_reports_medians_quartiles_deltas_and_wins():
    runs = [{"base": {"metrics": {"work_per_s": {"value": b}, "setup_s": {"value": s}}},
             "head": {"metrics": {"work_per_s": {"value": h}, "setup_s": {"value": t}}}}
            for b, h, s, t in [(100.0, 120.0, 0.30, 0.31), (104.0, 118.0, 0.32, 0.30), (96.0, 119.0, 0.34, 0.33)]]
    summary = abtest.summarize(runs, METRICS)
    work = summary["work_per_s"]
    assert work["base"]["median"] == 100.0 and work["head"]["median"] == 119.0
    assert work["base"]["quartiles"][1] == 100.0 and work["base"]["quartiles"][0] < 100.0 < work["base"]["quartiles"][2]
    assert work["paired_deltas"] == [20.0, 14.0, 23.0]
    assert (work["wins"], work["pairs"], work["verdict"]) == (3, 3, "better")
    assert work["change"] == pytest.approx(0.19)
    setup = summary["setup_s"]
    assert setup["wins"] == 2 and setup["verdict"] == "unresolved"
    report = {"workloads": {"w": {"correct": True, "failed_share": {"base": 0.0, "head": 0.0}, "metrics": summary}}}
    assert abtest.verdict_lines(report) == [
        "w work_per_s: 100 -> 119 1/s (+19.0%), 3/3 wins, better",
        "w setup_s: 0.32 -> 0.31 s (-3.1%), 2/3 wins, unresolved"]


def _report(verdicts=("unresolved",), correct=True, failed=(0.0, 0.0)):
    metrics = {f"m{i}": {"verdict": v} for i, v in enumerate(verdicts)}
    return {"workloads": {"w": {"correct": correct, "failed_share": {"base": failed[0], "head": failed[1]},
                                "metrics": metrics}}}


def test_the_report_passes_unless_a_metric_regressed_a_run_is_incorrect_or_more_checks_fail():
    assert abtest.passed(_report(("better", "worse", "unresolved")))
    assert not abtest.passed(_report(("better", "regressed")))
    assert not abtest.passed(_report(correct=False))
    assert not abtest.passed(_report(failed=(0.0, 0.01)))
    assert abtest.passed(_report(failed=(0.02, 0.01)))


def test_the_failed_share_is_pooled_over_runs_and_a_larger_one_gets_its_own_line():
    runs = [{"base": {"attempted": 10, "failed": 0}, "head": {"attempted": 10, "failed": 1}},
            {"base": {"attempted": 30, "failed": 0}, "head": {"attempted": 30, "failed": 1}}]
    assert abtest.failed_share(runs, "base") == 0.0 and abtest.failed_share(runs, "head") == 0.05
    report = _report(failed=(0.0, 0.05))
    report["workloads"]["w"]["metrics"] = {}
    assert abtest.verdict_lines(report) == ["w failed checks: 0.0000 -> 0.0500 of those attempted, regressed"]
