"""The paired-run summary of ``tools/bench_pairs.py``: wins, ties, the gain rule,
metrics worse beyond the base's spread, the per-pair ratios and whether the
routing outcomes stayed identical."""
import importlib.util
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "episodes_per_s", "unit": "1/s", "better": "higher"}
DELAY = {"name": "mean_delay_s", "unit": "s", "better": "lower"}


def pairs(base, change, name):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


def test_ties_count_for_neither_side():
    out = bench_pairs.compare(pairs([1.0, 2.0, 3.0], [1.0, 2.5, 2.0], "episodes_per_s"),
                              [RATE])["episodes_per_s"]
    assert out["change_wins"] == 1 and out["pairs"] == 3
    assert not out["gain_rule_met"]


def test_lower_is_better_flips_the_sign():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [x - 1.0 for x in base]
    out = bench_pairs.compare(pairs(base, faster, "mean_delay_s"), [DELAY])["mean_delay_s"]
    assert out["change_wins"] == 10 and out["gain_rule_met"]
    out = bench_pairs.compare(pairs(base, faster, "episodes_per_s"),
                              [RATE])["episodes_per_s"]
    assert out["change_wins"] == 0 and not out["gain_rule_met"]


@pytest.mark.parametrize("shift, wins, met", [
    (1.0, 10, True),    # every pair won, median gap 1.0 > base IQR 0.175
    (0.1, 10, False),   # every pair won, but the gap is inside the base's spread
])
def test_gain_rule_needs_the_gap_beyond_the_base_iqr(shift, wins, met):
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    out = bench_pairs.compare(pairs(base, [x + shift for x in base], "episodes_per_s"),
                              [RATE])["episodes_per_s"]
    assert out["base"]["q3"] - out["base"]["q1"] == pytest.approx(0.175)
    assert (out["change_wins"], out["gain_rule_met"]) == (wins, met)


def test_gain_rule_needs_nine_tenths_of_the_pairs():
    base = [10.0] * 10
    change = [12.0] * 8 + [9.0] * 2
    out = bench_pairs.compare(pairs(base, change, "episodes_per_s"), [RATE])["episodes_per_s"]
    assert out["change_wins"] == 8 and not out["gain_rule_met"]
    change = [12.0] * 9 + [9.0]
    out = bench_pairs.compare(pairs(base, change, "episodes_per_s"), [RATE])["episodes_per_s"]
    assert out["change_wins"] == 9 and out["gain_rule_met"]


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.175


@pytest.mark.parametrize("metric, shift, worse", [
    (RATE, -1.0, True),    # higher is better and the change's median fell by 1.0
    (RATE, 1.0, False),
    (RATE, -0.1, False),   # fell, but by less than the base's spread
    (DELAY, 1.0, True),    # lower is better and the change's median rose by 1.0
    (DELAY, -1.0, False),
    (DELAY, 0.1, False),
    (RATE, 0.0, False),    # a tie in every pair
    (DELAY, 0.0, False),
])
def test_worse_beyond_spread_follows_the_better_direction(metric, shift, worse):
    name = metric["name"]
    out = bench_pairs.compare(pairs(BASE, [x + shift for x in BASE], name), [metric])
    assert out[name]["worse_beyond_spread"] is worse
    assert out["worse_beyond_spread"] == ([name] if worse else [])


def test_worse_beyond_spread_lists_each_worse_metric():
    runs = [{"base": {"metrics": {"episodes_per_s": b, "mean_delay_s": b,
                                  "setup_s": b}},
             "change": {"metrics": {"episodes_per_s": b - 1.0, "mean_delay_s": b + 1.0,
                                    "setup_s": b - 1.0}}} for b in BASE]
    setup = {"name": "setup_s", "unit": "s", "better": "lower"}
    out = bench_pairs.compare(runs, [RATE, DELAY, setup])
    assert out["worse_beyond_spread"] == ["episodes_per_s", "mean_delay_s"]
    assert out["setup_s"]["gain_rule_met"] and not out["setup_s"]["worse_beyond_spread"]


OUTCOME_METRICS = [{"name": name, "unit": "", "better": "higher"}
                   for name in ("delivery_rate", "mean_quality", "mean_delay_s")]
OUTCOMES = {"delivery_rate": 0.625, "mean_quality": 0.7, "mean_delay_s": 0.31}


def outcome_pairs():
    return [{"base": {"metrics": dict(OUTCOMES)}, "change": {"metrics": dict(OUTCOMES)}}
            for _ in range(3)]


def test_outcomes_identical_when_every_pair_is_equal():
    out = bench_pairs.compare(outcome_pairs(), OUTCOME_METRICS)
    assert out["outcomes_identical"] is True


@pytest.mark.parametrize("name", list(OUTCOMES))
def test_one_pair_off_in_the_last_bit_is_not_identical(name):
    runs = outcome_pairs()
    runs[-1]["change"]["metrics"][name] = math.nextafter(OUTCOMES[name], math.inf)
    out = bench_pairs.compare(runs, OUTCOME_METRICS)
    assert out["outcomes_identical"] is False


def test_outcomes_identical_is_none_without_outcome_metrics():
    out = bench_pairs.compare(pairs([1.0], [2.0], "episodes_per_s"), [RATE])
    assert out["outcomes_identical"] is None


def test_summary_lines_give_medians_ratio_wins_and_both_rules():
    runs = [{"base": {"metrics": {"episodes_per_s": b, "mean_delay_s": b}},
             "change": {"metrics": {"episodes_per_s": b + 1.0, "mean_delay_s": b + 1.0}}}
            for b in BASE]
    metrics = [RATE, DELAY]
    lines = bench_pairs.summary_lines("eval_busy", bench_pairs.compare(runs, metrics), metrics)
    assert lines == [
        "eval_busy episodes_per_s: base 10 change 11 ratio 1.1000 "
        "paired 1.1000 [1.0990, 1.1008] wins 10/10 "
        "gain_rule_met True worse_beyond_spread False",
        "eval_busy mean_delay_s: base 10 change 11 ratio 1.1000 "
        "paired 1.1000 [1.0990, 1.1008] wins 0/10 "
        "gain_rule_met False worse_beyond_spread True",
    ]


def test_summary_line_ratio_is_nan_on_a_zero_base():
    out = bench_pairs.compare(pairs([0.0], [0.0], "episodes_per_s"), [RATE])
    line, = bench_pairs.summary_lines("w", out, [RATE])
    assert "ratio nan paired nan [nan, nan] wins 0/1" in line


def test_paired_ratio_summarises_the_per_pair_ratios():
    # Seeds whose workloads differ by 20 % spread the base's runs far more
    # than a steady 5 % gain, which every pair's own ratio shows.
    base = [8.0, 10.0, 12.0, 9.0, 11.0]
    change = [b * r for b, r in zip(base, [1.04, 1.05, 1.06, 1.05, 1.05])]
    out = bench_pairs.compare(pairs(base, change, "episodes_per_s"),
                              [RATE])["episodes_per_s"]
    assert out["paired_ratio"] == pytest.approx({"median": 1.05, "q1": 1.05, "q3": 1.05})
    assert out["change_wins"] == 5 and not out["gain_rule_met"]


def test_paired_ratio_skips_zero_bases_and_leaves_both_rules_alone():
    out = bench_pairs.compare(pairs([0.0, 2.0, 4.0], [1.0, 3.0, 2.0], "episodes_per_s"),
                              [RATE])["episodes_per_s"]
    assert out["paired_ratio"] == pytest.approx({"median": 1.0, "q1": 0.75, "q3": 1.25})
    out = bench_pairs.compare(pairs([0.0], [1.0], "episodes_per_s"), [RATE])["episodes_per_s"]
    assert out["paired_ratio"] is None
    assert out["change_wins"] == 1 and out["gain_rule_met"]
    assert not out["worse_beyond_spread"]
