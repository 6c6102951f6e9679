"""The verdict of scripts/bench_pairs.py on fixed numbers; it runs no benchmark."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten base runs, median 1.0, quartiles 0.98 .. 1.02 (IQR 0.04)
BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_the_base_quartiles_are_the_ones_perfbench_reports():
    q1, median, q3 = bench_pairs.quartiles(BASE)
    assert median == pytest.approx(1.0)
    assert (q1, q3) == (pytest.approx(0.98), pytest.approx(1.02))


def test_nine_wins_of_ten_and_a_gap_beyond_the_iqr_are_a_gain():
    change = [b - 0.1 for b in BASE]
    change[3] = BASE[3] + 0.01  # one pair lost
    v = bench_pairs.verdict(BASE, change, "lower")
    assert (v["wins"], v["losses"], v["pairs"]) == (9, 1, 10)
    assert v["gap"] == pytest.approx(0.1) and v["base_iqr"] == pytest.approx(0.04)
    assert v["gain"]


def test_eight_wins_of_ten_are_no_gain_however_large_the_gap():
    change = [b - 0.5 for b in BASE]
    change[3] = change[5] = 2.0
    v = bench_pairs.verdict(BASE, change, "lower")
    assert (v["wins"], v["losses"]) == (8, 2)
    assert v["gap"] > v["base_iqr"] and not v["gain"]


def test_ties_count_for_neither_side():
    change = [b - 0.1 for b in BASE]
    change[0] = BASE[0]  # a tie: nine wins, no loss, still nine tenths
    v = bench_pairs.verdict(BASE, change, "lower")
    assert (v["wins"], v["losses"]) == (9, 0) and v["gain"]
    change[1] = BASE[1]  # two ties: eight wins of ten pairs
    v = bench_pairs.verdict(BASE, change, "lower")
    assert (v["wins"], v["losses"]) == (8, 0) and not v["gain"]


def test_a_gap_inside_the_base_iqr_is_no_gain_though_every_pair_is_won():
    change = [b - 0.03 for b in BASE]
    v = bench_pairs.verdict(BASE, change, "lower")
    assert v["wins"] == 10 and v["gap"] == pytest.approx(0.03)
    assert not v["gain"]


def test_a_higher_is_better_metric_is_judged_the_other_way():
    raised = [b + 0.1 for b in BASE]
    assert bench_pairs.verdict(BASE, raised, "higher")["gain"]
    v = bench_pairs.verdict(BASE, raised, "lower")
    assert (v["wins"], v["losses"]) == (0, 10) and v["gap"] < 0 and not v["gain"]


def test_unpaired_samples_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.verdict(BASE, BASE[:-1], "lower")
