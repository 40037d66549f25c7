"""tools/ab.py: its per-metric summary of the two sides' runs.

The comparison itself (two trees, one perfbench process per run) is not run here.
"""

import importlib.util
from pathlib import Path

AB = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("frqme_ab", AB)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

P50 = {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def test_summary_prints_medians_quartiles_and_change():
    line, verdict = ab.summary(P50, [0.9, 1.0, 1.0, 1.1, 1.0], [1.2, 1.2, 1.2, 1.2, 1.2])
    assert line == ("op_p50_s: 1 [1, 1] -> 1.2 [1.2, 1.2] +20.0%, bound 25%: within bound")
    assert verdict == "within bound"


def test_summary_is_worse_only_past_the_bound_in_the_metric_direction():
    assert ab.summary(P50, [1.0, 1.0, 1.0], [1.3, 1.3, 1.3])[1] == "worse"
    assert ab.summary(P50, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5])[1] == "better"
    assert ab.summary(RATE, [10.0, 10.0, 10.0], [7.0, 7.0, 7.0])[1] == "worse"
    assert ab.summary(RATE, [10.0, 10.0, 10.0], [20.0, 20.0, 20.0])[1] == "better"


def test_summary_is_better_only_on_nine_tenths_of_the_pairs():
    rev = [1.0 + 0.01 * i for i in range(10)]
    nine = [r - 0.2 for r in rev[:9]] + [rev[9]]  # the last pair a tie
    assert ab.summary(P50, rev, nine)[1] == "better"
    eight = [r - 0.2 for r in rev[:8]] + [rev[8] + 0.01, rev[9]]
    assert ab.summary(P50, rev, eight)[1] == "within bound"
    assert ab.summary(RATE, rev, [r + 0.2 for r in rev[:8]] + rev[8:])[1] == "within bound"


def test_summary_is_not_better_by_a_gain_inside_the_parent_spread():
    # REV's quartiles 1.025 and 1.175: every pair won, but the median gains only 0.1
    rev = [1.0, 1.0, 1.0, 1.1, 1.1, 1.1, 1.1, 1.2, 1.2, 1.2]
    assert ab.summary(P50, rev, [r - 0.1 for r in rev])[1] == "within bound"
    assert ab.summary(P50, rev, [r - 0.3 for r in rev])[1] == "better"


def test_summary_is_unresolved_when_either_spread_is_past_the_bound():
    # quartiles 1.0 and 1.5 around a median of 1.25: an IQR of 40% of the median
    wide = [1.0, 1.0, 1.25, 1.5, 1.5]
    assert ab.summary(P50, wide, [1.25] * 5)[1] == "unresolved"
    assert ab.summary(P50, [1.25] * 5, wide)[1] == "unresolved"
    # a median worse by more than the bound is "worse", however wide the spread
    assert ab.summary(P50, [1.0] * 5, [2.0, 2.0, 2.5, 3.0, 3.0])[1] == "worse"
