"""The verdicts ``tools/pairs.py`` writes beside each metric's paired runs."""

import importlib.util
from pathlib import Path

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def _summary():
    spec = importlib.util.spec_from_file_location("tools_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summary


BASE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, IQR 0.45


def test_a_gain_needs_nine_wins_in_ten_and_a_median_gap_beyond_the_base_iqr():
    summary = _summary()
    shown = summary(BASE, [b - 0.5 for b in BASE], "lower", 0.25)
    assert (shown["wins"], shown["gain_shown"], shown["within_bound"]) == (10, True, True)
    # nine wins, the tenth pair a tie, which counts for neither side
    tied = summary(BASE, [b - 0.5 for b in BASE[:9]] + [BASE[9]], "lower", 0.25)
    assert (tied["wins"], tied["gain_shown"]) == (9, True)
    # eight wins: not shown, however large the gap
    eight = summary(BASE, [b / 10 for b in BASE[:8]] + [b + 1 for b in BASE[8:]], "lower", 0.25)
    assert (eight["wins"], eight["gain_shown"]) == (8, False)
    # every pair won, by a median gap inside the base's spread
    narrow = summary(BASE, [b - 0.4 for b in BASE], "lower", 0.25)
    assert (narrow["wins"], narrow["gain_shown"]) == (10, False)
    # the higher-is-better direction
    higher = summary(BASE, [b + 0.5 for b in BASE], "higher", 0.001)
    assert (higher["wins"], higher["gain_shown"], higher["within_bound"]) == (10, True, True)


def test_the_bound_is_a_share_of_the_base_median_in_the_metrics_direction():
    summary = _summary()
    # a median 24% and 26% above the base's, lower being better
    assert summary(BASE, [b * 1.24 for b in BASE], "lower", 0.25)["within_bound"]
    assert not summary(BASE, [b * 1.26 for b in BASE], "lower", 0.25)["within_bound"]
    # a ratio that must not fall: 1 -> 0.9995 is within 0.001, 0.99 is not
    ones = [1.0] * 10
    assert summary(ones, [0.9995] * 10, "higher", 0.001)["within_bound"]
    assert not summary(ones, [0.99] * 10, "higher", 0.001)["within_bound"]
    same = summary(ones, ones, "higher", 0.001)
    assert (same["wins"], same["gain_shown"], same["within_bound"]) == (0, False, True)
