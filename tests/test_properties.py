"""Property-based tests of the Doppler kernel, the scaled exponential
integral, the leakage average, the power budget, the normalized Doppler and
the config parser, and how pytest reports a failing property."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbofdma import numerics, sweep  # noqa: E402
from nbofdma.analytic import (NormalizedDoppler, effective_useful_power, leakage,  # noqa: E402
                              power_budget)
from nbofdma.numerics import exp1_scaled, sinc_squared  # noqa: E402
from nbofdma.sysmodel import SystemConfig  # noqa: E402

# derandomized and without an example database, so a run is repeatable and
# leaves no files behind
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

gaps = st.integers(min_value=-1000, max_value=1000)
offsets = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@PROPERTY
@given(gaps, st.integers(min_value=-5, max_value=5))
def test_whole_number_offsets_off_the_centre_give_zero(gap, whole):
    value = sinc_squared(float(gap), np.array([float(whole)]))[0]
    assert value == (1.0 if gap + whole == 0 else 0.0)


@PROPERTY
@given(gaps, offsets)
def test_never_above_one(gap, offset):
    assert sinc_squared(float(gap), np.array([offset]))[0] <= 1.0


@PROPERTY
@given(gaps, offsets)
def test_even_bit_for_bit(gap, offset):
    forward = sinc_squared(float(gap), np.array([offset]))
    backward = sinc_squared(-float(gap), np.array([-offset]))
    assert forward.view(np.uint64)[0] == backward.view(np.uint64)[0]


def _ulps(a, b) -> int:
    # distance in representable doubles between two finite non-negative values
    return abs(int(np.array(a).view(np.int64)) - int(np.array(b).view(np.int64)))


spans = st.floats(min_value=0.0, max_value=2.0, exclude_min=True)


@PROPERTY
@given(gaps, spans, st.floats(min_value=-1.0, max_value=1.0))
def test_a_span_changes_the_kernel_by_rounding_only(gap, span, fraction):
    # the cut series changes sin(pi r) by at most 2 ulp (the worst of 10^7
    # random draws); squaring doubles that, and the square and the division
    # round once more each (the kernel's worst draw moved 5 ulp)
    offset = span * fraction
    r = offset - np.rint(offset)
    assert _ulps(abs(numerics.sin_pi(r, span=span)), abs(numerics.sin_pi(r))) <= 2
    sized = sinc_squared(float(gap), np.array([offset]), span)[0]
    assert _ulps(sized, sinc_squared(float(gap), np.array([offset]))[0]) <= 6


@PROPERTY
@given(st.floats(min_value=0.0, max_value=0.49, exclude_min=True),
       st.floats(min_value=-1.0, max_value=1.0))
def test_the_unclamped_sine_stays_inside_one(span, fraction):
    # up to a span of 0.49 sin_pi skips its clamp: sin(0.49 pi) = 0.99951
    value = numerics.sin_pi(np.array([span * fraction]), span=span)[0]
    assert -1.0 < value < 1.0


exp1_arguments = st.floats(min_value=1e-6, max_value=1e4)


@PROPERTY
@given(exp1_arguments)
def test_exp1_scaled_within_its_bounds(x):
    # Abramowitz & Stegun 5.1.20
    value = exp1_scaled(x)
    assert np.log1p(2.0 / x) / 2.0 < value < np.log1p(1.0 / x)


@PROPERTY
@given(st.lists(exp1_arguments, min_size=1, max_size=40))
def test_exp1_scaled_is_non_increasing_across_the_seam(points):
    seam = numerics._EXP1_SEAM
    grid = np.unique(points + [seam * (1.0 - 1e-9), seam, seam * (1.0 + 1e-9)])
    # keep neighbours at least 1e-12 relative apart: over such a step the
    # function falls by at least 7e-14 relative, far above its 2e-15 error,
    # while adjacent floats can swap order by rounding
    kept = [grid[0]]
    for x in grid[1:]:
        if x > kept[-1] * (1.0 + 1e-12):
            kept.append(x)
    values = exp1_scaled(np.array(kept))
    assert np.all(np.diff(values) <= 0.0)


# carrier and speed up to 6 GHz and 6000 m/s, so beta = V_max f_c T_s / c
# reaches 48 at the default 2.5 kHz spacing
carriers = st.floats(min_value=1e8, max_value=6e9)
speeds = st.floats(min_value=0.0, max_value=6000.0)


@PROPERTY
@given(carriers, speeds, st.floats(min_value=-1e5, max_value=1e5))
def test_leakage_even_bit_for_bit(fc, v, offset):
    cfg = SystemConfig(carrier_frequency_hz=fc)
    forward = np.float64(leakage(offset, v, cfg))
    backward = np.float64(leakage(-offset, v, cfg))
    assert forward.view(np.uint64) == backward.view(np.uint64)


@PROPERTY
@given(carriers, speeds)
def test_leakage_matches_the_useful_power_route(fc, v):
    cfg = SystemConfig(carrier_frequency_hz=fc)
    useful = effective_useful_power(v, cfg)
    assert abs(leakage(0.0, v, cfg) * cfg.effective_power - useful) <= 1e-9 * useful


@PROPERTY
@given(carriers, st.floats(min_value=250.0, max_value=1e5),
       st.integers(min_value=0, max_value=1000), speeds)
def test_power_budget_adds_up_to_the_transmit_power(fc, spacing, n, v):
    cfg = SystemConfig(carrier_frequency_hz=fc, subcarrier_spacing_hz=spacing,
                       half_subcarriers=n, bandwidth_hz=0.0)
    budget = power_budget(v, cfg)
    assert abs(budget.useful + budget.ici - cfg.effective_power) \
        <= 1e-12 * cfg.effective_power


@PROPERTY
@given(carriers, st.floats(min_value=250.0, max_value=1e5), st.sampled_from([1, 2, 3]),
       st.one_of(st.just(0.0), st.floats(min_value=1e-290, max_value=6000.0)))
def test_normalized_doppler_derives_from_the_span(fc, spacing, q, v):
    # b = pi x / (T_s df) with x = V_max / c * f_c * T_s is the paper's
    # pi V_max f_c / (c df), T_s cancelling up to rounding; below about
    # 7e-300 m/s, V_max / c is subnormal and keeps fewer bits
    cfg = SystemConfig(carrier_frequency_hz=fc, subcarrier_spacing_hz=spacing,
                       symbol_period_s=q / spacing, bandwidth_hz=0.0)
    b = NormalizedDoppler.from_configs(v, cfg).b
    assert b == math.pi * cfg.doppler_span(v) / q
    paper = math.pi * v * fc / (cfg.wave_speed_mps * spacing)
    assert abs(b - paper) <= 2e-15 * paper


# every key a config may set, curve overrides included, and values at the
# edges of each key's range
SCENARIO_KEYS = [*sweep._SCENARIO_KEYS]
CONFIG_KEYS = st.sampled_from(
    SCENARIO_KEYS + [*sweep._MC_KEYS]
    + [f"curve.{name}.{key}" for name in ("a", "b") for key in SCENARIO_KEYS])
CONFIG_VALUES = st.sampled_from([
    "0", "-0.0", "-1", "1", "2.5", "5e-324", "1e-320", "1e-310", "1e-160", "1e300",
    "-1e300", "nan", "inf", "-inf", "banana", "", "coherent"])
CONFIG_HEADS = st.sampled_from([
    "sweep.axis = v_max\nsweep.grid = 0, 50, 1e10\n",
    "sweep.axis = snr_db\nsweep.grid = -4000, 0, 20\n",
    "sweep.axis = snr_db\nsweep.grid = 0, 20\n",
])
CONFIG_OUTPUTS = st.lists(st.sampled_from(sweep.OUTPUT_ORDER), min_size=1, max_size=3)


@settings(PROPERTY, max_examples=1000)
@given(CONFIG_HEADS, CONFIG_OUTPUTS,
       st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, min_size=1, max_size=2))
def test_parser_raises_config_error_and_nothing_else(head, outputs, pairs):
    text = head + "sweep.outputs = " + ", ".join(outputs) + "\n" \
        + "".join(f"{key} = {value}\n" for key, value in pairs.items())
    try:
        spec = sweep.parse_config(text)
    except sweep.ConfigError:
        return
    # nbofdma sweep --trials/--seed re-parses the canonical text
    assert sweep.parse_config(sweep.to_text(spec)) == spec
    for _, overrides in spec.curves or (("", ()),):
        for axis_value in spec.grid:
            sweep._scenario(spec, overrides, axis_value)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # under the repository's warning filters, hypothesis's failure report
    # must not abort the session before the other tests run
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "test_two.py"], cwd=tmp_path, capture_output=True, text=True,
                            timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
