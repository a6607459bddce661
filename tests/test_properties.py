"""Property-based tests of the Doppler kernel, the leakage average and the
config parser."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbofdma import sweep  # noqa: E402
from nbofdma.analytic import effective_useful_power, leakage  # noqa: E402
from nbofdma.numerics import sinc_squared  # noqa: E402
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


# every key a config may set, curve overrides included, and values at the
# edges of each key's range
SCENARIO_KEYS = [*sweep._SYSTEM_KEYS, *sweep._CELL_KEYS, *sweep._MOBILITY_KEYS,
                 "system.snr_db"]
CONFIG_KEYS = st.sampled_from(
    SCENARIO_KEYS + [*sweep._MC_KEYS]
    + [f"curve.{name}.{key}" for name in ("a", "b") for key in SCENARIO_KEYS])
CONFIG_VALUES = st.sampled_from([
    "0", "-0.0", "-1", "1", "2.5", "5e-324", "1e-320", "1e-310", "1e-160", "1e300",
    "-1e300", "nan", "inf", "-inf", "banana", "", "coherent"])
CONFIG_HEADS = st.sampled_from([
    "sweep.axis = v_max\nsweep.grid = 0, 50, 1e10\n",
    "sweep.axis = snr_db\nsweep.grid = -4000, 0, 20\n",
])
CONFIG_OUTPUTS = st.lists(st.sampled_from(sweep.OUTPUT_ORDER), min_size=1, max_size=3)


@settings(PROPERTY, max_examples=1000)
@given(CONFIG_HEADS, CONFIG_OUTPUTS,
       st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, min_size=1, max_size=2))
def test_parser_raises_config_error_and_nothing_else(head, outputs, pairs):
    text = head + "sweep.outputs = " + ", ".join(outputs) + "\n" \
        + "".join(f"{key} = {value}\n" for key, value in pairs.items())
    try:
        sweep.parse_config(text)
    except sweep.ConfigError:
        pass
