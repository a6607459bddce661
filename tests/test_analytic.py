"""Closed-form interference and capacity tests.

Anchor values were computed independently with mpmath (30 digits) from the
defining integrals and are frozen as literals; small-velocity behaviour is
cross-checked against a separately derived power series.
"""

import math

import numpy as np
import pytest

from nbofdma import analytic, numerics
from nbofdma.analytic import (
    IciBounds,
    NormalizedDoppler,
    approx_is_valid,
    approx_validity_threshold,
    capacity_upper,
    capacity_upper_approx,
    effective_useful_power,
    finite_n_ici,
    ici_approx,
    ici_bounds,
    leakage,
    leakage_sum,
    power_budget,
    sum_rate_upper,
    total_ici_power,
)
from nbofdma.numerics import QuadratureError, integrate, sinc_squared
from nbofdma.sysmodel import SystemConfig

CFG = SystemConfig()                                   # 900 MHz, 2.5 kHz
CFG_3GHZ = SystemConfig(carrier_frequency_hz=3e9)

# mpmath oracles, dps=30
B_AT_100 = 0.3769911184307752
USEFUL_AT_100 = 0.9921712405420337
ICI_AT_100 = 0.007828759457966318
ICI_3GHZ_AT_100 = 0.07994991793696295
BOUNDS_AT_100 = (0.007491708538535272, 0.008232329339485)
APPROX_AT_100 = 0.007895683520871487
THRESHOLD_3GHZ = 39.78873577297383
THRESHOLD_900MHZ = 132.62911924324612
CAPACITY_AT_100 = 5.824005160389218
CAPACITY_APPROX_AT_100 = 5.818671492023659
SUM_RATE_AT_100 = 1164801.0320778436
LOG2_E = math.log2(math.e)

# mpmath oracles, dps=30, of the leakage average in its t-form,
# (1/pi) int_0^inf t sech t tanh t sum_g [sinc^2(g + beta sech t)
# + sinc^2(g - beta sech t)] dt, with breakpoints at the sinc nulls; at
# offset 0 it matches the sine-integral form to 25 digits.  Keyed by
# (f_c, V_max), which give beta = V_max f_c T_s / c = 0.12, 3.6 and 20; the
# entries are leakage 3100 Hz off the tone (gap 1.24) and finite_n_ici by
# (N, target index).
T_FORM_ORACLE = {
    (900e6, 100.0): {
        "leakage_3100hz": 0.0303491306827205733450641,
        (2, 0): 0.005971235596543737162232644,
        (2, 2): 0.003394239510344511234214138,
        (24, 0): 0.007636995515461311992268541,
        (24, 24): 0.003865939887433634492474757,
    },
    (900e6, 3000.0): {
        "leakage_3100hz": 0.1523511448113735466949494,
        (2, 0): 0.5513729669873045688799843,
        (2, 2): 0.3377472898785266604961331,
        (24, 0): 0.6963785044617005528854712,
        (24, 24): 0.3491721562815055923239287,
    },
    (3e9, 5000.0): {
        "leakage_3100hz": 0.0551985704443204863997402,
        (2, 0): 0.2117653949821887611967721,
        (2, 2): 0.1834340482616481445545196,
        (24, 0): 0.9139596673621967554417681,
        (24, 24): 0.4583150287576236427446354,
    },
}


def velocity_for(b: float, cfg: SystemConfig) -> float:
    return b * cfg.wave_speed_mps * cfg.subcarrier_spacing_hz \
        / (math.pi * cfg.carrier_frequency_hz)


# ---------------------------------------------------------------------------
# normalized Doppler and validity threshold

def test_normalized_doppler_anchor():
    assert NormalizedDoppler.from_configs(100.0, CFG).b \
        == pytest.approx(B_AT_100, rel=1e-14)
    assert NormalizedDoppler.from_configs(0.0, CFG).b == 0.0
    with pytest.raises(ValueError):
        NormalizedDoppler(b=-0.1)


def test_validity_threshold():
    assert approx_validity_threshold(CFG_3GHZ) == pytest.approx(THRESHOLD_3GHZ, rel=1e-12)
    assert approx_validity_threshold(CFG) == pytest.approx(THRESHOLD_900MHZ, rel=1e-12)
    assert approx_is_valid(39.0, CFG_3GHZ)
    assert not approx_is_valid(40.0, CFG_3GHZ)


# ---------------------------------------------------------------------------
# useful and interference power

def test_useful_power_anchor():
    assert effective_useful_power(100.0, CFG) == pytest.approx(USEFUL_AT_100, rel=1e-12)
    assert effective_useful_power(0.0, CFG) == CFG.effective_power


def test_useful_power_is_one_quadrature(monkeypatch):
    # b = 37.7: 2 b cos(psi) runs far past the sine integral's series range,
    # and the only quadrature is the one over the arrival angle
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(analytic, "integrate", counted)
    monkeypatch.setattr(numerics, "integrate", counted)
    effective_useful_power(velocity_for(37.7, CFG), CFG)
    assert calls == [(0.0, math.pi / 2.0)]


def test_total_ici_anchors():
    assert total_ici_power(100.0, CFG) == pytest.approx(ICI_AT_100, rel=1e-10)
    assert total_ici_power(100.0, CFG_3GHZ) == pytest.approx(ICI_3GHZ_AT_100, rel=1e-10)
    assert total_ici_power(0.0, CFG) == 0.0


def test_ici_small_velocity_series():
    # independently derived expansion: P_ICI / P_T = b^2/18 - b^4/300 + b^6/7056
    for v in (0.5, 1.0, 2.0, 5.0, 10.0):
        b = NormalizedDoppler.from_configs(v, CFG).b
        series = (b * b / 18.0 - b**4 / 300.0 + b**6 / 7056.0) * CFG.effective_power
        assert abs(total_ici_power(v, CFG) - series) <= 1e-11


def test_power_conservation_on_grid():
    for v in np.linspace(0.0, 160.0, 50):
        budget = power_budget(float(v), CFG)
        assert abs(budget.useful + budget.ici - CFG.effective_power) \
            <= 1e-12 * CFG.effective_power
        assert budget.leaked == budget.ici


def test_useful_power_decreases_with_speed():
    speeds = [0.0, 20.0, 50.0, 100.0, 160.0]
    vals = [effective_useful_power(v, CFG) for v in speeds]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_velocity_validation():
    with pytest.raises(ValueError):
        total_ici_power(-1.0, CFG)
    with pytest.raises(ValueError):
        effective_useful_power(math.nan, CFG)


# ---------------------------------------------------------------------------
# bounds and approximation

def test_bounds_anchor():
    bounds = ici_bounds(100.0, CFG)
    assert bounds.lower == pytest.approx(BOUNDS_AT_100[0], rel=1e-13)
    assert bounds.upper == pytest.approx(BOUNDS_AT_100[1], rel=1e-13)


def test_bounds_sandwich_exact_everywhere():
    # zero violations allowed over b in (0, 0.6]
    for b in np.linspace(0.006, 0.6, 100):
        v = velocity_for(float(b), CFG)
        exact = total_ici_power(v, CFG)
        bounds = ici_bounds(v, CFG)
        assert bounds.lower <= exact <= bounds.upper, f"violated at b={b}"


def test_bounds_degenerate_and_clamped():
    assert ici_bounds(0.0, CFG) == IciBounds(lower=0.0, upper=0.0)
    wild = ici_bounds(500.0, CFG_3GHZ)   # b ~ 6.3, quartic term dominates
    assert wild.lower == 0.0
    assert wild.upper > 0.0
    with pytest.raises(ValueError):
        IciBounds(lower=1.0, upper=0.5)


def test_approx_anchor_and_accuracy_envelope():
    assert ici_approx(100.0, CFG) == pytest.approx(APPROX_AT_100, rel=1e-14)
    for b in np.linspace(0.01, 0.5, 50):
        v = velocity_for(float(b), CFG)
        err = abs(ici_approx(v, CFG) - total_ici_power(v, CFG))
        assert err <= b**4 / 50.0 * CFG.effective_power


# ---------------------------------------------------------------------------
# pairwise leakage and grid sums

def test_leakage_even_in_offset():
    rng = np.random.default_rng(21)
    offsets = np.concatenate([rng.uniform(10.0, 12500.0, 20),
                              [2500.0, 5000.0, 60000.0]])
    for off in offsets:
        assert abs(leakage(float(off), 75.0, CFG)
                   - leakage(-float(off), 75.0, CFG)) <= 1e-9


def test_leakage_static_network():
    assert leakage(0.0, 0.0, CFG) == 1.0
    for k in (1, 2, 7):
        assert leakage(k * 2500.0, 0.0, CFG) == 0.0
    assert leakage(1250.0, 0.0, CFG) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-14)


def test_leakage_agrees_with_useful_power_route():
    # two very different integration orders land on the same number
    useful = effective_useful_power(100.0, CFG)
    via_leakage = leakage(0.0, 100.0, CFG) * CFG.effective_power
    assert abs(useful - via_leakage) / useful <= 1e-9


# float.hex of the quadrature itself: finite_n_ici at 900 MHz, 50 m/s, N=24
# (beta = 0.06), at 3 GHz, 100 m/s, 500 Hz, N=199 (beta = 2, where the
# kernel reduces its offsets), and leakage(0) at 1000 m/s (beta = 1.2).  Any
# change to how the kernel evaluates the integrand must keep these bits.
LEAKAGE_PINNED = {
    "finite_n_ici_900mhz_50": "0x1.f79490618ded1p-10",  # 0.00192101
    "finite_n_ici_3ghz_100_n199": "0x1.1b621ee62b0f0p-1",  # 0.553483
    "leakage_0_at_1000": "0x1.370e7c780bff9p-1",  # 0.607532
}


def test_leakage_keeps_its_pinned_bits():
    cfg_3ghz = SystemConfig(carrier_frequency_hz=3e9, subcarrier_spacing_hz=500.0,
                            half_subcarriers=199)
    got = {
        "finite_n_ici_900mhz_50": finite_n_ici(0, 50.0, CFG),
        "finite_n_ici_3ghz_100_n199": finite_n_ici(0, 100.0, cfg_3ghz),
        "leakage_0_at_1000": leakage(0.0, 1000.0, CFG),
    }
    assert {name: value.hex() for name, value in got.items()} == LEAKAGE_PINNED


@pytest.mark.parametrize("fc,v", sorted(T_FORM_ORACLE))
def test_leakage_matches_t_form_oracle(fc, v):
    expected = T_FORM_ORACLE[(fc, v)]
    cfg = SystemConfig(carrier_frequency_hz=fc)
    assert leakage(3100.0, v, cfg) == pytest.approx(expected["leakage_3100hz"], rel=1e-12)
    for n in (2, 24):
        cfg_n = SystemConfig(carrier_frequency_hz=fc, half_subcarriers=n)
        for i in (0, n):
            assert finite_n_ici(i, v, cfg_n) == pytest.approx(expected[(n, i)], rel=1e-12)


def test_leakage_agrees_with_useful_power_route_at_beta_1000():
    # b = 1000 pi: the kernel sweeps about a thousand sinc^2 lobes
    v = 1000.0 * CFG.wave_speed_mps / (CFG.carrier_frequency_hz * CFG.symbol_period_s)
    useful = effective_useful_power(v, CFG)
    via_leakage = leakage(0.0, v, CFG) * CFG.effective_power
    assert abs(useful - via_leakage) / useful <= 1e-9


def test_leakage_tail_bound_below_tolerance():
    # past the last panel T the weight (t/pi) sech t tanh t integrates to at
    # most 2 (T + 1) e^-T / pi, and the summed kernel is at most 2
    mpmath = pytest.importorskip("mpmath")
    for t_end in (1, 8, 40):
        tail = mpmath.quad(lambda t: t * mpmath.sech(t) * mpmath.tanh(t),
                           [t_end, mpmath.inf])
        assert tail <= 2 * (t_end + 1) * mpmath.exp(-t_end)
    # sum_k sinc^2(k + y) = 1 over all whole k, so any set of distinct
    # whole-number gaps sums to at most 1 per sign
    ys = np.linspace(-3.0, 3.0, 61)
    lattice = sum(sinc_squared(float(k), ys) for k in range(-2000, 2001))
    assert np.all(lattice <= 1.0 + 1e-12)
    t_end = analytic._LEAKAGE_PANELS[-1]
    bound = 2.0 * 2.0 * (t_end + 1.0) * math.exp(-t_end) / math.pi
    assert bound < analytic._LEAKAGE_SPEC.absolute_tolerance


def test_leakage_refuses_beta_beyond_the_budget():
    beta = 4.0 * analytic._LEAKAGE_SPEC.max_subdivisions * 1.01
    v = beta * CFG.wave_speed_mps / (CFG.carrier_frequency_hz * CFG.symbol_period_s)
    with pytest.raises(QuadratureError, match="subdivision budget"):
        leakage(0.0, v, CFG)
    with pytest.raises(QuadratureError, match="subdivision budget"):
        finite_n_ici(0, v, CFG)


def test_leakage_decays_with_offset():
    vals = [leakage(k * 2500.0, 100.0, CFG) for k in (1, 2, 4, 8, 16)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.01


def test_leakage_sum_grows_toward_unity():
    cfg = SystemConfig(bandwidth_hz=0.0, half_subcarriers=200)
    sums = [leakage_sum(0, n, 100.0, cfg) for n in (10, 50, 200)]
    assert all(a < b for a, b in zip(sums, sums[1:]))
    assert sums[-1] < 1.0
    assert sums[-1] > 0.999


def test_leakage_sum_with_sparse_grid_stays_short():
    cfg1 = SystemConfig(bandwidth_hz=0.0, half_subcarriers=50)
    cfg2 = SystemConfig(bandwidth_hz=0.0, half_subcarriers=50,
                        symbol_period_s=2.0 / 2500.0)
    dense = leakage_sum(0, 50, 100.0, cfg1)
    sparse = leakage_sum(0, 50, 100.0, cfg2)
    assert sparse < dense


def test_finite_n_ici_properties():
    cfg_n0 = SystemConfig(half_subcarriers=0)
    assert finite_n_ici(0, 100.0, cfg_n0) == 0.0
    vals = [finite_n_ici(0, 100.0, SystemConfig(half_subcarriers=n))
            for n in (4, 12, 24)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < total_ici_power(100.0, CFG)
    # edge targets collect interference from one side only
    assert finite_n_ici(24, 100.0, CFG) < finite_n_ici(0, 100.0, CFG)
    assert finite_n_ici(24, 100.0, CFG) == finite_n_ici(-24, 100.0, CFG)
    with pytest.raises(ValueError):
        finite_n_ici(25, 100.0, CFG)


# ---------------------------------------------------------------------------
# capacity and sum-rate

def test_capacity_anchors():
    assert capacity_upper(0.0, CFG) == pytest.approx(math.log2(101.0), rel=1e-12)
    assert capacity_upper(100.0, CFG) == pytest.approx(CAPACITY_AT_100, rel=1e-11)
    assert capacity_upper_approx(100.0, CFG) \
        == pytest.approx(CAPACITY_APPROX_AT_100, rel=1e-12)


def test_capacity_monotone_in_speed_and_spacing():
    caps = [capacity_upper(v, CFG) for v in (0.0, 25.0, 50.0, 75.0, 100.0)]
    assert all(b < a for a, b in zip(caps, caps[1:]))
    by_spacing = [capacity_upper(100.0, SystemConfig(subcarrier_spacing_hz=df))
                  for df in (2500.0, 1000.0, 500.0)]
    assert all(b < a for a, b in zip(by_spacing, by_spacing[1:]))


def test_capacity_approx_tracks_exact():
    for b in np.linspace(0.02, 0.4, 20):
        v = velocity_for(float(b), CFG)
        assert abs(capacity_upper_approx(v, CFG) - capacity_upper(v, CFG)) <= 0.05


def test_capacity_high_snr_log_linear_slope():
    # with noise negligible the approximation loses 2 log2(e) bits per
    # e-fold of speed
    cfg = SystemConfig(noise_variance=1e-10)
    slope = capacity_upper_approx(50.0 * math.e, cfg) - capacity_upper_approx(50.0, cfg)
    assert slope == pytest.approx(-2.0 * LOG2_E, abs=1e-5)


def test_capacity_degenerate_cases():
    with pytest.raises(ValueError):
        capacity_upper(0.0, SystemConfig(noise_variance=0.0))
    # huge noise drives the rate to zero
    assert capacity_upper(100.0, SystemConfig(noise_variance=1e9)) < 1e-6
    # zero noise is fine while the network moves
    assert capacity_upper(100.0, SystemConfig(noise_variance=0.0)) \
        > capacity_upper(100.0, CFG)


def test_sum_rate():
    assert sum_rate_upper(100.0, CFG) == pytest.approx(SUM_RATE_AT_100, rel=1e-11)
    assert sum_rate_upper(100.0, SystemConfig(bandwidth_hz=0.0)) == 0.0
    double = SystemConfig(bandwidth_hz=400e3)
    assert sum_rate_upper(100.0, double) \
        == pytest.approx(2.0 * sum_rate_upper(100.0, CFG), rel=1e-12)
