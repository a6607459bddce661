"""System-model configuration and sampling-law tests."""

import math

import numpy as np
import pytest

from nbofdma.montecarlo import TrialPlan, _device_powers
from nbofdma.sysmodel import CellConfig, MobilityModel, SystemConfig, sample_cell_batch


# ---------------------------------------------------------------------------
# configuration objects

def test_default_system_config():
    cfg = SystemConfig()
    assert cfg.carrier_frequency_hz == 900e6
    assert cfg.subcarrier_spacing_hz == 2500.0
    assert cfg.symbol_period_s == 1.0 / 2500.0
    assert cfg.half_subcarriers == 24
    assert cfg.bandwidth_hz == 200e3
    assert cfg.effective_power == 1.0
    assert cfg.noise_variance == 0.01
    assert cfg.wave_speed_mps == 3e8
    assert cfg.spacing_symbol_product == 1.0


def test_symbol_period_follows_spacing_by_default():
    cfg = SystemConfig(subcarrier_spacing_hz=500.0)
    assert cfg.symbol_period_s == 1.0 / 500.0
    assert cfg.spacing_symbol_product == 1.0


def test_integer_spacing_period_products_allowed():
    cfg = SystemConfig(symbol_period_s=2.0 / 2500.0)
    assert cfg.spacing_symbol_product == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"carrier_frequency_hz": 0.0},
    {"carrier_frequency_hz": -900e6},
    {"subcarrier_spacing_hz": 0.0},
    {"symbol_period_s": 3e-4},          # spacing * period = 0.75, not integer
    {"half_subcarriers": -1},
    {"effective_power": 0.0},
    {"noise_variance": -0.01},
    {"wave_speed_mps": 0.0},
    {"bandwidth_hz": 100e3},            # 49 sub-carriers need 122.5 kHz
    {"subcarrier_spacing_hz": 1e-320},  # 1 / spacing overflows
    {"symbol_period_s": 1e300, "subcarrier_spacing_hz": 1e300},  # T_s * df overflows
    {"half_subcarriers": 10 ** 308},   # (2N + 1) * df overflows
])
def test_system_config_rejects(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_cell_config_validation():
    assert CellConfig().paths_per_device == 8
    with pytest.raises(ValueError):
        CellConfig(paths_per_device=0)
    with pytest.raises(ValueError):
        CellConfig(paths_per_device=2.5)


def test_mobility_model_validation():
    assert MobilityModel().max_velocity_mps == 100.0
    assert MobilityModel(max_velocity_mps=0.0).max_velocity_mps == 0.0
    with pytest.raises(ValueError):
        MobilityModel(max_velocity_mps=-1.0)
    with pytest.raises(ValueError):
        MobilityModel(max_velocity_mps=math.inf)


# ---------------------------------------------------------------------------
# sampling laws

def test_cell_batch_shapes_and_law():
    cell = CellConfig()
    batch = sample_cell_batch(np.random.default_rng(5), 6, 49, cell)
    m = cell.paths_per_device
    assert batch.speed_fraction.shape == (6, 49)
    assert batch.cos_arrival.shape == (6, 49, m)
    assert np.all(batch.speed_fraction >= 0.0) and np.all(batch.speed_fraction < 1.0)
    # cos(psi) of a real angle: |f_D| = (v / c) f_c |cos psi| never exceeds
    # the maximum shift
    assert np.all(np.abs(batch.cos_arrival) <= 1.0)
    # speeds and path Dopplers as the estimators form them: at V_max = 30 m/s
    # and 900 MHz, speeds lie in [0, 30] and shifts within the 90 Hz maximum
    cfg = SystemConfig()
    speeds = 30.0 * batch.speed_fraction
    assert np.all(speeds >= 0.0) and np.all(speeds <= 30.0)
    max_shift = (speeds / cfg.wave_speed_mps) * cfg.carrier_frequency_hz
    assert (30.0 / cfg.wave_speed_mps) * cfg.carrier_frequency_hz \
        == pytest.approx(90.0, rel=1e-12)
    doppler = batch.cos_arrival * max_shift[..., None]
    assert np.all(np.abs(doppler) <= 90.0)
    assert np.max(doppler) > 80.0 and np.min(doppler) < -80.0


def test_cell_batch_doppler_has_the_arcsine_law():
    # f_D / max shift = cos(psi) for psi uniform on [0, 2*pi), whose CDF is
    # 1/2 + arcsin(x) / pi; Kolmogorov-Smirnov at the 1% level
    batch = sample_cell_batch(np.random.default_rng(31), 500, 5, CellConfig())
    x = np.sort(batch.cos_arrival.ravel())
    n = x.size
    model = 0.5 + np.arcsin(x) / math.pi
    dist = max(np.max(np.arange(1, n + 1) / n - model), np.max(model - np.arange(n) / n))
    assert dist < 1.63 / math.sqrt(n)


def test_cell_batch_matches_seed():
    cell = CellConfig()
    a = sample_cell_batch(np.random.default_rng(123), 3, 5, cell)
    b = sample_cell_batch(np.random.default_rng(123), 3, 5, cell)
    assert np.array_equal(a.speed_fraction, b.speed_fraction)
    assert np.array_equal(a.cos_arrival, b.cos_arrival)


def test_scaled_speed_fraction_has_the_bits_of_uniform_speeds():
    # numpy draws uniform(0, V) as 0 + V * u, so scaling the fraction per
    # scenario reproduces the speeds a per-scenario draw would give
    batch = sample_cell_batch(np.random.default_rng(7), 4, 9, CellConfig())
    for v_max in (0.0, 1e-6, 83.3, 100.0):
        speeds = np.random.default_rng(7).uniform(0.0, v_max, (4, 9))
        assert (v_max * batch.speed_fraction).tobytes() == speeds.tobytes()


def test_coherent_device_power_has_unit_mean():
    # a static network keeps every path on its own sub-carrier, so the
    # coherent per-device power the capacity estimator draws is
    # |sum_m a_m|^2, whose mean is the total mean path power, one
    plan = TrialPlan(trials=40000, seed=2)
    scenario = (SystemConfig(), MobilityModel(max_velocity_mps=0.0))
    samples = np.empty(plan.trials)
    for _, rows, powers, weights in _device_powers(plan, CellConfig(), [scenario],
                                                   [np.zeros(1)], True):
        samples[rows] = powers[:, 0] * weights[:, 0]
    assert samples.mean() == pytest.approx(1.0, abs=0.02)
