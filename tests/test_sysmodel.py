"""System-model configuration and sampling-law tests."""

import math

import numpy as np
import pytest

from nbofdma.montecarlo import TrialPlan, estimate_useful_power
from nbofdma.sysmodel import (
    CellConfig,
    MobilityModel,
    PropagationPath,
    SystemConfig,
    doppler_shift,
    required_transmit_power,
    sample_cell_batch,
    sample_device,
    sample_paths,
    subcarrier_frequency,
)


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
])
def test_system_config_rejects(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_cell_config_validation():
    assert CellConfig().paths_per_device == 8
    with pytest.raises(ValueError):
        CellConfig(radius_m=0.0)
    with pytest.raises(ValueError):
        CellConfig(path_loss_exponent=1.5)
    with pytest.raises(ValueError):
        CellConfig(paths_per_device=0)


def test_mobility_model_validation():
    assert MobilityModel().max_velocity_mps == 100.0
    assert MobilityModel(max_velocity_mps=0.0).max_velocity_mps == 0.0
    with pytest.raises(ValueError):
        MobilityModel(max_velocity_mps=-1.0)
    with pytest.raises(ValueError):
        MobilityModel(max_velocity_mps=math.inf)


def test_propagation_path_angle_ranges():
    with pytest.raises(ValueError):
        PropagationPath(gain=0.1 + 0j, phase_rad=-0.1, arrival_angle_rad=0.0,
                        doppler_hz=0.0)
    with pytest.raises(ValueError):
        PropagationPath(gain=0.1 + 0j, phase_rad=0.0,
                        arrival_angle_rad=2.0 * math.pi, doppler_hz=0.0)


# ---------------------------------------------------------------------------
# deterministic helpers

def test_subcarrier_frequency_and_range():
    cfg = SystemConfig()
    assert subcarrier_frequency(0, cfg) == 0.0
    assert subcarrier_frequency(3, cfg) == 7500.0
    assert subcarrier_frequency(-24, cfg) == -60000.0
    with pytest.raises(ValueError):
        subcarrier_frequency(25, cfg)


def test_doppler_shift_headline_numbers():
    cfg = SystemConfig()
    # 30 m/s toward the receiver at 900 MHz shifts by 90 Hz
    assert doppler_shift(30.0, 0.0, cfg) == pytest.approx(90.0, rel=1e-12)
    assert doppler_shift(30.0, math.pi, cfg) == pytest.approx(-90.0, rel=1e-12)
    assert doppler_shift(30.0, math.pi / 2.0, cfg) == pytest.approx(0.0, abs=1e-10)
    assert doppler_shift(0.0, 1.0, cfg) == 0.0


def test_required_transmit_power_inverts_path_loss():
    cfg = SystemConfig()
    cell = CellConfig()
    at_edge = required_transmit_power(cell.radius_m, cell, cfg)
    assert at_edge == pytest.approx(
        cfg.effective_power * cell.radius_m ** cell.path_loss_exponent
        / cell.reference_loss_median, rel=1e-12)
    # received power is distance-free by construction
    for r in (10.0, 250.0, 999.0):
        tx = required_transmit_power(r, cell, cfg)
        received = tx * cell.reference_loss_median / r ** cell.path_loss_exponent
        assert received == pytest.approx(cfg.effective_power, rel=1e-12)
    with pytest.raises(ValueError):
        required_transmit_power(0.0, cell, cfg)
    with pytest.raises(ValueError):
        required_transmit_power(cell.radius_m + 1.0, cell, cfg)


# ---------------------------------------------------------------------------
# sampling laws

def test_sample_paths_count_and_normalization():
    cfg = SystemConfig()
    rng = np.random.default_rng(7)
    draws = 4000
    m = 8
    total = 0.0
    for _ in range(draws):
        paths = sample_paths(rng, m, 55.0, cfg)
        assert len(paths) == m
        total += sum(abs(p.gain) ** 2 for p in paths)
    # E[sum |a|^2] = 1; std of the mean is sqrt(1/m)/sqrt(draws) ~ 0.006
    assert total / draws == pytest.approx(1.0, abs=0.025)


def test_sample_paths_doppler_consistent_with_geometry():
    cfg = SystemConfig()
    rng = np.random.default_rng(3)
    for v in (0.0, 42.0, 100.0):
        for p in sample_paths(rng, 8, v, cfg):
            assert p.doppler_hz == pytest.approx(
                doppler_shift(v, p.arrival_angle_rad, cfg), rel=1e-12, abs=1e-12)
            assert abs(p.doppler_hz) <= v / cfg.wave_speed_mps * cfg.carrier_frequency_hz + 1e-9


def test_sample_device_respects_bounds():
    cfg = SystemConfig()
    cell = CellConfig()
    mob = MobilityModel(max_velocity_mps=60.0)
    rng = np.random.default_rng(11)
    for _ in range(500):
        dev = sample_device(rng, cell, mob, 0, cfg)
        assert 0.0 < dev.radius_m <= cell.radius_m
        assert 0.0 <= dev.angle_rad < 2.0 * math.pi
        assert 0.0 <= dev.velocity_mps <= 60.0
        assert len(dev.paths) == cell.paths_per_device


def test_sample_device_radius_law():
    # p(r) = 2 r / R^2 has mean 2R/3 and CDF (r/R)^2
    cfg = SystemConfig()
    cell = CellConfig()
    mob = MobilityModel()
    rng = np.random.default_rng(19)
    n = 20000
    radii = np.array([sample_device(rng, cell, mob, 0, cfg).radius_m
                      for _ in range(n)])
    assert radii.mean() == pytest.approx(2.0 * cell.radius_m / 3.0, abs=6.0)
    # Kolmogorov-Smirnov against the quadratic CDF at the 1% level
    grid = np.sort(radii) / cell.radius_m
    ecdf = np.arange(1, n + 1) / n
    model = grid ** 2
    dist = np.max(np.abs(ecdf - model))
    assert dist < 1.63 / math.sqrt(n)


def test_sample_device_static_network():
    cfg = SystemConfig()
    cell = CellConfig()
    rng = np.random.default_rng(0)
    dev = sample_device(rng, cell, MobilityModel(max_velocity_mps=0.0), 2, cfg)
    assert dev.velocity_mps == 0.0
    assert all(p.doppler_hz == 0.0 for p in dev.paths)


def test_sample_device_rejects_out_of_band_index():
    cfg = SystemConfig()
    with pytest.raises(ValueError):
        sample_device(np.random.default_rng(0), CellConfig(), MobilityModel(), 30, cfg)


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
    # coherent per-device power is |sum_m a_m|^2, whose mean is the total
    # mean path power, one
    plan = TrialPlan(trials=40000, seed=2, power_mode="coherent")
    est = estimate_useful_power(plan, SystemConfig(), CellConfig(),
                                MobilityModel(max_velocity_mps=0.0))
    assert est.mean == pytest.approx(1.0, abs=0.02)
