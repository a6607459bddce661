"""System-model configuration and sampling-law tests."""

import math

import numpy as np
import pytest

from nbofdma.analytic import finite_n_ici, leakage_sum
from nbofdma.montecarlo import (TrialPlan, _device_powers, _layout, estimate_ergodic_capacity,
                                estimate_total_ici, estimate_useful_power, symmetry_probe)
from nbofdma.numerics import sin_pi
from nbofdma.sysmodel import (CellConfig, MobilityModel, SystemConfig, sample_cell_batch,
                              subcarrier_gaps)


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


@pytest.mark.parametrize("field", ["carrier_frequency_hz", "subcarrier_spacing_hz",
                                   "symbol_period_s", "bandwidth_hz", "effective_power",
                                   "noise_variance", "wave_speed_mps"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_system_config_refuses_a_non_finite_float(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SystemConfig(**{field: value})


def test_system_config_stores_a_whole_half_subcarriers_as_int():
    cfg = SystemConfig(half_subcarriers=3.0)
    assert type(cfg.half_subcarriers) is int and cfg == SystemConfig(half_subcarriers=3)
    assert finite_n_ici(0, 50.0, cfg) == finite_n_ici(0, 50.0, SystemConfig(half_subcarriers=3))
    for value in (2.5, math.inf, math.nan, "3"):
        with pytest.raises(ValueError, match="^half_subcarriers must be a whole number"):
            SystemConfig(half_subcarriers=value)


def test_cell_config_stores_a_whole_paths_per_device_as_int():
    cell = CellConfig(paths_per_device=2.0)
    assert type(cell.paths_per_device) is int and cell == CellConfig(paths_per_device=2)
    plan = TrialPlan(trials=256, seed=1)
    mob = MobilityModel(max_velocity_mps=50.0)
    assert estimate_total_ici(plan, SystemConfig(), cell, mob) \
        == estimate_total_ici(plan, SystemConfig(), CellConfig(paths_per_device=2), mob)


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

def test_cell_batch_shape_and_range():
    cell = CellConfig()
    z = sample_cell_batch(np.random.default_rng(5), 6, 49, cell)
    assert z.shape == (6, 49, cell.paths_per_device)
    # z = u cos(psi) with u < 1: every offset x z of a scenario lies strictly
    # inside its span x, and the draws reach out towards both ends
    assert np.all(np.abs(z) < 1.0)
    assert np.max(z) > 0.8 and np.min(z) < -0.8


def test_cell_batch_doppler_has_the_clarke_law():
    # z = u cos(psi), u uniform on [0, 1) and psi on [0, 2*pi), has the
    # density arccosh(1/|s|) / pi that analytic._leakage_multi integrates
    # against, with CDF 1/2 + sign(s) (|s| arccosh(1/|s|) + arcsin|s|) / pi.
    # One path per device, since the paths of a device share u and
    # Kolmogorov-Smirnov needs independent draws; test at the 0.1% level
    z = np.sort(sample_cell_batch(np.random.default_rng(31), 4000, 5,
                                  CellConfig(paths_per_device=1)).ravel())
    n = z.size
    a = np.abs(z)
    model = 0.5 + np.sign(z) * (a * np.arccosh(1.0 / a) + np.arcsin(a)) / math.pi
    dist = max(np.max(np.arange(1, n + 1) / n - model), np.max(model - np.arange(n) / n))
    assert dist < 1.95 / math.sqrt(n)


def test_cell_batch_matches_seed():
    cell = CellConfig()
    a = sample_cell_batch(np.random.default_rng(123), 3, 5, cell)
    b = sample_cell_batch(np.random.default_rng(123), 3, 5, cell)
    assert np.array_equal(a, b)


def test_cell_batch_reads_speeds_then_paths_from_the_stream():
    # the speed fractions u come first, then one uniform c per path, and
    # z = u sin(pi (c - 1/2)) bit for bit
    rng = np.random.default_rng(7)
    u = rng.random((4, 9))
    c = rng.random((4, 9, 3))
    z = sample_cell_batch(np.random.default_rng(7), 4, 9, CellConfig(paths_per_device=3))
    assert z.tobytes() == (u[..., None] * sin_pi(c - 0.5)).tobytes()


def test_coherent_device_power_has_unit_mean():
    # a static network keeps every path on its own sub-carrier, so the
    # coherent per-device power the capacity estimator draws is
    # |sum_m a_m|^2, whose mean is the total mean path power, one; only the
    # tail, the devices beyond index gap 10 from the target, draws weights
    # (those within it draw none, their fading being averaged): at N = 11
    # the devices at index gap +-11, drawn on 32 rows of each block of 256,
    # two samples a draw
    plan = TrialPlan(trials=160000, seed=2)
    scenario = (SystemConfig(), MobilityModel(max_velocity_mps=0.0))
    [main, tail] = _layout("capacity", subcarrier_gaps(0, 11), CellConfig().paths_per_device)
    assert not main.weighted.any() and tail.weighted.all() and tail.columns.size == 2
    samples = np.empty((tail.draws(plan.trials), 2))
    for _, rows, powers, weights in _device_powers(plan, CellConfig(), [scenario],
                                                   [np.zeros(23)], [tail]):
        samples[rows[0]] = powers[0] * weights[0]
    assert samples.mean() == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# sub-carrier gaps

def _replaced_constructions(index, n, q):
    # the gap vectors subcarrier_gaps replaced, kept as the reference:
    # leakage_sum's (i - j) q over every j, finite_n_ici's over j != i,
    # the Monte Carlo's (j - i) q formed in integers, and the index gaps
    # j - i of its control variate, from the column number
    every = (index - np.arange(-n, n + 1, dtype=float)) * q
    others = (index - np.array([j for j in range(-n, n + 1) if j != index], dtype=float)) * q
    simulated = ((np.arange(-n, n + 1) - index) * q).astype(float)
    devices = 2 * n + 1
    columns = (np.arange(devices) - (index + devices // 2)).astype(float)
    return every, others, simulated, columns


@pytest.mark.parametrize("n", [0, 1, 2, 24])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_subcarrier_gaps_have_the_bits_of_the_constructions_they_replace(n, q):
    for index in range(-n, n + 1):
        gaps = subcarrier_gaps(index, n, q)
        every, others, simulated, columns = _replaced_constructions(index, n, q)
        # the leakage folds every gap to its magnitude, so its sign is free
        assert np.abs(gaps).tobytes() == np.abs(every).tobytes()
        assert np.abs(gaps[gaps != 0]).tobytes() == np.abs(others).tobytes()
        assert gaps.tobytes() == simulated.tobytes()
        assert subcarrier_gaps(index, n).tobytes() == columns.tobytes()


@pytest.mark.parametrize("index,n", [(0.5, 2), (2, -1), (3, 2), (-3, 2), (1, 0), ("1", 2)])
def test_subcarrier_gaps_refuse_a_bad_index_or_count(index, n):
    with pytest.raises(ValueError):
        subcarrier_gaps(index, n)


def test_every_entry_point_refuses_a_fractional_or_out_of_range_index():
    # a fractional index once counted the target's own power as interference
    plan = TrialPlan(trials=1)
    mob = MobilityModel(10.0)
    cfg = SystemConfig()
    refused = [
        lambda: finite_n_ici(0.5, 10.0, cfg),
        lambda: finite_n_ici(25, 10.0, cfg),
        lambda: leakage_sum(0.5, 24, 10.0, cfg),
        lambda: leakage_sum(-25, 24, 10.0, cfg),
        lambda: symmetry_probe(0, 2.5, plan, cfg, CellConfig(), mob),
        lambda: symmetry_probe(25, 0, plan, cfg, CellConfig(), mob),
        lambda: estimate_total_ici(TrialPlan(trials=1, target_index=25), cfg, CellConfig(), mob),
        lambda: estimate_useful_power(TrialPlan(trials=1, target_index=-25), cfg,
                                      CellConfig(), mob),
        lambda: estimate_ergodic_capacity(TrialPlan(trials=1, target_index=25), cfg,
                                          CellConfig(), mob),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="sub-carrier index"):
            call()
