"""Monte Carlo estimator tests: determinism, exact degenerate cases, and
statistical agreement with the closed forms."""

import math

import numpy as np
import pytest

from nbofdma import numerics
from nbofdma.analytic import (
    capacity_upper,
    effective_useful_power,
    finite_n_ici,
)
from nbofdma.montecarlo import (
    Estimate,
    TrialPlan,
    estimate_ergodic_capacity,
    estimate_total_ici,
    estimate_useful_power,
    symmetry_probe,
)
from nbofdma.sysmodel import CellConfig, MobilityModel, SystemConfig

CFG = SystemConfig()
CELL = CellConfig()
MOB = MobilityModel(max_velocity_mps=100.0)

# E[log2(1 + 100 X)] with X ~ Exp(1): log2(e) * e^(1/100) * E1(1/100),
# mpmath at 30 digits.  The coherent path sum is complex normal for any
# path count, so the static-network SINR is exactly exponential; the
# capacity estimator averages that exponential in closed form, so every
# trial gives this value.
STATIC_CAPACITY_SNR20 = 5.8840482336834735


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        TrialPlan(trials=0)
    with pytest.raises(ValueError):
        TrialPlan(trials=10, seed=-1)
    with pytest.raises(ValueError):
        TrialPlan(trials=10, power_mode="mystery")
    assert TrialPlan(trials=10).power_mode == "incoherent"


def test_estimates_are_deterministic():
    plan = TrialPlan(trials=3000, seed=17)
    first = estimate_total_ici(plan, CFG, CELL, MOB)
    second = estimate_total_ici(plan, CFG, CELL, MOB)
    assert first == second
    assert isinstance(first, Estimate) and first.trials == 3000
    other = estimate_total_ici(TrialPlan(trials=3000, seed=18), CFG, CELL, MOB)
    assert other.mean != first.mean


def test_static_network_has_exactly_zero_interference():
    plan = TrialPlan(trials=512, seed=3)
    mob0 = MobilityModel(max_velocity_mps=0.0)
    est = estimate_total_ici(plan, CFG, CELL, mob0)
    assert est.mean == 0.0 and est.std_error == 0.0
    useful = estimate_useful_power(plan, CFG, CELL, mob0)
    assert useful.mean == 1.0 and useful.std_error == 0.0


def test_ici_matches_finite_grid_expectation():
    est = estimate_total_ici(TrialPlan(trials=40000, seed=1), CFG, CELL, MOB)
    exact = finite_n_ici(0, 100.0, CFG)
    assert abs(est.mean - exact) <= 3.5 * est.std_error


def test_useful_power_matches_quadrature():
    est = estimate_useful_power(TrialPlan(trials=40000, seed=2), CFG, CELL, MOB)
    exact = effective_useful_power(100.0, CFG)
    assert abs(est.mean - exact) <= 3.5 * est.std_error


def test_std_error_scales_with_trials():
    small = estimate_total_ici(TrialPlan(trials=4096, seed=4), CFG, CELL, MOB)
    large = estimate_total_ici(TrialPlan(trials=4 * 4096, seed=4), CFG, CELL, MOB)
    ratio = large.std_error / small.std_error
    assert 0.35 < ratio < 0.65


def test_mean_invariant_to_path_count():
    # per-path variances sum to one whatever the path count, so the mean
    # interference cannot depend on it
    plan = TrialPlan(trials=30000, seed=6)
    few = estimate_total_ici(plan, CFG, CellConfig(paths_per_device=4), MOB)
    many = estimate_total_ici(plan, CFG, CellConfig(paths_per_device=16), MOB)
    combined = math.hypot(few.std_error, many.std_error)
    assert abs(few.mean - many.mean) <= 3.5 * combined


def test_power_modes_share_a_mean():
    incoherent = estimate_total_ici(TrialPlan(trials=30000, seed=8), CFG, CELL, MOB)
    coherent = estimate_total_ici(
        TrialPlan(trials=30000, seed=8, power_mode="coherent"), CFG, CELL, MOB)
    combined = math.hypot(incoherent.std_error, coherent.std_error)
    assert abs(incoherent.mean - coherent.mean) <= 3.5 * combined
    # squaring the complex sum mixes the paths, so the variance grows
    assert coherent.std_error > incoherent.std_error


def test_off_center_target_sees_less_interference():
    plan = TrialPlan(trials=20000, seed=9)
    center = estimate_total_ici(plan, CFG, CELL, MOB)
    edge_plan = TrialPlan(trials=20000, seed=9, target_index=24)
    edge = estimate_total_ici(edge_plan, CFG, CELL, MOB)
    assert edge.mean < center.mean
    assert abs(edge.mean - finite_n_ici(24, 100.0, CFG)) <= 3.5 * edge.std_error


def test_target_index_validated():
    with pytest.raises(ValueError):
        estimate_total_ici(TrialPlan(trials=100, target_index=40), CFG, CELL, MOB)


def test_capacity_static_network_oracle():
    plan = TrialPlan(trials=50000, seed=12)
    mob0 = MobilityModel(max_velocity_mps=0.0)
    est = estimate_ergodic_capacity(plan, CFG, CELL, mob0)
    assert abs(est.mean - STATIC_CAPACITY_SNR20) <= 1e-14 * STATIC_CAPACITY_SNR20
    # a constant array can still show a rounding spread through np.std
    assert est.std_error <= 1e-14


def test_capacity_below_upper_bound():
    est = estimate_ergodic_capacity(TrialPlan(trials=20000, seed=13), CFG, CELL, MOB)
    assert est.mean <= capacity_upper(100.0, CFG) + 3.0 * est.std_error


def test_capacity_requires_noise():
    with pytest.raises(ValueError):
        estimate_ergodic_capacity(TrialPlan(trials=100),
                                  SystemConfig(noise_variance=0.0), CELL, MOB)


def test_single_trial_has_no_spread():
    est = estimate_total_ici(TrialPlan(trials=1, seed=0), CFG, CELL, MOB)
    assert est.trials == 1 and est.std_error == 0.0


def test_symmetry_probe_swap_is_bitwise():
    plan = TrialPlan(trials=8192, seed=14)
    forward = symmetry_probe(0, 5, plan, CFG, CELL, MOB)
    backward = symmetry_probe(5, 0, plan, CFG, CELL, MOB)
    assert forward == (backward[1], backward[0])


def test_symmetry_probe_directions_agree():
    plan = TrialPlan(trials=60000, seed=15)
    onto_a, onto_b = symmetry_probe(-2, 2, plan, CFG, CELL, MOB)
    combined = math.hypot(onto_a.std_error, onto_b.std_error)
    assert abs(onto_a.mean - onto_b.mean) <= 3.0 * combined


def test_symmetry_probe_depends_on_gap_only():
    plan = TrialPlan(trials=60000, seed=16)
    near = symmetry_probe(0, 3, plan, CFG, CELL, MOB)[0]
    shifted = symmetry_probe(7, 10, plan, CFG, CELL, MOB)[0]
    combined = math.hypot(near.std_error, shifted.std_error)
    assert abs(near.mean - shifted.mean) <= 3.5 * combined


def test_symmetry_probe_rejects_equal_indices():
    with pytest.raises(ValueError):
        symmetry_probe(1, 1, TrialPlan(trials=100), CFG, CELL, MOB)


def _all_estimates():
    plan = TrialPlan(trials=300, seed=21)
    coherent = TrialPlan(trials=300, seed=21, power_mode="coherent")
    return (estimate_total_ici(plan, CFG, CELL, MOB),
            estimate_total_ici(coherent, CFG, CELL, MOB),
            estimate_useful_power(plan, CFG, CELL, MOB),
            estimate_useful_power(coherent, CFG, CELL, MOB),
            estimate_ergodic_capacity(plan, CFG, CELL, MOB),
            symmetry_probe(0, 3, plan, CFG, CELL, MOB))


def test_estimates_do_not_depend_on_the_tile_size(monkeypatch):
    default = _all_estimates()
    monkeypatch.setattr(numerics, "_TILE_ELEMENTS", 1)  # one trial row a tile
    assert _all_estimates() == default
    monkeypatch.setattr(numerics, "_TILE_ELEMENTS", 1 << 40)  # a whole block
    assert _all_estimates() == default


# float.hex of (mean, std_error) of each estimator at 300 trials (two
# blocks, one partial) as computed when every scenario drew its own blocks;
# sharing the draws among the scenarios of a group must keep these bits
PINNED = {
    "ici": ("0x1.ef41dc2761fdap-8", "0x1.aade94117fd3ap-13"),  # 0.00755703 +- 0.000204
    "ici_coherent": ("0x1.ee7dea03a20c3p-8", "0x1.57a5d0fe2009bp-12"),  # 0.00754535 +- 0.000328
    "ici_edge_3ghz": ("0x1.2bd7f247eba7fp-7", "0x1.5357edcde9944p-12"),  # 0.0091505 +- 0.000324
    "useful": ("0x1.fbdcd2ae915c3p-1", "0x1.e8eec7f388cacp-12"),  # 0.991919 +- 0.000466
    "useful_coherent": ("0x1.a2cd6040cd990p-1", "0x1.9f2982e2301fap-5"),  # 0.817973 +- 0.0507
    "capacity": ("0x1.4a668a80c103dp+2", "0x1.5d8af46b3f751p-6"),  # 5.16251 +- 0.0213
    "capacity_edge_3ghz": ("0x1.46d09af8ea29fp+2", "0x1.fdbebda1ac85cp-6"),  # 5.10648 +- 0.0311
    "symmetry_a": ("0x1.1bee6742b03b3p-12", "0x1.f1682dea535e8p-17"),  # 0.000270778 +- 1.48e-05
    "symmetry_b": ("0x1.1a1484990c51ep-12", "0x1.f7822f70be968p-17"),  # 0.000269013 +- 1.5e-05
}


def test_estimates_keep_their_pinned_bits():
    plan = TrialPlan(trials=300, seed=21)
    coherent = TrialPlan(trials=300, seed=21, power_mode="coherent")
    edge = TrialPlan(trials=300, seed=22, target_index=-4)
    cfg3 = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=5)
    cell3 = CellConfig(paths_per_device=3)
    mob3 = MobilityModel(max_velocity_mps=37.5)
    onto_a, onto_b = symmetry_probe(0, 3, plan, CFG, CELL, MOB)
    got = {
        "ici": estimate_total_ici(plan, CFG, CELL, MOB),
        "ici_coherent": estimate_total_ici(coherent, CFG, CELL, MOB),
        "ici_edge_3ghz": estimate_total_ici(edge, cfg3, cell3, mob3),
        "useful": estimate_useful_power(plan, CFG, CELL, MOB),
        "useful_coherent": estimate_useful_power(coherent, CFG, CELL, MOB),
        "capacity": estimate_ergodic_capacity(plan, CFG, CELL, MOB),
        "capacity_edge_3ghz": estimate_ergodic_capacity(edge, cfg3, cell3, mob3),
        "symmetry_a": onto_a,
        "symmetry_b": onto_b,
    }
    assert {name: (est.mean.hex(), est.std_error.hex()) for name, est in got.items()} \
        == PINNED


@pytest.mark.parametrize("estimator", [estimate_total_ici, estimate_ergodic_capacity])
@pytest.mark.parametrize("power_mode", ["incoherent", "coherent"])
def test_a_group_of_scenarios_matches_its_members(estimator, power_mode):
    plan = TrialPlan(trials=300, seed=23, target_index=2, power_mode=power_mode)
    cfgs = [CFG, SystemConfig(carrier_frequency_hz=3e9),
            SystemConfig(subcarrier_spacing_hz=1250.0, bandwidth_hz=0.0), CFG]
    mobs = [MOB, MobilityModel(40.0), MOB, MobilityModel(0.0)]
    group = estimator(plan, cfgs, CELL, mobs)
    assert group == [estimator(plan, cfg, CELL, mob) for cfg, mob in zip(cfgs, mobs)]


def test_a_group_of_scenarios_is_validated():
    plan = TrialPlan(trials=100)
    with pytest.raises(ValueError, match="half_subcarriers"):
        estimate_total_ici(plan, [CFG, SystemConfig(half_subcarriers=3)], CELL, [MOB, MOB])
    with pytest.raises(ValueError):
        estimate_total_ici(plan, [CFG, CFG], CELL, [MOB])
    with pytest.raises(ValueError):
        estimate_total_ici(plan, [], CELL, [])
    with pytest.raises(ValueError, match="noise"):
        estimate_ergodic_capacity(plan, [CFG, SystemConfig(noise_variance=0.0)],
                                  CELL, [MOB, MOB])

