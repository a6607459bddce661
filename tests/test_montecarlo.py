"""Monte Carlo estimator tests: determinism, exact degenerate cases, and
statistical agreement with the closed forms."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nbofdma import analytic, montecarlo, numerics
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
from nbofdma.sysmodel import (CellConfig, MobilityModel, SystemConfig, sample_cell_batch,
                              subcarrier_gaps)

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


@pytest.mark.parametrize("field", ["trials", "seed", "target_index"])
def test_trial_plan_takes_whole_numbers_only(field):
    whole = TrialPlan(**{"trials": 256, field: 2.0})
    assert type(getattr(whole, field)) is int and whole == TrialPlan(**{"trials": 256, field: 2})
    for value in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
            TrialPlan(**{"trials": 256, field: value})


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
    # the interference the capacity estimator sees, the interferers'
    # coherent powers, against the conditional-mean estimator
    plan = TrialPlan(trials=30000, seed=8)
    incoherent = estimate_total_ici(plan, CFG, CELL, MOB)
    gaps = subcarrier_gaps(plan.target_index, CFG.half_subcarriers,
                           CFG.spacing_symbol_product)
    samples = np.empty(plan.trials)
    for _, rows, powers, _, weights in montecarlo._device_powers(plan, CELL, [(CFG, MOB)],
                                                                 [gaps], True):
        powers *= weights
        powers[:, CFG.half_subcarriers] = 0.0
        samples[rows] = powers.sum(axis=1) * CFG.effective_power
    coherent = montecarlo._reduce(samples)
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


def test_capacity_upper_is_not_a_bound_at_one_path():
    # log2(1 + X / (Y + n)) is convex in the interference Y, so with one
    # path per device, whose interference is the most spread, the ergodic
    # capacity lies above the capacity at the mean powers: +8.7 stderr
    cfg = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199,
                       noise_variance=1e-4)
    est = estimate_ergodic_capacity(TrialPlan(trials=8192, seed=3), cfg,
                                    CellConfig(paths_per_device=1), MOB)
    assert est.mean - capacity_upper(100.0, cfg) > 4.0 * est.std_error


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
    return (estimate_total_ici(plan, CFG, CELL, MOB),
            estimate_useful_power(plan, CFG, CELL, MOB),
            estimate_ergodic_capacity(plan, CFG, CELL, MOB),
            symmetry_probe(0, 3, plan, CFG, CELL, MOB))


def test_estimates_do_not_depend_on_the_tile_size(monkeypatch):
    default = _all_estimates()
    monkeypatch.setattr(numerics, "_TILE_ELEMENTS", 1)  # one trial row a tile
    assert _all_estimates() == default
    monkeypatch.setattr(numerics, "_TILE_ELEMENTS", 1 << 40)  # a whole block
    assert _all_estimates() == default


# float.hex of (mean, std_error) of each estimator at 300 trials (two
# blocks, one partial); sharing the draws among the scenarios of a group
# must keep these bits.  Every pin includes its estimator's control
# variate.
PINNED = {
    "ici": ("0x1.f47f9170f7ecdp-8", "0x1.2b432802bd94cp-29"),  # 0.007637 +- 2.18e-09
    "ici_edge_3ghz": ("0x1.35786474017e7p-7", "0x1.0fbf77fb2121cp-26"),  # 0.00944428 +- 1.58e-08
    "useful": ("0x1.fbfdde6eb22d9p-1", "0x1.21750526a50adp-32"),  # 0.992171 +- 2.63e-10
    "capacity": ("0x1.49f08b68708f6p+2", "0x1.7be0a50c4d454p-8"),  # 5.15531 +- 0.0058
    "capacity_edge_3ghz": ("0x1.46b1f7cbf8e19p+2", "0x1.0d55d82c163fap-6"),  # 5.10461 +- 0.0164
    "symmetry_a": ("0x1.12507495f6bfap-12", "0x1.1b9a60f8c5a72p-32"),  # 0.000261606 +- 2.58e-10
    "symmetry_b": ("0x1.12505c8f9108cp-12", "0x1.dd58fd63f8e6dp-33"),  # 0.000261606 +- 2.17e-10
}


def test_estimates_keep_their_pinned_bits():
    plan = TrialPlan(trials=300, seed=21)
    edge = TrialPlan(trials=300, seed=22, target_index=-4)
    cfg3 = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=5)
    cell3 = CellConfig(paths_per_device=3)
    mob3 = MobilityModel(max_velocity_mps=37.5)
    onto_a, onto_b = symmetry_probe(0, 3, plan, CFG, CELL, MOB)
    got = {
        "ici": estimate_total_ici(plan, CFG, CELL, MOB),
        "ici_edge_3ghz": estimate_total_ici(edge, cfg3, cell3, mob3),
        "useful": estimate_useful_power(plan, CFG, CELL, MOB),
        "capacity": estimate_ergodic_capacity(plan, CFG, CELL, MOB),
        "capacity_edge_3ghz": estimate_ergodic_capacity(edge, cfg3, cell3, mob3),
        "symmetry_a": onto_a,
        "symmetry_b": onto_b,
    }
    assert {name: (est.mean.hex(), est.std_error.hex()) for name, est in got.items()} \
        == PINNED


@pytest.mark.parametrize("estimator", [estimate_total_ici, estimate_ergodic_capacity])
def test_a_group_of_scenarios_matches_its_members(estimator):
    plan = TrialPlan(trials=300, seed=23, target_index=2)
    cfgs = [CFG, SystemConfig(carrier_frequency_hz=3e9),
            SystemConfig(subcarrier_spacing_hz=1250.0, bandwidth_hz=0.0), CFG]
    mobs = [MOB, MobilityModel(40.0), MOB, MobilityModel(0.0)]
    group = estimator(plan, cfgs, CELL, mobs)
    assert group == [estimator(plan, cfg, CELL, mob) for cfg, mob in zip(cfgs, mobs)]


@pytest.mark.parametrize("estimator", [estimate_total_ici, estimate_ergodic_capacity])
def test_a_group_across_the_kernel_regimes_matches_its_members(estimator):
    # x = V_max f_c T_s / c of 0 (no kernel), 0.12 and 0.48 (a cut series,
    # no reduction), 0.6 and 1.2 (reduced): each scenario's kernel is sized
    # to its own span, never to the group's
    plan = TrialPlan(trials=300, seed=24)
    mobs = [MobilityModel(v) for v in (0.0, 100.0, 400.0, 500.0, 1000.0)]
    assert [CFG.doppler_span(mob.max_velocity_mps) for mob in mobs] \
        == pytest.approx([0.0, 0.12, 0.48, 0.6, 1.2], rel=1e-12)
    cfgs = [CFG] * len(mobs)
    group = estimator(plan, cfgs, CELL, mobs)
    assert group == [estimator(plan, CFG, CELL, mob) for mob in mobs]


def test_a_static_scenario_never_calls_the_kernel(monkeypatch):
    spans = []

    def spy(gap, offset, span=None, out=None, work=None):
        spans.append(span)
        return numerics.sinc_squared(gap, offset, span, out, work)

    monkeypatch.setattr(montecarlo, "sinc_squared", spy)
    plan = TrialPlan(trials=300, seed=25)
    static = MobilityModel(0.0)
    estimate_total_ici(plan, CFG, CELL, static)
    estimate_useful_power(plan, CFG, CELL, static)
    estimate_ergodic_capacity(plan, CFG, CELL, static)
    symmetry_probe(0, 3, plan, CFG, CELL, static)
    assert spans == []
    # in a group, only the moving scenario reaches the kernel, with its own span
    estimate_total_ici(plan, [CFG, CFG], CELL, [static, MOB])
    assert spans and set(spans) == {CFG.doppler_span(MOB.max_velocity_mps)}


@pytest.mark.parametrize("v_max", [100.0, 400.0, 500.0, 1000.0])
def test_every_offset_lies_within_the_span_of_its_scenario(v_max, monkeypatch):
    # x = 0.12, 0.48 (a cut series, no reduction), 0.6 and 1.2 (reduced):
    # each offset is x times u cos psi, and |u cos psi| <= 1
    calls = []

    def spy(gap, offset, span=None, out=None, work=None):
        calls.append((float(np.abs(offset).max()), span))
        return numerics.sinc_squared(gap, offset, span, out, work)

    monkeypatch.setattr(montecarlo, "sinc_squared", spy)
    plan = TrialPlan(trials=300, seed=26, target_index=3)
    mob = MobilityModel(v_max)
    span = CFG.doppler_span(v_max)
    estimate_total_ici(plan, CFG, CELL, mob)
    estimate_useful_power(plan, CFG, CELL, mob)
    estimate_ergodic_capacity(plan, CFG, CELL, mob)
    symmetry_probe(0, 3, plan, CFG, CELL, mob)
    assert calls
    assert all(largest <= got == span for largest, got in calls)


@pytest.mark.parametrize("coherent", [False, True])
def test_the_scenarios_of_a_block_allocate_no_tile(coherent):
    # after the block's draws, each further scenario reuses the workspace
    cfgs = [CFG] * 10
    mobs = [MobilityModel(v) for v in (10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 500.0,
                                       700.0, 1000.0, 1500.0)]
    gaps = [subcarrier_gaps(0, CFG.half_subcarriers)] * len(cfgs)
    devices, paths = len(gaps[0]), CELL.paths_per_device
    tile_rows = numerics.row_tiles(montecarlo.BLOCK_TRIALS, devices * paths)[0].stop
    tile_bytes = tile_rows * devices * paths * 8
    scenarios = montecarlo._device_powers(TrialPlan(trials=256, seed=27), CELL,
                                          list(zip(cfgs, mobs)), gaps, coherent)
    tracemalloc.start()
    try:
        assert next(scenarios)[0] == 0
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]  # the draws and the workspace
        assert [k for k, *_ in scenarios] == list(range(1, len(cfgs)))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the kernel's centre test allocates a boolean mask, an eighth of a tile
    assert peak < tile_bytes / 4


@pytest.mark.parametrize("half_subcarriers,paths", [(400, 8), (150, 2)])
@pytest.mark.parametrize("coherent", [False, True])
def test_block_bytes_bounds_what_the_blocks_hold(half_subcarriers, paths, coherent):
    # two moving scenarios over three blocks, one partial, after a warm-up
    # call; the bound is within a tenth of the traced peak
    cfg = SystemConfig(half_subcarriers=half_subcarriers, bandwidth_hz=0.0)
    cell = CellConfig(paths_per_device=paths)
    scenarios = [(cfg, MOB), (cfg, MobilityModel(50.0))]
    gaps = [subcarrier_gaps(0, half_subcarriers)] * 2

    def run():
        for _ in montecarlo._device_powers(TrialPlan(trials=600, seed=3), cell, scenarios,
                                           gaps, coherent):
            pass
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = montecarlo.block_bytes(2 * half_subcarriers + 1, paths, coherent)
    assert 0.9 * bound <= peak <= bound


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


# ---------------------------------------------------------------------------
# control variate

# a small cell with an off-centre target: 5 devices of 3 paths at 3 GHz,
# x = V_max f_c T_s / c = 0.28
CV_CFG = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=2)
CV_CELL = CellConfig(paths_per_device=3)
CV_MOB = MobilityModel(max_velocity_mps=70.0)
CV_X = 70.0 / 3e8 * 3e9 / 2500.0


def _inverse_squares(gaps):
    inverse = np.zeros_like(gaps)
    np.divide(1.0, gaps * gaps, out=inverse, where=gaps != 0.0)
    return inverse


def test_control_variate_mean_matches_its_closed_form():
    # C = sum_j mean_m d_jm^2 / g_j^2 over the interferers, 10^6 trials of
    # the package's own sampler, against E[C] = (x^2 / 6) sum_j 1 / g_j^2
    gaps = subcarrier_gaps(1, CV_CFG.half_subcarriers, CV_CFG.spacing_symbol_product)
    inverse = _inverse_squares(gaps)
    rng = np.random.default_rng(2024)
    chunks = []
    for _ in range(20):
        d = CV_X * sample_cell_batch(rng, 50_000, gaps.size, CV_CELL)
        chunks.append((d * d).mean(axis=2) @ inverse)
    c = np.concatenate(chunks)
    expected = CV_X ** 2 / 6.0 * inverse.sum()
    assert abs(c.mean() - expected) <= 4.0 * c.std(ddof=1) / math.sqrt(c.size)


def _subtracted(monkeypatch, estimate):
    # what an estimator subtracts from each trial: the samples it reduces
    # with every variate cutoff patched to 0 less those it reduces as is,
    # one array per estimate, and the samples as is
    samples = []
    reduce = montecarlo._reduce
    monkeypatch.setattr(montecarlo, "_reduce", lambda values: samples.append(values.copy())
                        or reduce(values))
    estimate()
    with monkeypatch.context() as patched:
        for cutoff in ("_VARIATE_MAX_X_CENTRE", "_VARIATE_MAX_X_OFF_CENTRE",
                       "_VARIATE_MAX_X_CAPACITY"):
            patched.setattr(montecarlo, cutoff, 0.0)
        estimate()
    half = len(samples) // 2
    return [off - on for on, off in zip(samples[:half], samples[half:])], samples[:half]


# E[z^p] for p = 0..6, z = u cos psi: E[u^p] E[cos^p psi] with E[u^p] = 1 / (p + 1)
# and E[cos^p psi] = C(p, p/2) / 2^p for even p, 0 for odd p
PATH_MOMENT_MEANS = [Fraction(1), 0, Fraction(1, 6), 0, Fraction(3, 40), 0, Fraction(5, 112)]


def _taylor_coefficients(g):
    # a_p(g), p = 0..6: the Taylor coefficients of sinc^2(g + d) at d = 0, by mpmath
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return [float(a) for a in mpmath.taylor(lambda d: mpmath.sincpi(g + d) ** 2, 0, 6)]


def test_path_moment_means_are_exact():
    assert list(montecarlo._MOMENT_MEANS) == [float(PATH_MOMENT_MEANS[p]) for p in range(2, 7)]


@pytest.mark.parametrize("q", [1, 2])
def test_taylor_table_is_the_series_of_the_kernel(q):
    # a_p(n q) = sum_e table[(p, e)] q^-e against mpmath, p = 2..6
    index_gaps = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 7.0, -7.0])
    table = montecarlo._taylor_table(index_gaps)
    for column, n in zip(table.T, index_gaps):
        exact = _taylor_coefficients(n * q)
        for p in range(2, 7):
            got = sum(value / q ** e for value, (order, e) in zip(column, montecarlo._TERMS)
                      if order == p)
            if n == 0.0 and p % 2:
                assert got == 0.0 and abs(exact[p]) < 1e-30
            else:
                assert got == pytest.approx(exact[p], rel=1e-13, abs=0.0), (n, q, p)


def test_every_taylor_variate_has_mean_zero():
    # each term (p, e) of the power estimators' variates, reduced from the
    # moments _device_powers yields, over 2^17 trials of 5 devices of 2 paths
    plan = TrialPlan(trials=1 << 17, seed=29, target_index=1)
    index_gaps = subcarrier_gaps(plan.target_index, 2)
    table = montecarlo._taylor_table(index_gaps)
    reductions = np.empty((plan.trials, len(montecarlo._TERMS)))
    for _, rows, _, moments, _ in montecarlo._device_powers(
            plan, CellConfig(2), [(SystemConfig(half_subcarriers=2), MobilityModel(0.0))],
            [index_gaps], False):
        reductions[rows] = montecarlo._term_reductions(moments, table)
    for term, column in zip(montecarlo._TERMS, reductions.T):
        assert abs(column.mean()) <= 4.0 * column.std(ddof=1) / math.sqrt(column.size), term


def test_control_variates_are_the_taylor_series_of_the_kernel(monkeypatch):
    # what the power estimators subtract from each trial: per device
    # sum_p a_p(g) (mean_m d_m^p - x^p E[z^p]), p = 2..6, with a_p(g) the
    # coefficient of d^p in sinc^2(g + d), summed over the interferers for
    # the interference
    plan = TrialPlan(trials=256, seed=26, target_index=1)
    gaps = subcarrier_gaps(plan.target_index, CV_CFG.half_subcarriers,
                           CV_CFG.spacing_symbol_product)

    def excess(device_gaps):
        # sum_p a_p(g) (mean_m d_m^p - x^p E[z^p]) per device, from the raw draws
        d = CV_X * sample_cell_batch(montecarlo._block_rng(plan.seed, 0), plan.trials,
                                     len(device_gaps), CV_CELL)
        coefficients = np.array([_taylor_coefficients(g) for g in device_gaps])
        return sum(((d ** p).mean(axis=2) - CV_X ** p * float(PATH_MOMENT_MEANS[p]))
                   * coefficients[:, p] for p in range(2, 7))

    def check(estimate, *expected):
        got, _ = _subtracted(monkeypatch, estimate)
        for g, e in zip(got, expected, strict=True):
            np.testing.assert_allclose(g, e, rtol=0.0, atol=1e-14)

    check(lambda: estimate_total_ici(plan, CV_CFG, CV_CELL, CV_MOB),
          np.delete(excess(gaps), plan.target_index + CV_CFG.half_subcarriers, axis=1).sum(axis=1))
    check(lambda: estimate_useful_power(plan, CV_CFG, CV_CELL, CV_MOB), excess([0.0])[:, 0])
    # column 0 is the device on -1 seen from 1, column 1 the reverse
    pair = excess([-2.0, 2.0])
    check(lambda: symmetry_probe(-1, 1, plan, CV_CFG, CV_CELL, CV_MOB),
          pair[:, 1], pair[:, 0])


@pytest.mark.parametrize("cfg, cell, target", [
    (CFG, CELL, 0),
    (SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=5), CellConfig(3), -4),
    (SystemConfig(symbol_period_s=2.0 / 2500.0, half_subcarriers=7), CELL, 7),
], ids=["default", "3ghz-edge", "double-period"])
def test_control_variate_keeps_static_networks_exact(cfg, cell, target):
    plan = TrialPlan(trials=300, seed=24, target_index=target)
    mob0 = MobilityModel(max_velocity_mps=0.0)
    ici = estimate_total_ici(plan, cfg, cell, mob0)
    useful = estimate_useful_power(plan, cfg, cell, mob0)
    assert (ici.mean, ici.std_error) == (0.0, 0.0)
    assert (useful.mean, useful.std_error) == (cfg.effective_power, 0.0)
    for onto in symmetry_probe(target, 0 if target else 1, plan, cfg, cell, mob0):
        assert (onto.mean, onto.std_error) == (0.0, 0.0)
    # a constant array can still show a rounding spread through np.std
    assert estimate_ergodic_capacity(plan, cfg, cell, mob0).std_error <= 1e-14


def test_control_variate_cuts_the_fig3_standard_error():
    # the fig3 point with the largest Doppler, 3 GHz at 100 m/s (x = 0.4),
    # at the benchmark's 2048 trials; at this seed the relative standard
    # error was 0.010583 with no variate, 0.0035 with the d^2 term alone and
    # is 4.318e-5 with the series through d^6
    cfg = SystemConfig(carrier_frequency_hz=3e9)
    est = estimate_total_ici(TrialPlan(trials=2048, seed=42), cfg, CELL, MOB)
    exact = finite_n_ici(0, 100.0, cfg)
    assert est.std_error / exact <= 2.0 * 4.318e-5
    assert abs(est.mean - exact) <= 4.0 * est.std_error


# standard errors at 2048 trials and seed 5 with the variate forced off,
# rounded up: x = 1.8 and 3 at 900 MHz, where a d^2 variate would add
# variance (2.8x and 7.8x the interference's standard error)
VARIATE_OFF_STD_ERROR = {
    1500.0: (0.0050487, 0.0064643),  # (estimate_total_ici, estimate_useful_power)
    2500.0: (0.0058637, 0.0063024),
}


@pytest.mark.parametrize("v_max", sorted(VARIATE_OFF_STD_ERROR))
def test_control_variate_stops_where_it_adds_variance(v_max):
    plan = TrialPlan(trials=2048, seed=5)
    mob = MobilityModel(max_velocity_mps=v_max)
    ici = estimate_total_ici(plan, CFG, CELL, mob)
    useful = estimate_useful_power(plan, CFG, CELL, mob)
    assert ici.std_error <= VARIATE_OFF_STD_ERROR[v_max][0]
    assert useful.std_error <= VARIATE_OFF_STD_ERROR[v_max][1]
    assert abs(ici.mean - finite_n_ici(0, v_max, CFG)) <= 4.0 * ici.std_error
    assert abs(useful.mean - effective_useful_power(v_max, CFG)) <= 4.0 * useful.std_error


@pytest.mark.parametrize("x,centre,on", [
    (0.74, False, True), (0.76, False, False),  # off the centre: 0.75
    (1.1, True, True), (1.12, True, False),     # on the centre: 1.1
])
def test_control_variates_stop_at_their_measured_cut_offs(x, centre, on, monkeypatch):
    # just below a cut-off the variates cut the standard error; just above
    # it the estimate is the one with the variates forced off, bit for bit
    plan = TrialPlan(trials=1024, seed=6)
    mob = MobilityModel(max_velocity_mps=x / CFG.doppler_span(1.0))
    estimate = estimate_useful_power if centre else estimate_total_ici
    with_variates = estimate(plan, CFG, CELL, mob)
    monkeypatch.setattr(montecarlo, "_VARIATE_MAX_X_CENTRE" if centre
                        else "_VARIATE_MAX_X_OFF_CENTRE", -1.0)
    plain = estimate(plan, CFG, CELL, mob)
    if on:
        assert with_variates.std_error < plain.std_error / 1.2
        assert abs(with_variates.mean - plain.mean) <= 4.0 * plain.std_error
    else:
        assert with_variates == plain


def test_ici_estimates_are_unbiased_at_every_fig3_point():
    # the fig3 grid at the benchmark's 2048 trials against the quadrature,
    # 4 standard errors and no relative floor; the worst |z| is 0.34
    plan = TrialPlan(trials=2048, seed=42)
    speeds = [10.0 * k for k in range(1, 11)]
    for fc in (900e6, 3e9):
        cfg = SystemConfig(carrier_frequency_hz=fc)
        group = estimate_total_ici(plan, [cfg] * len(speeds), CELL,
                                   [MobilityModel(v) for v in speeds])
        for v, est in zip(speeds, group):
            assert abs(est.mean - finite_n_ici(0, v, cfg)) <= 4.0 * est.std_error, (fc, v)


# ---------------------------------------------------------------------------
# capacity control variate

# 5 devices of 3 paths at 3 GHz with two sub-carrier cycles per symbol
# (q = T_s df = 2), x = V_max f_c T_s / c = 0.56
CAP_CFG = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=2,
                       symbol_period_s=2.0 / 2500.0)
CAP_X = 70.0 / 3e8 * 3e9 * 2.0 / 2500.0


def _variates(plan, cfg, cell):
    # the capacity estimator's V_I, with the weights, and V_0, from the
    # brackets _device_powers yields, one scenario
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers, cfg.spacing_symbol_product)
    inverse = _inverse_squares(subcarrier_gaps(plan.target_index, cfg.half_subcarriers))
    target = plan.target_index + cfg.half_subcarriers
    variates = np.empty((2, plan.trials))
    for _, rows, _, (bracket,), weights in montecarlo._device_powers(
            plan, cell, [(cfg, MobilityModel(0.0))], [gaps], True):
        variates[:, rows] = (montecarlo._interference_variate(bracket, inverse, weights),
                             bracket[:, target] - 1.0 / 6.0)
    return variates


def test_capacity_variates_have_mean_zero():
    plan = TrialPlan(trials=1_000_000, seed=28, target_index=1)
    for v in _variates(plan, SystemConfig(half_subcarriers=2), CellConfig(2)):
        assert abs(v.mean()) <= 4.0 * v.std(ddof=1) / math.sqrt(v.size)


def _capacity_slope(s):
    # d/ds of log2(e) e^s E1(s)
    return analytic.LOG2_E * (float(numerics.exp1_scaled(s)) - 1.0 / s)


def test_capacity_variate_is_the_leading_doppler_term(monkeypatch):
    # what the capacity estimator subtracts from each trial:
    # beta_I (I - E[I]) + beta_0 (k_0 - E[k_0]) to leading order in d, with
    # I = sum_j w_j mean_m d_jm^2 / g_j^2 and k_0 = 1 - (pi^2 / 3) mean_m d_0m^2
    plan = TrialPlan(trials=256, seed=27, target_index=1)
    mob = MobilityModel(max_velocity_mps=70.0)
    gaps = subcarrier_gaps(plan.target_index, CAP_CFG.half_subcarriers,
                           CAP_CFG.spacing_symbol_product)
    rng = montecarlo._block_rng(plan.seed, 0)
    d = CAP_X * sample_cell_batch(rng, plan.trials, gaps.size, CV_CELL)
    weights = rng.standard_exponential((plan.trials, gaps.size))
    mean_d2 = (d * d).mean(axis=2)
    inverse = _inverse_squares(gaps)
    interference = (weights * mean_d2) @ inverse - CAP_X ** 2 / 6.0 * inverse.sum()
    useful = -math.pi ** 2 / 3.0 * (mean_d2[:, 3] - CAP_X ** 2 / 6.0)

    k_bar = 1.0 - math.pi ** 2 * CAP_X ** 2 / 18.0
    s_bar = (CAP_X ** 2 / 6.0 * inverse.sum() + CAP_CFG.noise_variance) / k_bar
    slope = _capacity_slope(s_bar)
    h = 1e-5 * s_bar
    numeric = (float(numerics.exp1_scaled(s_bar + h) - numerics.exp1_scaled(s_bar - h))
               * analytic.LOG2_E / (2.0 * h))
    assert slope == pytest.approx(numeric, rel=1e-7)
    subtracted = slope / k_bar * interference - slope * s_bar / k_bar * useful

    [got], [with_variate] = _subtracted(
        monkeypatch, lambda: estimate_ergodic_capacity(plan, CAP_CFG, CV_CELL, mob))
    np.testing.assert_allclose(got, subtracted, rtol=0.0, atol=1e-14)
    assert np.std(with_variate) < np.std(with_variate + got)


def test_capacity_variate_cuts_the_fig4_standard_error():
    # the fig4 point with the largest Doppler, 500 Hz at 100 m/s (x = 0.6),
    # at 2048 trials; without the variate the standard error was
    # 0.015407577 at this seed
    cfg = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199)
    est = estimate_ergodic_capacity(TrialPlan(trials=2048, seed=5), cfg, CELL, MOB)
    assert est.std_error <= 0.6 * 0.015407577
    assert est.mean <= capacity_upper(100.0, cfg) + 3.0 * est.std_error


# capacity standard errors at 2048 trials and seed 5 without the variate,
# rounded up: x = 1.5 and 3 at 900 MHz, past the cutoff at x = 0.9
CAPACITY_VARIATE_OFF_STD_ERROR = {1250.0: 0.016011848, 2500.0: 0.011646735}


@pytest.mark.parametrize("v_max", sorted(CAPACITY_VARIATE_OFF_STD_ERROR))
def test_capacity_variate_stops_where_it_adds_variance(v_max):
    est = estimate_ergodic_capacity(TrialPlan(trials=2048, seed=5), CFG, CELL,
                                    MobilityModel(v_max))
    assert est.std_error <= CAPACITY_VARIATE_OFF_STD_ERROR[v_max]


def test_monte_carlo_route_needs_no_quadrature(monkeypatch):
    # the simulator must stay a route independent of the quadratures it
    # checks, control variate included
    def refuse(*args, **kwargs):
        raise AssertionError("the Monte Carlo route called a quadrature")
    for module in (numerics, analytic):
        monkeypatch.setattr(module, "integrate", refuse)
        monkeypatch.setattr(module, "sine_integral", refuse)
    plan = TrialPlan(trials=300, seed=25)
    for mob in (MobilityModel(0.0), MOB):
        estimate_total_ici(plan, CFG, CELL, mob)
        estimate_useful_power(plan, CFG, CELL, mob)
        symmetry_probe(0, 3, plan, CFG, CELL, mob)
        estimate_ergodic_capacity(plan, CFG, CELL, mob)
