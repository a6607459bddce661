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
    # coherent powers, against the conditional-mean estimator: the main
    # draws' per trial plus the tail's per tail draw, two independent means
    plan = TrialPlan(trials=30000, seed=8)
    incoherent = estimate_total_ici(plan, CFG, CELL, MOB)
    gaps = subcarrier_gaps(plan.target_index, CFG.half_subcarriers,
                           CFG.spacing_symbol_product)
    samples = [np.empty(plan.trials), np.empty(montecarlo._tail_draws(plan.trials))]
    neighbours = montecarlo._capacity_layout(plan.target_index, CFG.half_subcarriers)[1][1:]
    own_draws = np.random.default_rng(108)
    for _, rows, powers, _, weights in montecarlo._device_powers(plan, CELL, [(CFG, MOB)],
                                                                 [gaps], True):
        # the estimator averages the near neighbours' fading and draws them
        # no weight, so they get weights of their own here
        weights = [w.copy() for w in weights]
        weights[0][:, neighbours] = own_draws.standard_exponential((len(weights[0]), 4))
        for sample, r, p, w in zip(samples, rows, powers, weights, strict=True):
            sample[r] = (p * w).sum(axis=1) * CFG.effective_power
    main, tail = (montecarlo._reduce(sample) for sample in samples)
    coherent = Estimate(main.mean + tail.mean, math.hypot(main.std_error, tail.std_error),
                        plan.trials)
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


@pytest.mark.parametrize("trials", [1, 7, 256, 50000])
def test_capacity_static_network_oracle(trials):
    # the neighbours' factors are exactly 1 and every trial's influence is
    # the same, so every trial less the first is exactly 0, and so are the
    # fitted slopes and the spread
    mob0 = MobilityModel(max_velocity_mps=0.0)
    est = estimate_ergodic_capacity(TrialPlan(trials=trials, seed=12), CFG, CELL, mob0)
    assert abs(est.mean - STATIC_CAPACITY_SNR20) <= 2e-15 * STATIC_CAPACITY_SNR20
    assert est.std_error == 0.0


def test_capacity_below_upper_bound():
    est = estimate_ergodic_capacity(TrialPlan(trials=20000, seed=13), CFG, CELL, MOB)
    assert est.mean <= capacity_upper(100.0, CFG) + 3.0 * est.std_error


def test_capacity_upper_is_not_a_bound_at_one_path():
    # log2(1 + X / (Y + n)) is convex in the interference Y, so with one
    # path per device, whose interference is the most spread, the ergodic
    # capacity lies above the capacity at the mean powers: +77.5 stderr
    cfg = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199,
                       noise_variance=1e-4)
    est = estimate_ergodic_capacity(TrialPlan(trials=8192, seed=3), cfg,
                                    CellConfig(paths_per_device=1), MOB)
    assert est.mean - capacity_upper(100.0, cfg) > 4.0 * est.std_error


def test_capacity_requires_noise():
    # and P_T / noise at most 1e300, where the rule stops growing
    static = MobilityModel(max_velocity_mps=0.0)
    beyond = r"P_T / noise at most 1e\+300; got (9.9+e\+300|inf)$"
    for noise, mob in [(0.0, MOB), (1e-301, MOB), (1e-320, MOB), (1e-320, static)]:
        with pytest.raises(ValueError, match=beyond):
            estimate_ergodic_capacity(TrialPlan(trials=100), SystemConfig(noise_variance=noise),
                                      CELL, mob)


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
# variate.  fig4's 500 Hz curve (N = 199) is the one pin where the
# capacity draws its neighbours at index gap +-1 more than once (R = 11);
# it and the default band (N = 24) draw a tail beyond index gap 10, which
# the 3 GHz edge pin (N = 5, index gaps -1..9) does not
PINNED = {
    "ici": ("0x1.f47f866aed00ap-8", "0x1.e66b9a9cb6196p-33"),  # 0.007637 +- 2.21e-10
    "ici_edge_3ghz": ("0x1.357887ba6133cp-7", "0x1.8acbc1c1c015cp-30"),  # 0.0094443 +- 1.44e-09
    "useful": ("0x1.fbfdde6c55bfdp-1", "0x1.08eed71cca963p-37"),  # 0.992171 +- 7.53e-12
    "capacity": ("0x1.4a14ed9337c77p+2", "0x1.498b1ae9ee8d8p-14"),  # 5.15753 +- 7.86e-05
    "capacity_edge_3ghz": ("0x1.451b066eec218p+2", "0x1.a37c7bec6d8c7p-12"),  # 5.07977 +- 0.0004
    "capacity_500hz": ("0x1.35f39c53e35adp+1", "0x1.f1d8829b9dd0ep-12"),  # 2.4215 +- 0.000475
    "symmetry_a": ("0x1.12506b7a7bf96p-12", "0x1.7d3cc519dfe72p-36"),  # 0.000261606 +- 2.17e-11
    "symmetry_b": ("0x1.12506928e0ccfp-12", "0x1.3e918c90479d9p-36"),  # 0.000261606 +- 1.81e-11
}


def test_estimates_keep_their_pinned_bits():
    plan = TrialPlan(trials=300, seed=21)
    edge = TrialPlan(trials=300, seed=22, target_index=-4)
    cfg3 = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=5)
    cell3 = CellConfig(paths_per_device=3)
    mob3 = MobilityModel(max_velocity_mps=37.5)
    cfg500 = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199)
    onto_a, onto_b = symmetry_probe(0, 3, plan, CFG, CELL, MOB)
    got = {
        "ici": estimate_total_ici(plan, CFG, CELL, MOB),
        "ici_edge_3ghz": estimate_total_ici(edge, cfg3, cell3, mob3),
        "useful": estimate_useful_power(plan, CFG, CELL, MOB),
        "capacity": estimate_ergodic_capacity(plan, CFG, CELL, MOB),
        "capacity_edge_3ghz": estimate_ergodic_capacity(edge, cfg3, cell3, mob3),
        "capacity_500hz": estimate_ergodic_capacity(plan, cfg500, CELL, MOB),
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


def test_the_kernel_runs_in_64_byte_aligned_tiles(monkeypatch):
    # the kernel's speed follows its workspace's alignment, which must not
    # be left to where the heap places it
    seen = []

    def spy(gap, offset, span=None, out=None, work=None):
        seen.extend(a.ctypes.data % 64 for a in (offset, out, work[0], work[1]))
        return numerics.sinc_squared(gap, offset, span, out, work)

    monkeypatch.setattr(montecarlo, "sinc_squared", spy)
    # workspaces of 0.3 to 1 MB, which the heap places differently
    for n in (2, 24, 100, 400):
        cfg = SystemConfig(half_subcarriers=n, bandwidth_hz=0.0)
        estimate_total_ici(TrialPlan(trials=300, seed=26), cfg, CELL, MOB)
    assert seen and set(seen) == {0}


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


@pytest.mark.parametrize("half_subcarriers,paths",
                         [(5, 1), (40, 8), (150, 2), (400, 8), (1000, 1), (2000, 8)])
@pytest.mark.parametrize("coherent", [False, True])
def test_block_bytes_bounds_what_the_blocks_hold(half_subcarriers, paths, coherent):
    # two moving scenarios over three blocks, one partial, after a warm-up
    # call; the bound is within a tenth of the traced peak.  The capacity
    # runs the whole estimator at 20 dB, whose factor tables outweigh the
    # sampler's scratch at N = 5 and 40; without its per-trial allowance
    # held across blocks the bound fails at N = 2000.  Its bound adds what
    # the run keeps: per draw the columns V and each scenario's influence
    # a part (the tail's on its own draws), and per scenario the fold sums
    # of [1, V] times the factors on the rule's nodes and three vectors a
    # part.
    cfg = SystemConfig(half_subcarriers=half_subcarriers, bandwidth_hz=0.0)
    cell = CellConfig(paths_per_device=paths)
    plan = TrialPlan(trials=600, seed=3)
    mobs = [MOB, MobilityModel(50.0)]
    gaps = [subcarrier_gaps(0, half_subcarriers)] * 2

    def run():
        if coherent:
            estimate_ergodic_capacity(plan, [cfg, cfg], cell, mobs)
        else:
            for _ in montecarlo._device_powers(plan, cell, [(cfg, m) for m in mobs], gaps, False):
                pass
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    devices = 2 * half_subcarriers + 1
    bound = montecarlo.block_bytes(devices, paths,
                                   cfg.effective_power / cfg.noise_variance if coherent else None)
    if coherent:
        nodes = numerics.hamdi_rule(100.0)[0].size
        for rows, _, parts, design in montecarlo._capacity_sizes(devices, paths):
            draws = plan.trials if rows == montecarlo.BLOCK_TRIALS \
                else montecarlo._tail_draws(plan.trials)
            bound += 8 * (draws * (design - parts + parts * len(mobs))
                          + len(mobs) * nodes * (8 * design + 3 * parts))
    assert 0.9 * bound <= peak <= bound


@pytest.mark.parametrize("trials,scenarios", [(1000, 3), (4096, 11)])
@pytest.mark.parametrize("coherent", [False, True])
def test_run_bytes_bounds_what_a_run_holds(trials, scenarios, coherent):
    # what the run keeps (per trial the columns and each scenario's
    # samples; for the capacity each scenario's node sums) and the larger
    # of a block and the fit's design and temporaries, which run after the
    # block's arrays are let go: the peak is 0.93-0.99 of the bound here
    mobs = [MobilityModel(10.0 * (k + 1)) for k in range(scenarios)]
    estimate = estimate_ergodic_capacity if coherent else estimate_total_ici
    estimate(TrialPlan(trials=300, seed=1), [CFG] * scenarios, CELL, mobs)
    tracemalloc.start()
    try:
        estimate(TrialPlan(trials=trials, seed=1), [CFG] * scenarios, CELL, mobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = montecarlo.run_bytes(trials, scenarios, 2 * CFG.half_subcarriers + 1,
                                 CELL.paths_per_device,
                                 CFG.effective_power / CFG.noise_variance if coherent else None)
    assert 0.8 * bound <= peak <= bound


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
    # the result of estimate(), and per part of each per-trial array a
    # power estimator fits: the columns it fits, the intercept first, and
    # what it subtracts from each trial, the array less its residuals
    fits = []
    fitted = montecarlo._fitted

    def record(columns, samples):
        design = np.concatenate([np.ones(columns.shape[:2] + (1,)), columns], axis=2)
        for y, residuals in zip(samples, fitted(columns, samples), strict=True):
            fits.extend((design[:, part], y[:, part] - residuals[:, part])
                        for part in range(y.shape[1]))
            yield residuals

    with monkeypatch.context() as patched:
        patched.setattr(montecarlo, "_fitted", record)
        result = estimate()
    return result, fits


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


def test_every_taylor_variate_has_mean_zero():
    # each of the interference's 9 columns, one per term (p, e), reduced
    # from the moments _device_powers yields, over 2^17 trials of 5
    # devices of 2 paths; three distinct |n| keep every term
    plan = TrialPlan(trials=1 << 17, seed=29, target_index=1)
    index_gaps = subcarrier_gaps(plan.target_index, 2)
    table = montecarlo._taylor_table(index_gaps)
    assert table.shape == (9, 5) and np.all(table.any(axis=1))
    reductions = np.empty((plan.trials, len(montecarlo._TERMS)))
    for _, rows, _, moments, _ in montecarlo._device_powers(
            plan, CellConfig(2), [(SystemConfig(half_subcarriers=2), MobilityModel(0.0))],
            [index_gaps], False):
        reductions[rows] = montecarlo._term_reductions(moments, table)
    for term, column in zip(montecarlo._TERMS, reductions.T):
        assert abs(column.mean()) <= 4.0 * column.std(ddof=1) / math.sqrt(column.size), term


@pytest.mark.parametrize("q", [1, 2])
def test_the_power_variates_span_the_taylor_series_of_the_kernel(q, monkeypatch):
    # per device and trial the kernel's Taylor series through d^6 less its
    # mean, sum_p a_p(g) (mean_m d_m^p - x^p E[z^p]) with a_p(g) the
    # coefficient of d^p in sinc^2(g + d) by mpmath, summed over the
    # interferers for the interference, is a least-squares combination of
    # the columns each estimator fits, whatever x and q
    cfg = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=2, symbol_period_s=q / 2500.0)
    plan = TrialPlan(trials=256, seed=26, target_index=1)
    x = cfg.doppler_span(CV_MOB.max_velocity_mps)  # 0.28 q
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers, cfg.spacing_symbol_product)

    def excess(device_gaps):
        # sum_p a_p(g) (mean_m d_m^p - x^p E[z^p]) per device, from the raw draws
        d = x * sample_cell_batch(montecarlo._block_rng(plan.seed, 0), plan.trials,
                                  len(device_gaps), CV_CELL)
        coefficients = np.array([_taylor_coefficients(g) for g in device_gaps])
        return sum(((d ** p).mean(axis=2) - x ** p * float(PATH_MOMENT_MEANS[p]))
                   * coefficients[:, p] for p in range(2, 7))

    def check(estimate, *expected):
        _, fits = _subtracted(monkeypatch, estimate)
        for (columns, _), series in zip(fits, expected, strict=True):
            combination = columns @ np.linalg.lstsq(columns, series, rcond=None)[0]
            assert np.linalg.norm(combination - series) <= 1e-12 * np.linalg.norm(series)

    check(lambda: estimate_total_ici(plan, cfg, CV_CELL, CV_MOB),
          np.delete(excess(gaps), plan.target_index + cfg.half_subcarriers, axis=1).sum(axis=1))
    check(lambda: estimate_useful_power(plan, cfg, CV_CELL, CV_MOB), excess([0.0])[:, 0])
    # fitted in device order: device 0 is the source on -1 seen from 1,
    # device 1 the reverse
    pair = excess([-2.0 * q, 2.0 * q])
    check(lambda: symmetry_probe(-1, 1, plan, cfg, CV_CELL, CV_MOB), pair[:, 0], pair[:, 1])


@pytest.mark.parametrize("trials", [7, 300, 700])
def test_parts_fitted_together_keep_the_bits_each_gets_alone(trials):
    # each part is fitted on its own columns, so the residuals of a group
    # of parts, as symmetry_probe's two devices and the capacity's parts
    # are fitted, equal those of each part fitted alone, bit for bit; at
    # 7 trials no fold subtracts anything
    rng = np.random.default_rng(37)
    columns = rng.standard_normal((trials, 3, 5))
    samples = [columns @ rng.standard_normal(5) + rng.standard_normal((trials, 3))
               for _ in range(2)]
    together = list(montecarlo._fitted(columns, samples))
    for part in range(3):
        alone = montecarlo._fitted(columns[:, part:part + 1],
                                   [y[:, part:part + 1] for y in samples])
        for residuals, lone in zip(together, alone, strict=True):
            assert np.array_equal(residuals[:, part], lone[:, 0])
    # beyond 8 trials the folds subtract their fits
    assert np.array_equal(together[0], samples[0]) == (trials == 7)


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
    assert estimate_ergodic_capacity(plan, cfg, cell, mob0).std_error == 0.0


def test_control_variate_cuts_the_fig3_standard_error():
    # the fig3 point with the largest Doppler, 3 GHz at 100 m/s (x = 0.4),
    # at the benchmark's 2048 trials; at this seed the relative standard
    # error was 0.010583 with no variate, 0.0035 with the d^2 term alone,
    # 4.318e-5 with the fixed series through d^6, and is 3.991e-6 with the
    # series' columns fitted
    cfg = SystemConfig(carrier_frequency_hz=3e9)
    est = estimate_total_ici(TrialPlan(trials=2048, seed=42), cfg, CELL, MOB)
    exact = finite_n_ici(0, 100.0, cfg)
    assert est.std_error / exact <= 2.0 * 3.991e-6
    assert abs(est.mean - exact) <= 4.0 * est.std_error


# standard errors at 2048 trials and seed 5 with no variate, rounded up, at
# 900 MHz and q = T_s df = 1, where x = V_max / (833.3 m/s): at x = 1.8
# and 3 a fixed Taylor series would add variance, and a fixed series with
# measured cut-offs had none at x = 0.8 and 1.0 off the centre (above
# 0.75) and at 1.15 and 1.2 on it (above 1.1)
VARIATE_OFF_STD_ERROR = {
    (estimate_total_ici, 1500.0): 0.0050487,
    (estimate_useful_power, 1500.0): 0.0064643,
    (estimate_total_ici, 2500.0): 0.0058637,
    (estimate_useful_power, 2500.0): 0.0063024,
    (estimate_total_ici, 2000.0 / 3.0): 0.0028707,
    (estimate_total_ici, 2500.0 / 3.0): 0.0038971,
    (estimate_useful_power, 2875.0 / 3.0): 0.0058471,
    (estimate_useful_power, 1000.0): 0.0059606,
}


@pytest.mark.parametrize("estimator,v_max", list(VARIATE_OFF_STD_ERROR),
                         ids=[f"{e.__name__}-{CFG.doppler_span(v):.3g}"
                              for e, v in VARIATE_OFF_STD_ERROR])
def test_power_variates_need_no_cut_off(estimator, v_max):
    # fitted slopes cut the variance at any x: the standard errors are
    # 0.01-0.7 of those without a variate
    est = estimator(TrialPlan(trials=2048, seed=5), CFG, CELL, MobilityModel(v_max))
    assert est.std_error <= 0.8 * VARIATE_OFF_STD_ERROR[estimator, v_max]
    exact = finite_n_ici(0, v_max, CFG) if estimator is estimate_total_ici \
        else effective_useful_power(v_max, CFG)
    assert abs(est.mean - exact) <= 4.0 * est.std_error


@pytest.mark.parametrize("half_subcarriers", [0, 1, 2])
def test_a_small_band_fits_independent_interference_columns(half_subcarriers):
    # a band with fewer distinct |n| than an order p has terms makes that
    # order's weights n^-e dependent (at N = 1, n^-2 = n^-4 = 1), which
    # would leave the fit a singular matrix: the table keeps as many of
    # p's rows as their rank and zeroes the others, and every target's
    # estimate agrees with the quadrature
    cfg = SystemConfig(half_subcarriers=half_subcarriers)
    for target in range(-half_subcarriers, half_subcarriers + 1):
        index_gaps = subcarrier_gaps(target, half_subcarriers)
        table = montecarlo._taylor_table(index_gaps)
        for p in range(2, 7):
            rows = montecarlo._TERM_ORDERS == p
            weights = [[n ** -e if n else 0.0 for n in index_gaps]
                       for e in montecarlo._TERM_EXPONENTS[rows]]
            kept = table[rows][table[rows].any(axis=1)]
            assert len(kept) == np.linalg.matrix_rank(kept) == np.linalg.matrix_rank(weights)
        est = estimate_total_ici(TrialPlan(trials=600, seed=3, target_index=target), cfg, CELL,
                                 MOB)
        assert abs(est.mean - finite_n_ici(target, 100.0, cfg)) <= 4.0 * est.std_error


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


def test_power_estimates_are_unbiased_and_their_std_error_honest():
    # the fig3 point with the largest Doppler, 3 GHz at 100 m/s (x = 0.4):
    # 200 seeds of 256 trials, one block each, so that each fold's slopes
    # come from 224 trials; the mean estimate against the quadrature within
    # 4 standard errors of that mean, and the standard error each run
    # reports against the spread of the 200 estimates.  Here z = 0.12 and
    # the ratio 0.94; fitting each fold on its own trials reads 0.55
    cfg = SystemConfig(carrier_frequency_hz=3e9)
    runs = [estimate_total_ici(TrialPlan(trials=256, seed=seed), cfg, CELL, MOB)
            for seed in range(200)]
    means = np.array([run.mean for run in runs])
    spread = means.std(ddof=1)
    assert abs(means.mean() - finite_n_ici(0, 100.0, cfg)) <= 4.0 * spread / math.sqrt(len(runs))
    assert math.sqrt(np.mean([run.std_error ** 2 for run in runs])) >= 0.85 * spread


# ---------------------------------------------------------------------------
# capacity: the average over every combination of the parts' draws, and
# its cross-fitted control variates


def _recorded(monkeypatch, plan, cfgs, cell, mobs):
    # the estimates of a group, and what the estimator computed them from:
    # per scenario and draw set (the main draws, then the tail's if the band
    # has one), the factor tables of every block, each part's row the mean
    # over its draws, the rows of faded powers they were built from, the
    # extra draws' after the parts' (row 0 the trial's SNR), and the far
    # devices' interference; the rule's nodes and weights; and per part the
    # columns V of every block, the intercept prepended: [1, V_i]
    calls, columns = [], []
    factors, draw = montecarlo._part_factors, montecarlo._device_powers

    def record_tables(nodes, rows, interference, *args):
        table = factors(nodes, rows, interference, *args)
        # the estimator goes on to change its own table
        calls.append((np.array(rows), interference.copy(), table.copy()))
        return table

    def record_columns(*args):
        for k, *rest in draw(*args):
            if k == 0:
                columns.append(rest[2])
            yield k, *rest

    with monkeypatch.context() as patched:
        patched.setattr(montecarlo, "_part_factors", record_tables)
        patched.setattr(montecarlo, "_device_powers", record_columns)
        estimates = estimate_ergodic_capacity(plan, cfgs, cell, mobs)
    sets = len(calls) // (len(columns) * len(mobs))
    runs = []
    for k, cfg in enumerate(cfgs):
        recorded = [calls[k * sets + s::len(mobs) * sets] for s in range(sets)]
        runs.append(([(np.concatenate([table for _, _, table in blocks], axis=1),
                       np.concatenate([rows for rows, _, _ in blocks], axis=1),
                       np.concatenate([far for _, far, _ in blocks]))
                      for blocks in recorded],
                     numerics.hamdi_rule(cfg.effective_power / cfg.noise_variance)))
    designs = []
    for group in zip(*columns):
        group = np.concatenate(group)
        designs += [np.concatenate([np.ones((len(group), 1)), part], axis=1)
                    for part in group.transpose(1, 0, 2)]
    return estimates, runs, designs


def _factors(run):
    # each part's factor per draw and node, the main draws' parts and then
    # the tail: the signal's table times its SNR
    sets, (_, weights) = run
    factors = []
    for s, (tables, faded, _) in enumerate(sets):
        tables = tables.copy()
        if s == 0:
            tables[0] *= faded[0][:, None]
        factors += list(tables)
    return factors, weights


def _two_pass(run, designs):
    # the estimate from stored arrays: the product over the parts of the
    # factor means on the rule, each part's mean at each node less V beta_f
    # on fold f = draw index mod 8 (the tail's numbered over its own draws),
    # beta_f the least-squares slopes, with an intercept, of the part's
    # factor at that node on the other folds, or nothing where they hold
    # fewer than 2 draws a column; the standard error from the parts'
    # residual variances, each over its own draw count, each part's
    # influence (at the first block's means) fitted on the other folds
    # alike.  Returns it in bits, with the standard error the parts'
    # influences give with no variate.
    factors, weights = _factors(run)
    trials = len(factors[0])
    first = np.array([table[:montecarlo.BLOCK_TRIALS if len(table) == trials
                            else montecarlo._TAIL_DRAWS].mean(axis=0) for table in factors])
    means = np.array([table.mean(axis=0) for table in factors])
    variance = plain = 0.0
    for part, (table, design) in enumerate(zip(factors, designs, strict=True)):
        draws = len(table)
        folds = np.arange(draws) % 8
        # less the first draw's factors, which keeps the digits of the spread
        others = np.prod(np.delete(first, part, axis=0), axis=0)
        influence = (table - table[0]) @ (weights * others)
        residuals = influence.copy()
        for fold in range(8):
            fit = folds != fold
            if fit.sum() >= 2 * (design.shape[1] - 1):
                beta = np.linalg.lstsq(design[fit], table[fit], rcond=None)[0]
                means[part] -= design[~fit, 1:].sum(axis=0) @ beta[1:] / draws
                beta = np.linalg.lstsq(design[fit], influence[fit], rcond=None)[0]
                residuals[~fit] -= design[~fit, 1:] @ beta[1:]
        if draws > 1:
            variance += residuals.var(ddof=1) / draws
            plain += influence.var(ddof=1) / draws
    return (analytic.LOG2_E * (weights @ np.prod(means, axis=0)),
            analytic.LOG2_E * math.sqrt(variance),
            analytic.LOG2_E * math.sqrt(plain))


def _capacity_variates(plan, cfg, cell):
    # per column group (the near parts, the mid part, the tail), its
    # (draws, columns) V of a static scenario, from _device_powers
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers, cfg.spacing_symbol_product)
    blocks = [v for _, _, _, v, _ in montecarlo._device_powers(
        plan, cell, [(cfg, MobilityModel(0.0))], [gaps], True)]
    return [np.concatenate(group).reshape(-1, group[0][0].size) for group in zip(*blocks)]


@pytest.mark.parametrize("half_subcarriers,target,near,paths,width",
                         [(3, 0, [3, 1, 2, 4, 5], 3, 57), (3, 3, [6, 4, 5], 3, 39),
                          (1, 0, [1, 0, 2], 3, 27), (0, 0, [0], 3, 9),
                          (3, 0, [3, 1, 2, 4, 5], 1, 37)],
                         ids=["interior", "band-edge", "n-equals-1", "no-interferer",
                              "interior-one-path"])
def test_every_capacity_variate_has_mean_zero(half_subcarriers, target, near, paths, width):
    # each column of V over 2^20 trials, within 4 standard errors; the near
    # devices are the target and its neighbours at index gap +-1, +-2 that
    # the band holds, one part each of 9 columns (5 at one path), and the
    # far devices, if any, one part of 12.  At N = 3 the far devices' one
    # |n| leaves four of the Taylor terms (p, e) no rank: those columns are
    # exactly 0
    cfg = SystemConfig(half_subcarriers=half_subcarriers)
    plan = TrialPlan(trials=1 << 20, seed=32, target_index=target)
    assert montecarlo._near_devices(target + half_subcarriers, 2 * half_subcarriers + 1) == near
    v = np.concatenate(_capacity_variates(plan, cfg, CellConfig(paths)), axis=1)
    assert v.shape == (plan.trials, width)
    zero = ~v.any(axis=0)
    assert np.count_nonzero(zero) == (4 if (half_subcarriers, target) == (3, 0) else 0)
    mean = v.mean(axis=0)
    spread = v.std(axis=0) / math.sqrt(plan.trials)
    assert np.all(np.abs(mean) <= 4.0 * spread), np.abs(mean) / spread


def _independent_monomial_mean(orders, paths):
    # E[prod_i m_(p_i)] by enumerating every tuple of path indices (m_1 ..
    # m_k): z_m = u c_m with u shared, so each tuple gives E[u^P] times the
    # product over its distinct indices of E[c^n], n the sum of the orders
    # sharing that index
    def cos_moment(n):
        return Fraction(math.comb(n, n // 2), 2 ** n) if n % 2 == 0 else Fraction(0)
    total = Fraction(0)
    for picks in np.ndindex(*(paths,) * len(orders)):
        sums = {}
        for order, pick in zip(orders, picks):
            sums[pick] = sums.get(pick, 0) + order
        total += math.prod((cos_moment(n) for n in sums.values()), start=Fraction(1))
    return total / paths ** len(orders) / (sum(orders) + 1)


@pytest.mark.parametrize("paths", [1, 2, 3, 8])
def test_monomial_means_are_exact(paths):
    # the means are exact rationals, correctly rounded: equal to the
    # rounding of the enumeration's Fraction
    for orders in montecarlo._NEAR_MONOMIALS + ((2, 2, 2), (3, 3, 2), (4, 4)):
        assert montecarlo._monomial_mean(orders, paths) \
            == float(_independent_monomial_mean(orders, paths)), orders
    assert montecarlo._monomial_mean((2, 2), 1) == float(PATH_MOMENT_MEANS[4])
    means = [float(_independent_monomial_mean(orders, paths))
             for orders in montecarlo._NEAR_MONOMIALS]
    assert list(montecarlo._near_means(paths)) == means[:5 if paths == 1 else None]


@pytest.mark.parametrize("paths", [1, 2, 3, 8])
def test_the_near_columns_have_full_rank(paths):
    # a near part's columns of 4096 trials of one device, no extra draw:
    # at one path only m_2..m_6 are kept, the products being moments; at
    # two m_2^3 would be a combination of the others, so it is left out
    moments = np.empty((5, 4096, 1))
    montecarlo._path_moments(sample_cell_batch(np.random.default_rng(paths), 4096, 1,
                                               CellConfig(paths)),
                             [slice(0, 4096)], moments, np.empty((4096, 1, paths)))
    near = montecarlo._near_columns(moments, [], paths)
    assert near.shape == (4096, 1, 5 if paths == 1 else 9)
    assert np.linalg.matrix_rank(near[:, 0]) == near.shape[2]
    if paths == 2:
        m2, m4, m6 = (moments[p - 2, :, 0] for p in (2, 4, 6))
        assert np.allclose(m6, 3.0 * m2 * m4 - 2.0 * m2 ** 3, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("half_subcarriers,target", [(3, 0), (3, 3), (4, 1), (39, 0)])
def test_the_far_columns_keep_their_rank(half_subcarriers, target):
    # each far-style part's Taylor table is built on its own devices' gaps
    # alone: at N = 3 and an interior target they hold one |n| = 3, so the
    # rows (4, 2) and (4, 4) are proportional there (1/9 and 1/81) and the
    # table keeps (4, 2) alone; built on every gap and then masked, it
    # would keep both and leave the fit two proportional columns.  At
    # N = 39 the mid part (3 <= |n| <= 10) and the tail keep all 12
    cfg = SystemConfig(half_subcarriers=half_subcarriers)
    plan = TrialPlan(trials=512, seed=40, target_index=target)
    far = _capacity_variates(plan, cfg, CellConfig(3))[1:]
    assert len(far) == (2 if half_subcarriers > montecarlo._TAIL_GAP else 1)
    for columns in far:
        kept = columns[:, columns.any(axis=0)]
        assert np.linalg.matrix_rank(kept) == kept.shape[1]
        assert kept.shape[1] == (8 if (half_subcarriers, target) == (3, 0) else 12)


@pytest.mark.parametrize("half_subcarriers,draws", [(4, 1), (4, 2), (12, 2)],
                         ids=["one-draw", "two-draws", "tail"])
def test_the_factor_means_average_every_combination_of_the_parts_draws(half_subcarriers, draws,
                                                                       monkeypatch):
    # 3 trials, too few for any fold to fit a variate: the estimate is the
    # rule on the product of the parts' factor means, which is the mean
    # over all ways to take each part's factor from any of its draws (3^6 =
    # 729 for six parts), each neighbour at index gap +-1 with the mean
    # factor of its draws.  N = 12 = K + 2 has a seventh part, the tail
    # beyond index gap K, here on 2 draws of its own: 3^6 x 2 ways
    monkeypatch.setattr(montecarlo, "_neighbour_draws", lambda half_subcarriers: draws)
    monkeypatch.setattr(montecarlo, "_TAIL_DRAWS", 2)
    assert (half_subcarriers > montecarlo._TAIL_GAP) == (half_subcarriers == 12)
    cfg = SystemConfig(half_subcarriers=half_subcarriers)
    [est], runs, _ = _recorded(monkeypatch, TrialPlan(trials=3, seed=35), [cfg], CELL, [MOB])
    sets, (nodes, weights) = runs[0]
    _, faded, far = sets[0]
    assert faded.shape == (5 + 2 * (draws - 1), 3)
    rows = numerics.hamdi_factors(nodes, faded, far)
    rows[0] *= faded[0][:, None]
    # the near devices at index gap 0, -2, -1, 1, 2, then the extra draws
    # of -1 and 1 in turn, and the far (mid) devices; then the tail's
    minus, plus = rows[5:-1:2], rows[6:-1:2]
    factors = [rows[0], rows[1], (rows[2] + minus.sum(axis=0)) / draws,
               (rows[3] + plus.sum(axis=0)) / draws, rows[4], rows[-1]]
    for _, none, tail in sets[1:]:
        assert none.shape == (0, 2)
        factors.append(numerics.hamdi_factors(nodes, none, tail)[0])
    assert len(factors) == 6 + (half_subcarriers == 12)
    for got, want in zip(_factors(runs[0])[0], factors, strict=True):
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    combinations = [weights @ np.prod([factor[i] for factor, i in zip(factors, pick)], axis=0)
                    for pick in np.ndindex(*(len(factor) for factor in factors))]
    assert len(combinations) == 729 * (2 if half_subcarriers == 12 else 1)
    brute = analytic.LOG2_E * math.fsum(combinations) / len(combinations)
    assert est.mean == pytest.approx(brute, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("v_max,noise_variance,rel",
                         [(10.0, 0.01, 1e-9), (100.0, 0.01, 1e-9), (100.0, 1e8, 1e-6)],
                         ids=["10mps", "100mps", "100mps-minus-80db"])
def test_the_capacity_fit_matches_a_two_pass_least_squares(v_max, noise_variance, rel,
                                                          monkeypatch):
    # fig4's 2500 Hz curve over three blocks, one partial, alone and as the
    # second of a group.  At 10 m/s the influences spread by about 1e-4 of
    # their value and the fit leaves a fraction of their variance, so sums
    # of raw squares would lose most of their digits to cancellation.  At
    # -80 dB the fit leaves 1.8e-16 of the target's variance, a residual of
    # about 1e-10 of the influence: expanded sums y^T y - 2 beta^T A^T y +
    # beta^T A^T A beta read a standard error 8.6% off here, while the
    # rounding of the slopes (normal equations of the wider second-order
    # design) leaves the two passes 4.4e-7 apart.  Both take the influences
    # less the first trial's factors: taken whole, their rounding, about
    # 1e-15 of a capacity of 4 nats, differs between the two passes by
    # 5e-9 of the 10 m/s standard error
    cfg = SystemConfig(subcarrier_spacing_hz=2500.0, half_subcarriers=39,
                       noise_variance=noise_variance)
    plan = TrialPlan(trials=700, seed=33)
    mob = MobilityModel(v_max)
    [est], runs, designs = _recorded(monkeypatch, plan, [cfg], CELL, [mob])
    mean, std_error, plain = _two_pass(runs[0], designs)
    assert est.mean == pytest.approx(mean, rel=1e-9, abs=0.0)
    assert est.std_error == pytest.approx(std_error, rel=rel, abs=0.0)
    assert est.std_error < plain / 2.0
    group = estimate_ergodic_capacity(plan, [cfg, cfg], CELL, [MobilityModel(0.0), mob])
    assert group[1] == est


def test_a_scenario_keeps_its_bits_in_its_fig4_group():
    # the 11 speeds of fig4's 500 Hz curve, one static, over three blocks:
    # the other folds' matrices are inverted once for the group; and the
    # interference on fig3's 900 MHz curve, whose folds are fitted alike
    cfg = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199)
    speeds = [MobilityModel(10.0 * k) for k in range(11)]
    plan = TrialPlan(trials=600, seed=36)
    group = estimate_ergodic_capacity(plan, [cfg] * len(speeds), CELL, speeds)
    assert group == [estimate_ergodic_capacity(plan, cfg, CELL, mob) for mob in speeds]
    group = estimate_total_ici(plan, [CFG] * 10, CELL, speeds[1:])
    assert group == [estimate_total_ici(plan, CFG, CELL, mob) for mob in speeds[1:]]


def _plain_samples(plan, cfg, cell, mob, averaged=(-1, 1)):
    # per trial, the capacity with the fading of the target and of its
    # neighbours at the index gaps ``averaged`` averaged by the rule at one
    # trial, each such neighbour's factor the mean over its R draws,
    # relative to the other interferers' powers and the noise, and every
    # other interferer at a drawn weight, no variate: an unbiased estimator
    # that draws every device in every trial through its own
    # sample_cell_batch call, on a stream of its own
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers, cfg.spacing_symbol_product)
    target = plan.target_index + cfg.half_subcarriers
    kept = [target] + [target + gap for gap in averaged if 0 <= target + gap < gaps.size]
    extra = [c for c in montecarlo._extra_draws(target, gaps.size) if c in kept]
    columns = [[c] + [gaps.size + i for i, device in enumerate(extra) if device == c]
               for c in kept]
    gaps = np.concatenate([gaps, gaps[extra]])
    weighted = np.ones(gaps.size)
    weighted[sum(columns, [])] = 0.0
    span = cfg.doppler_span(mob.max_velocity_mps)
    rng = np.random.default_rng(plan.seed)
    samples = []
    for size in montecarlo._block_sizes(plan.trials):
        shift = sample_cell_batch(rng, size, gaps.size, cell)
        powers = numerics.sinc_squared(gaps[:, None], shift * span, span).mean(axis=2)
        weights = rng.standard_exponential(powers.shape) * weighted
        faded = powers.T * cfg.effective_power
        faded /= (powers * weights).sum(axis=1) * cfg.effective_power + cfg.noise_variance
        nodes, rule = numerics.hamdi_rule(faded[sum(columns, [])].max())
        factors = [numerics.hamdi_factors(nodes, faded[draws]).mean(axis=0) for draws in columns]
        samples.append(faded[target] * (np.prod(factors, axis=0) @ rule))
    return np.concatenate(samples) * analytic.LOG2_E


@pytest.mark.parametrize("spacing,half_subcarriers,paths,reference_trials",
                         [(500.0, 199, 1, 1 << 18), (500.0, 199, 8, 1 << 16),
                          (2500.0, 39, 1, 1 << 18)],
                         ids=["1-262144", "8-65536", "2500hz-1-262144"])
def test_cross_fitted_capacity_is_unbiased_and_its_std_error_honest(spacing, half_subcarriers,
                                                                    paths, reference_trials):
    # fig4's 500 Hz curve at 10, 30 and 100 m/s (x = 0.06, 0.18 and 0.6),
    # one group, at one path, where the interference is the most spread,
    # and at eight, and its 2500 Hz curve at one path: 200 seeds of 256
    # trials, one block each; at each speed the standard error each run
    # reports against the spread of the 200 estimates, and at 100 m/s the
    # mean estimate against the plain fading average of reference_trials
    # trials on draws of its own.  The ratios read 0.93/0.88/0.88 at one
    # path, 1.05/0.95/0.88 at eight and 0.93/0.91/0.91 at 2500 Hz (seeds
    # 200-399 read 1.04/0.99/1.00 at eight paths, and drawing the tail on
    # every trial moves none of them by 0.01); products of the parts'
    # means corrected at first order alone read 0.31 at 10 m/s and eight
    # paths
    cfg = SystemConfig(subcarrier_spacing_hz=spacing, half_subcarriers=half_subcarriers)
    cell = CellConfig(paths_per_device=paths)
    speeds = [MobilityModel(v) for v in (10.0, 30.0, 100.0)]
    runs = np.array([[(est.mean, est.std_error) for est in estimate_ergodic_capacity(
        TrialPlan(trials=256, seed=seed), [cfg] * len(speeds), cell, speeds)]
        for seed in range(200)])
    spread = runs[..., 0].std(axis=0, ddof=1)
    reported = np.sqrt(np.mean(runs[..., 1] ** 2, axis=0))
    assert np.all((0.85 <= reported / spread) & (reported / spread <= 1.15)), reported / spread
    plain = _plain_samples(TrialPlan(trials=reference_trials, seed=1000), cfg, cell, MOB)
    combined = math.hypot(spread[-1] / math.sqrt(len(runs)),
                          plain.std(ddof=1) / math.sqrt(plain.size))
    assert abs(runs[:, -1, 0].mean() - plain.mean()) <= 4.0 * combined


@pytest.mark.parametrize("trials", [1, 7, 8, 47, 300])
def test_few_trials_give_defined_capacity_estimates(trials, monkeypatch):
    # below 10 trials in the other folds, which 8 trials still are (7), a
    # fold subtracts nothing and the estimate is the product of the factor
    # means; one trial is the rule at that trial and has no spread.  The
    # power estimators' folds, of 6 or 10 columns, subtract nothing at 8
    # trials either, and their estimates are defined at every count
    plan = TrialPlan(trials=trials, seed=34)
    for estimate in (lambda: [estimate_total_ici(plan, CFG, CELL, MOB)],
                     lambda: [estimate_useful_power(plan, CFG, CELL, MOB)],
                     lambda: symmetry_probe(0, 3, plan, CFG, CELL, MOB)):
        ests, fits = _subtracted(monkeypatch, estimate)
        for est in ests:
            assert math.isfinite(est.mean) and math.isfinite(est.std_error)
            assert est.trials == trials and (est.std_error == 0.0) == (trials == 1)
        if trials <= 8:
            assert all(np.all(subtracted == 0.0) for _, subtracted in fits)
    [est], runs, designs = _recorded(monkeypatch, TrialPlan(trials=trials, seed=34),
                                     [CFG], CELL, [MOB])
    # five near parts, the mid part, and the tail on 32 draws a block
    assert [design.shape for design in designs] \
        == [(trials, 10)] * 5 + [(trials, 13), (montecarlo._tail_draws(trials), 13)]
    assert math.isfinite(est.mean) and math.isfinite(est.std_error) and est.trials == trials
    mean, std_error, plain = _two_pass(runs[0], designs)
    if trials == 1:
        factors, weights = _factors(runs[0])
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(analytic.LOG2_E * float(
            np.prod([factor[0] for factor in factors], axis=0) @ weights), rel=1e-15, abs=0.0)
    elif trials <= 8:
        assert est.mean == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert est.std_error == pytest.approx(plain, rel=1e-9, abs=0.0)
    else:
        assert (est.mean, est.std_error) == pytest.approx((mean, std_error), rel=1e-9)
        if trials == 300:
            assert est.std_error < plain / 2.0


def test_a_tiny_capacity_keeps_an_honest_std_error():
    # at P_T = 1e-310 the capacity is about 1.4e-308 bit/s/Hz and its
    # residuals about 1e-319, whose squares underflow to 0: the estimator
    # scales them by a power of two first.  Seeds 1-4 give means that
    # differ by about 1e-11 relative; compared in units of 2^-1100, where
    # their squares are normal, their spread is 0.56 of the reported one
    cfg = SystemConfig(effective_power=1e-310)
    runs = [estimate_ergodic_capacity(TrialPlan(trials=256, seed=seed), cfg, CELL, MOB)
            for seed in range(1, 5)]
    assert all(run.std_error > 0.0 for run in runs)
    means = np.ldexp([run.mean for run in runs], 1100)
    reported = math.sqrt(np.mean(np.ldexp([run.std_error for run in runs], 1100) ** 2))
    assert 0.25 <= means.std(ddof=1) / reported <= 4.0


def test_capacity_variate_cuts_the_fig4_standard_error():
    # the fig4 point with the largest Doppler, 500 Hz at 100 m/s (x = 0.6),
    # at 2048 trials; at this seed the standard error was 0.015407577 with
    # the target's fading alone averaged and no variate, 0.00824 with a
    # fixed-slope d^2 variate, 0.00478 with the index-gap +-1 neighbours'
    # fading averaged too, 0.00247 with per-trial cross-fitted variates,
    # 0.00126 averaged over every combination of the parts' draws, 0.00063
    # with 11 draws of each +-1 neighbour a trial, and is 0.00018 with
    # second-order columns and the part means controlled per node
    cfg = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199)
    est = estimate_ergodic_capacity(TrialPlan(trials=2048, seed=5), cfg, CELL, MOB)
    assert est.std_error <= 0.1 * 0.015407577
    assert est.mean <= capacity_upper(100.0, cfg) + 3.0 * est.std_error


# capacity standard errors at 2048 trials and seed 5 without any variate,
# rounded up: x = 1.5 and 3 at 900 MHz, where a fixed-slope d^2 variate
# added variance and was switched off above x = 0.9
CAPACITY_VARIATE_OFF_STD_ERROR = {1250.0: 0.013232985, 2500.0: 0.010599176}


@pytest.mark.parametrize("v_max", sorted(CAPACITY_VARIATE_OFF_STD_ERROR))
def test_capacity_variates_need_no_cut_off(v_max):
    # fitted coefficients cut the variance at any x: the standard errors
    # are 0.15 and 0.33 of those without a variate
    est = estimate_ergodic_capacity(TrialPlan(trials=2048, seed=5), CFG, CELL,
                                    MobilityModel(v_max))
    assert est.std_error <= 0.45 * CAPACITY_VARIATE_OFF_STD_ERROR[v_max]


# fig4 as bench/run.py sweeps it: three curves at 900 MHz and 20 dB SNR,
# 0 to 100 m/s in steps of 10, 256 trials, mc.seed 0 to 3
FIG4_CURVES = [(2500.0, 39), (1000.0, 99), (500.0, 199)]


def test_fig4_capacity_reaches_its_accuracy_target_within_budget():
    # the mean over the grid's points of (std_error / 0.01)^2, which scales
    # the benchmark's mc_time_to_accuracy_s: 0.00072 with the far devices
    # split at index gap 10 and the tail drawn on 32 trials a block, which
    # halves the time (these seeds hold one heavy draw of the 1000 Hz mid
    # part; over seeds 0-63 the mean is 0.00039, against 0.00037 before),
    # 0.00039 with second-order columns and the part means controlled per
    # node, 0.0069 with columns
    # linear in the path moments and R draws of each neighbour at index
    # gap +-1 (R = 2, 5 and 11 on the three curves), 0.024 with one,
    # averaged over every combination of the parts' draws, 0.12 with
    # per-trial cross-fitted variates, 0.35-0.44 per seed with a
    # fixed-slope d^2 variate
    speeds = [MobilityModel(10.0 * k) for k in range(11)]
    factors = []
    for seed in range(4):
        for spacing, n in FIG4_CURVES:
            cfg = SystemConfig(subcarrier_spacing_hz=spacing, half_subcarriers=n)
            group = estimate_ergodic_capacity(TrialPlan(trials=256, seed=seed),
                                              [cfg] * len(speeds), CELL, speeds)
            factors += [(est.std_error / 0.01) ** 2 for est in group]
    assert np.mean(factors) <= 0.0015


def test_the_capacity_evaluates_its_tail_on_few_draws(monkeypatch):
    # the kernel's device-paths over fig4's 500 Hz group: the devices beyond
    # index gap K, 378 of the 419 columns a trial takes at N = 199 (R = 11),
    # are evaluated on 32 of the block's 256 trials, which leaves 21% of
    # what every column on every trial would take; a count, not a time
    evaluated = []

    def spy(gap, offset, span=None, out=None, work=None):
        evaluated.append(offset.size)
        return numerics.sinc_squared(gap, offset, span, out, work)

    monkeypatch.setattr(montecarlo, "sinc_squared", spy)
    cfg = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199)
    speeds = [MobilityModel(10.0 * k) for k in range(11)]
    plan = TrialPlan(trials=256, seed=0)
    estimate_ergodic_capacity(plan, [cfg] * len(speeds), CELL, speeds)
    columns = 2 * cfg.half_subcarriers + 1 \
        + 2 * (montecarlo._neighbour_draws(cfg.half_subcarriers) - 1)
    every = (len(speeds) - 1) * plan.trials * columns * CELL.paths_per_device
    assert 0 < sum(evaluated) <= 0.4 * every


@pytest.mark.parametrize("half_subcarriers,target,paths",
                         [(3, 3, 8), (3, -3, 8), (0, 0, 8), (3, 0, 8), (3, 0, 1), (1, 0, 8)],
                         ids=["upper-edge", "lower-edge", "no-interferer", "interior",
                              "interior-one-path", "n-equals-1"])
def test_capacity_averages_the_neighbours_the_band_holds(half_subcarriers, target, paths):
    # an interior target has four neighbours at index gap +-1, +-2, a
    # band-edge target two, N = 1 two and N = 0 none; the estimate agrees
    # with the target-only average on draws of its own within 4 combined
    # standard errors, and its standard error is the smaller.
    # Leaving a neighbour in the far part as well (averaged and drawn at
    # once) fails the interior cases
    cfg = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=half_subcarriers)
    cell = CellConfig(paths_per_device=paths)
    plan = TrialPlan(trials=4096, seed=30, target_index=target)
    mob = MobilityModel(max_velocity_mps=150.0)  # x = 0.6
    est = estimate_ergodic_capacity(plan, cfg, cell, mob)
    drawn = montecarlo._reduce(_plain_samples(plan, cfg, cell, mob, averaged=()))
    assert abs(est.mean - drawn.mean) <= 4.0 * math.hypot(est.std_error, drawn.std_error)
    assert est.std_error < drawn.std_error


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
