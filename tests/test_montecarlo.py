"""Monte Carlo estimator tests: determinism, exact degenerate cases, and
statistical agreement with the closed forms."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

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
    # draws' per trial plus the tail's per tail draw, two independent means;
    # each part's drawn columns alone, each device once (N = 24 takes one
    # pair of each neighbour at index gap +-1, so no further round), not
    # their mirrors; only the tail draws weights
    plan = TrialPlan(trials=30000, seed=8)
    incoherent = estimate_total_ici(plan, CFG, CELL, MOB)
    gaps = subcarrier_gaps(plan.target_index, CFG.half_subcarriers,
                           CFG.spacing_symbol_product)
    sets = montecarlo._layout("capacity", subcarrier_gaps(plan.target_index, CFG.half_subcarriers),
                              CELL.paths_per_device)
    samples = [np.zeros(ds.draws(plan.trials)) for ds in sets]
    own_draws = np.random.default_rng(108)
    for _, rows, powers, weights in montecarlo._device_powers(plan, CELL, [(CFG, MOB)],
                                                              [gaps], sets):
        for (ds, part), r, p, w in zip(montecarlo._parts(sets), rows, powers, weights,
                                       strict=True):
            drawn = p[:, :p.shape[1] // (1 + part.mirrored)]
            if w is None:
                # the estimator averages the near neighbours' and the mid
                # devices' fading and draws them no weight, so they get
                # weights of their own here
                w = own_draws.standard_exponential(drawn.shape)
                if not part.mirrored:
                    w[:, 0] = 0.0  # the target, first of its part, is no interferer
            samples[sets.index(ds)][r] += (drawn * w).sum(axis=1) * CFG.effective_power
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
# capacity draws its neighbours at index gap +-1 in more than one mirrored
# pair and its target in more than one round (R = 24, twelve pairs, and
# R_0 = 4; every other moving capacity pin takes one pair and one round
# and mirrors its mid part, every pin mirrors its +-2 neighbours, and none
# its target); it and the default band (N = 24) draw a tail
# beyond index gap 10, which the 3 GHz edge pin (N = 5, index gaps -1..9)
# does not.  Both interference
# pins draw a tail beyond index gap 3, and every interference pin mirrors
# both its parts (the pair form).  The one-path pin keeps 5 near
# columns a part, not 9; at N = 2 the capacity has no mid part and no tail,
# and the interference no tail.  Every moving capacity pin subtracts its
# surrogates (montecarlo._surrogates), the +-1 and +-2 neighbours' of
# third order and the mid part's product over its devices.  Only a
# capacity tail draws Exp(1) weights, so the N = 2 pin, which has none,
# kept its bits when the mid part's fading came to be averaged exactly;
# every capacity pin moved in its last bits when the target's factor came
# to be formed as 1 / (t + 1 / u) and each mirrored pair's factors as one
# quotient (montecarlo._pair_sums), and every capacity pin with a mid part
# when its lines came to take two devices each; every moving capacity pin
# moved when the +-1 and +-2 surrogates gained their third-order terms,
# and in its last bits when h_M's table came to be built by the one
# builder of every exact mean (numerics._moment_table)
PINNED = {
    "ici": ("0x1.f47f860220b54p-8", "0x1.b6cf7051d6adbp-38"),  # 0.007637 +- 6.24e-12
    "ici_edge_3ghz": ("0x1.3578865949736p-7", "0x1.237278ea4db8fp-35"),  # 0.0094443 +- 3.31e-11
    "useful": ("0x1.fbfdde6c55bfdp-1", "0x1.08eed71cca964p-37"),  # 0.992171 +- 7.53e-12
    "capacity": ("0x1.4a12f59400ca0p+2", "0x1.0ae5b5dc04112p-21"),  # 5.15741 +- 4.97e-07
    "capacity_edge_3ghz": ("0x1.451aa0e6fc496p+2", "0x1.ebb0d673d251cp-20"),  # 5.07975 +- 1.83e-06
    "capacity_500hz": ("0x1.35e7367220952p+1", "0x1.385177b57e4f1p-14"),  # 2.42112 +- 7.45e-05
    "symmetry_a": ("0x1.12506b7a7bf96p-12", "0x1.7d3cc519dfe72p-36"),  # 0.000261606 +- 2.17e-11
    "symmetry_b": ("0x1.12506928e0ccfp-12", "0x1.3e918c90479dap-36"),  # 0.000261606 +- 1.81e-11
    "capacity_one_path": ("0x1.4bae3b3ea1d52p+2", "0x1.d96322cefbfd9p-21"),  # 5.18251 +- 8.82e-07
    "capacity_n2": ("0x1.535ba90a198f4p+2", "0x1.203d3868f51e7p-20"),  # 5.30247 +- 1.07e-06
    "ici_n2": ("0x1.8754b5a39de49p-8", "0x1.35854963d6fdfp-38"),  # 0.00597124 +- 4.4e-12
}


def test_estimates_keep_their_pinned_bits():
    plan = TrialPlan(trials=300, seed=21)
    edge = TrialPlan(trials=300, seed=22, target_index=-4)
    cfg3 = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=5)
    cell3 = CellConfig(paths_per_device=3)
    mob3 = MobilityModel(max_velocity_mps=37.5)
    cfg500 = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199)
    cfg2 = SystemConfig(half_subcarriers=2)
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
        "capacity_one_path": estimate_ergodic_capacity(plan, CFG, CellConfig(1), MOB),
        "capacity_n2": estimate_ergodic_capacity(plan, cfg2, CELL, MOB),
        "ici_n2": estimate_total_ici(plan, cfg2, CELL, MOB),
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


def _spy_on_the_kernel(monkeypatch, seen):
    # both kernels the estimators call, the pair form beside sinc_squared:
    # each call passes seen(gap, offset, span, out, work, mirror), the pair
    # form's halved squares in the place of the gaps and no mirror
    def one_sided(gap, offset, span=None, out=None, work=None, mirror=None):
        seen(gap, offset, span, out, work, mirror)
        return numerics.sinc_squared(gap, offset, span, out, work, mirror)

    def pair(halves, offset, span, out=None, work=None):
        seen(halves, offset, span, out, work, None)
        return numerics.sinc_squared_pair(halves, offset, span, out, work)

    monkeypatch.setattr(montecarlo, "sinc_squared", one_sided)
    monkeypatch.setattr(montecarlo, "sinc_squared_pair", pair)


def test_a_static_scenario_never_calls_the_kernel(monkeypatch):
    spans = []
    _spy_on_the_kernel(monkeypatch, lambda gap, offset, span, *_: spans.append(span))
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
    _spy_on_the_kernel(monkeypatch, lambda gap, offset, span, *_:
                       calls.append((float(np.abs(offset).max()), span)))
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
    _spy_on_the_kernel(monkeypatch, lambda gap, offset, span, out, work, _:
                       seen.extend(a.ctypes.data % 64 for a in (offset, out, work[0], work[1])))
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
    paths = CELL.paths_per_device
    sets = montecarlo._layout("capacity" if coherent else "interference", gaps[0], paths)
    # the largest tile of a part, which the kernel's workspace holds
    tile_bytes = max(numerics.row_tiles(ds.rows, size * paths)[0].stop * size * paths * 8
                     for ds, part in montecarlo._parts(sets)
                     for size in [ds.columns[part.columns].size])
    scenarios = montecarlo._device_powers(TrialPlan(trials=256, seed=27), CELL,
                                          list(zip(cfgs, mobs)), gaps, sets)
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
    # call; the bound is within a tenth of the traced peak.  Each estimator
    # runs whole, the capacity at 20 dB, whose factor tables outweigh the
    # sampler's scratch at N = 5 and 40; without its per-trial allowance
    # held across blocks the bound fails at N = 2000.  The bound adds what
    # the run keeps, part by part: its store [1, V], its draws padded to a
    # multiple of 8, and per draw each scenario's sample a part record (a
    # tail's on its own draws), and for the capacity per scenario the fold
    # sums of [1, V] times the factors on the rule's nodes and three
    # vectors a part record.
    cfg = SystemConfig(half_subcarriers=half_subcarriers, bandwidth_hz=0.0)
    cell = CellConfig(paths_per_device=paths)
    plan = TrialPlan(trials=600, seed=3)
    mobs = [MOB, MobilityModel(50.0)]

    def run():
        estimate = estimate_ergodic_capacity if coherent else estimate_total_ici
        estimate(plan, [cfg, cfg], cell, mobs)
    run()
    tracemalloc.start()
    try:
        # numpy keeps a few kB that its einsum and clip calls allocate on
        # first use under tracing (267330 B against a bound of 267016 at
        # N = 5, one path, as a session's first test): a traced run first,
        # then the bound holds the second run's rise
        run()
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    devices = 2 * half_subcarriers + 1
    bound = montecarlo.block_bytes(devices, paths,
                                   cfg.effective_power / cfg.noise_variance if coherent else None)
    nodes = numerics.hamdi_rule(100.0)[0].size if coherent else 0
    for ds, part in montecarlo._parts(montecarlo._layout(
            "capacity" if coherent else "interference", subcarrier_gaps(0, half_subcarriers),
            paths)):
        draws, design = ds.draws(plan.trials), part.count * (part.width + 1)
        bound += 8 * (-(-draws // 8) * 8 * design + draws * part.count * len(mobs)
                      + len(mobs) * nodes * (8 * design + 3 * part.count))
    assert 0.9 * bound <= peak <= bound, peak / bound


@pytest.mark.parametrize("trials,scenarios", [(1000, 3), (4096, 11)])
@pytest.mark.parametrize("coherent", [False, True])
def test_run_bytes_bounds_what_a_run_holds(trials, scenarios, coherent):
    # what the run keeps (each part's store [1, V] and per trial each
    # scenario's samples; for the capacity each scenario's node sums) and
    # the larger of a block and the fit's temporaries, which run after the
    # block's arrays are let go: the peak is 0.91-0.98 of the bound here
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


def _shapes(sets):
    # what the byte counts read of a layout: per draw set its columns and
    # rows, and per part its devices, parts, width, the doubles a row its
    # builder holds and whether it is mirrored and summed
    return [(ds.columns.tolist(), ds.rows,
             [(ds.columns[p.columns].tolist(), p.count, p.width, p.held, p.mirrored, p.summed)
              for p in ds.parts]) for ds in sets]


@pytest.mark.parametrize("paths", [1, 8])
@pytest.mark.parametrize("half_subcarriers", [0, 1, 2, 3, 5, 11, 24, 199])
def test_the_layouts_agree_with_what_the_blocks_hold(half_subcarriers, paths, monkeypatch):
    # each estimator's draw sets at the centre and both band edges, over two
    # blocks, one partial: the devices drawn cover the band once (the
    # interference draws no target), but for the capacity's further rounds
    # of its neighbours at index gap +-1 and of its target; each set's parts
    # split its columns, the capacity's the target's R_0 rounds (its first
    # column and the set's last R_0 - 1), the +-2 neighbours', the +-1
    # neighbours' P rounds of draws, each round the two in turn, the mid
    # devices' and the tail's, and only the target and the tail are not
    # mirrored; every block's rows, powers and weights have their
    # part's shape, a weight for each column beyond index gap K of the
    # capacity alone (its tail's), and each part's store has its rows, parts and
    # width; both interference parts are mirrored too, and summed, their
    # powers each pair's mean, a column a draw; a device's own moments
    # come from the near builder (the capacity's target and its +-1 and
    # +-2 neighbours, 9 columns or 5 at one path, and each device of
    # "devices", 5) and Taylor sums over devices from the far builder (the
    # interference's 9, the capacity's mid part 11 and its tail 12); at the
    # centre, block_bytes and run_bytes count those same records
    devices, cell = 2 * half_subcarriers + 1, CellConfig(paths)
    plan, layout = TrialPlan(trials=300, seed=41), montecarlo._layout
    static = (SystemConfig(half_subcarriers=half_subcarriers, bandwidth_hz=0.0),
              MobilityModel(0.0))
    for target in sorted({-half_subcarriers, 0, half_subcarriers}):
        index_gaps = subcarrier_gaps(target, half_subcarriers)
        far = abs(index_gaps)
        for estimator in ("interference", "capacity", "devices"):
            sets = layout(estimator, index_gaps, paths)
            parts = montecarlo._parts(sets)
            for ds in sets:
                split = np.concatenate([np.arange(ds.columns.size)[part.columns]
                                        for part in ds.parts])
                assert sorted(split) == list(range(ds.columns.size))
                assert np.array_equal(ds.weighted, (far[ds.columns] > montecarlo._TAIL_GAP)
                                      & (estimator == "capacity"))
            records = [(ds.columns[part.columns].tolist(), part.count, part.mirrored)
                       for ds, part in parts]
            own = montecarlo._near_means(paths).size if estimator == "capacity" else 5
            assert [(part.build, part.width) for _, part in parts] \
                == [(montecarlo._near_columns, own) if part.gaps is None
                    else (montecarlo._far_columns,
                          9 + (estimator == "capacity") * (2 + ds.weighted.any()))
                    for ds, part in parts]
            if estimator == "capacity":
                twos = np.flatnonzero(far == 2.0).tolist()
                ones = np.flatnonzero(far == 1.0).tolist()
                mid = np.flatnonzero((far > 2.0) & (far <= montecarlo._TAIL_GAP)).tolist()
                tail = np.flatnonzero(far > montecarlo._TAIL_GAP).tolist()
                target_rounds, draws = montecarlo._capacity_draws(half_subcarriers)
                rounds = draws // 2
                main = sets[0].columns.size
                assert np.arange(main)[parts[0][1].columns].tolist() \
                    == [0] + list(range(main - target_rounds + 1, main))
                assert records == [([target + half_subcarriers] * target_rounds, 1, False)] \
                    + [(twos, len(twos), True)] * bool(twos) \
                    + [(ones * rounds, len(ones), True)] * bool(ones) \
                    + [(mid, 1, True)] * bool(mid) + [(tail, 1, False)] * bool(tail)
            elif estimator == "interference":
                assert records == [(np.flatnonzero(kept).tolist(), 1, True)
                                   for kept in ((far != 0.0) & (far <= montecarlo._ICI_TAIL_GAP),
                                                 far > montecarlo._ICI_TAIL_GAP)
                                   if kept.any()]
            else:
                assert records == [(list(range(devices)), devices, False)]
            assert [part.summed for _, part in parts] == [estimator == "interference"] * len(parts)
            # the mid part, the capacity's only mirrored far-style part
            assert [part.mid for _, part in parts] \
                == [estimator == "capacity" and part.mirrored and part.gaps is not None
                    for _, part in parts]
            for block, (_, rows, powers, weights) in enumerate(
                    montecarlo._device_powers(plan, cell, [static], [index_gaps], sets)):
                for (ds, part), r, p, w in zip(parts, rows, powers, weights, strict=True):
                    n = min(montecarlo._block_sizes(plan.trials)[block], ds.rows)
                    size = ds.columns[part.columns].size
                    assert (r.start, r.stop) == (block * ds.rows, block * ds.rows + n)
                    assert p.shape == (n, size * (1 + part.mirrored - part.summed))
                    # a part draws a weight for each of its columns or none
                    assert (w is None) == (not ds.weighted[part.columns].any())
                    assert w is None or (w.shape == (n, size) and np.all(w > 0.0))
            # each part's store is its design [1, V] over the run, padded
            # with zero rows to whole rounds of the folds, which the fit
            # reads as it is
            for ds, part in parts:
                draws = ds.draws(plan.trials)
                assert part.V.shape == (-(-draws // 8) * 8, part.count, 1 + part.width)
                assert part.V.flags.c_contiguous
                assert np.all(part.V[:draws, :, 0] == 1.0)
                assert not part.V[draws:].any()
                assert np.shares_memory(montecarlo._by_fold(part.V), part.V)
            if target or estimator == "devices":
                continue
            counted = []
            monkeypatch.setattr(montecarlo, "_layout",
                                lambda *args: counted.append(layout(*args)) or counted[-1])
            snr = 100.0 if estimator == "capacity" else None
            montecarlo.block_bytes.cache_clear()
            montecarlo.run_bytes(plan.trials, 2, devices, paths, snr)
            monkeypatch.undo()
            assert len(counted) == 2
            assert all(_shapes(sets) == _shapes(records) for records in counted)


def test_the_capacity_draw_rule_grows_with_n_alone():
    # (R_0, R): the target's rounds and each +-1 neighbour's draws a trial,
    # R = 2P mirrored pairs; fig4's curves sit at N = 39, 99 and 199
    rule = montecarlo._capacity_draws
    assert {n: rule(n) for n in (0, 1, 12, 39, 99, 199, 1000)} == {
        0: (1, 2), 1: (1, 2), 12: (1, 2), 39: (1, 2), 99: (1, 2), 199: (4, 24), 1000: (37, 224)}
    n = np.arange(5000)
    rules = np.array([rule(half_subcarriers) for half_subcarriers in n])
    assert np.all(np.diff(rules, axis=0) >= 0)
    assert np.all(rules[:, 1] % 2 == 0) and np.all(rules >= 1)
    # the +-1 neighbours' 2P drawn columns a trial stay below the tail's
    # 2N - 20 on 32 rows of 256, wherever the band has a tail
    tail = n > 2 * montecarlo._TAIL_GAP
    assert np.all(rules[tail, 1] < (2 * n[tail] - 2 * montecarlo._TAIL_GAP) / 8)


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

    def record(store, samples):
        design = store[:len(samples[0])]  # the store less its pad rows
        for y, residuals in zip(samples, fitted(store, samples), strict=True):
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
    # each of the interference's 9 columns, one per term (p, e), as
    # _device_powers builds them, over 2^17 trials of the 4 interferers of
    # 5 devices of 2 paths; three distinct |n| keep every term
    plan = TrialPlan(trials=1 << 17, seed=29, target_index=1)
    index_gaps = subcarrier_gaps(plan.target_index, 2)
    [interferers] = montecarlo._layout("interference", index_gaps, 2)
    [part] = interferers.parts
    assert part.table.shape == (9, 4) and np.all(part.table.any(axis=1))
    for _ in montecarlo._device_powers(
            plan, CellConfig(2), [(SystemConfig(half_subcarriers=2), MobilityModel(0.0))],
            [index_gaps], [interferers]):
        pass
    for term, column in zip(montecarlo._TERMS, part.V[:plan.trials, 0, 1:].T):
        assert abs(column.mean()) <= 4.0 * column.std(ddof=1) / math.sqrt(column.size), term


@pytest.mark.parametrize("q", [1, 2])
def test_the_power_variates_span_the_taylor_series_of_the_kernel(q, monkeypatch):
    # per device and trial the kernel's Taylor series through d^6 less its
    # mean, sum_p a_p(g) (mean_m d_m^p - x^p E[z^p]) with a_p(g) the
    # coefficient of d^p in sinc^2(g + d) by mpmath, summed over each
    # part's interferers for the interference, is a least-squares
    # combination of the columns each estimator fits, whatever x and q.
    # The interference's parts are mirrored: a draw's pair mean keeps the
    # series' even orders alone, which its even columns span
    cfg = SystemConfig(carrier_frequency_hz=3e9, half_subcarriers=5, symbol_period_s=q / 2500.0)
    plan = TrialPlan(trials=256, seed=26, target_index=1)
    x = cfg.doppler_span(CV_MOB.max_velocity_mps)  # 0.28 q
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers, cfg.spacing_symbol_product)

    def excess(*sets, orders=range(2, 7)):
        # sum_p a_p(g) (mean_m d_m^p - x^p E[z^p]) over the ``orders`` p per
        # device of each draw set, from the raw draws: the first set's on
        # every trial, a second's on rows of its own, drawn after them
        rng = montecarlo._block_rng(plan.seed, 0)
        for rows, device_gaps in zip((plan.trials, montecarlo._TAIL_DRAWS), sets):
            d = x * sample_cell_batch(rng, rows, len(device_gaps), CV_CELL)
            coefficients = np.array([_taylor_coefficients(g) for g in device_gaps])
            yield sum(((d ** p).mean(axis=2) - x ** p * float(PATH_MOMENT_MEANS[p]))
                      * coefficients[:, p] for p in orders)

    def check(estimate, *expected):
        _, fits = _subtracted(monkeypatch, estimate)
        for (columns, _), series in zip(fits, expected, strict=True):
            combination = columns @ np.linalg.lstsq(columns, series, rcond=None)[0]
            assert np.linalg.norm(combination - series) <= 1e-12 * np.linalg.norm(series)

    # the interference's parts: the six interferers within index gap 3 and
    # the tail of four beyond it on 32 draws of their own; the target is
    # not drawn
    sets = montecarlo._layout("interference", subcarrier_gaps(plan.target_index, 5), 3)
    assert [ds.columns.size for ds in sets] == [6, 4]
    assert all(ds.parts[0].mirrored for ds in sets)
    check(lambda: estimate_total_ici(plan, cfg, CV_CELL, CV_MOB),
          *(part.sum(axis=1) for part in excess(*(gaps[ds.columns] for ds in sets),
                                                 orders=(2, 4, 6))))
    [useful] = excess([0.0])
    check(lambda: estimate_useful_power(plan, cfg, CV_CELL, CV_MOB), useful[:, 0])
    # fitted in device order: device 0 is the source on -1 seen from 1,
    # device 1 the reverse
    [pair] = excess([-2.0 * q, 2.0 * q])
    check(lambda: symmetry_probe(-1, 1, plan, cfg, CV_CELL, CV_MOB), pair[:, 0], pair[:, 1])


def _store(columns):
    # the (trials, parts, variates) columns laid out as _device_powers
    # stores them: the design [1, V], padded with zero rows to a multiple of 8
    trials, parts, variates = columns.shape
    store = np.zeros((-(-trials // 8) * 8, parts, 1 + variates))
    store[:trials, :, 0] = 1.0
    store[:trials, :, 1:] = columns
    return store


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
    together = list(montecarlo._fitted(_store(columns), samples))
    for part in range(3):
        alone = montecarlo._fitted(_store(columns[:, part:part + 1]),
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
    # 4.318e-5 with the fixed series through d^6, 3.991e-6 with the
    # series' columns fitted, and is 4.389e-7 with both parts mirrored
    cfg = SystemConfig(carrier_frequency_hz=3e9)
    est = estimate_total_ici(TrialPlan(trials=2048, seed=42), cfg, CELL, MOB)
    exact = finite_n_ici(0, 100.0, cfg)
    assert est.std_error / exact <= 2.0 * 4.389e-7
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
    # estimate agrees with finite_n_ici
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
    # the fig3 grid at the benchmark's 2048 trials against the exact
    # interference, 4 standard errors and no relative floor.  finite_n_ici
    # takes its power series at every point, within 2.3e-16 of mpmath, so the
    # oracle stays sharper than the standard error, which falls to 6.8e-15
    # of the value at 900 MHz and 10 m/s; the worst |z| is 1.44 (the 20
    # estimates share their draws, and read z = -1.13 to -1.44 but for
    # -0.11 at 900 MHz and 10 m/s, whose standard error is at the
    # rounding floor)
    plan = TrialPlan(trials=2048, seed=42)
    speeds = [10.0 * k for k in range(1, 11)]
    for fc in (900e6, 3e9):
        cfg = SystemConfig(carrier_frequency_hz=fc)
        group = estimate_total_ici(plan, [cfg] * len(speeds), CELL,
                                   [MobilityModel(v) for v in speeds])
        for v, est in zip(speeds, group):
            assert abs(est.mean - finite_n_ici(0, v, cfg)) <= 4.0 * est.std_error, (fc, v)


@pytest.mark.parametrize("target,v_max", [(0, 100.0), (24, 100.0), (0, 300.0)],
                         ids=["centre", "edge", "x-1.2"])
def test_power_estimates_are_unbiased_and_their_std_error_honest(target, v_max):
    # fig3's 3 GHz curve at its largest Doppler, 100 m/s (x = 0.4), at the
    # centre and at the band's edge, and at 300 m/s (x = 1.2), where the
    # Taylor columns fit the least: 200 seeds of 256 trials, one block
    # each, so that each fold's slopes come from 224 trials and the tail's
    # from 28 of its 32 draws; the mean estimate against finite_n_ici
    # within 4 standard errors of that mean, and the standard error each
    # run reports against the spread of the 200 estimates.  The ratios
    # read 1.02, 1.03 and 1.03, z = +1.9, +1.4 and +1.5, with both parts
    # mirrored (0.99, 0.99 and 1.04 without the mirrors; 0.94, 0.98 and
    # 0.97 with every interferer drawn on every trial); fitting each fold
    # on its own trials read 0.55
    cfg = SystemConfig(carrier_frequency_hz=3e9)
    runs = [estimate_total_ici(TrialPlan(trials=256, seed=seed, target_index=target), cfg, CELL,
                               MobilityModel(v_max))
            for seed in range(200)]
    means = np.array([run.mean for run in runs])
    spread = means.std(ddof=1)
    assert abs(means.mean() - finite_n_ici(target, v_max, cfg)) \
        <= 4.0 * spread / math.sqrt(len(runs))
    ratio = math.sqrt(np.mean([run.std_error ** 2 for run in runs])) / spread
    assert 0.85 <= ratio <= 1.15, ratio


def test_tiny_powers_keep_an_honest_std_error():
    # at P_T = 1e-300 the power estimators' residuals are about 1e-309 to
    # 1e-311, whose squares underflow to 0: scaled by a power of two first
    # (as the capacity's, test_a_tiny_capacity_keeps_an_honest_std_error),
    # they give P_T times the standard errors at P_T = 1, to the digits the
    # subnormal residuals keep (2.4e-6 here); at 1e-310 a few bits remain
    plan = TrialPlan(trials=256, seed=2)

    def std_errors(power):
        cfg = SystemConfig(effective_power=power)
        estimates = [estimate_total_ici(plan, cfg, CELL, MOB),
                     estimate_useful_power(plan, cfg, CELL, MOB),
                     *symmetry_probe(0, 3, plan, cfg, CELL, MOB)]
        return np.array([est.std_error for est in estimates])
    unit = std_errors(1.0)
    assert np.all(unit > 0.0)
    assert std_errors(1e-300) / 1e-300 == pytest.approx(unit, rel=1e-5, abs=0.0)
    assert np.all(std_errors(1e-310) > 0.0)


def test_the_interference_evaluates_its_tail_on_few_draws(monkeypatch):
    # the kernel's device-paths over fig3's group as the sweep runs it, its
    # two curves' 22 speeds at 2048 trials: the interferers beyond index
    # gap 3, 42 of the 48 at N = 24, are evaluated on 32 of the block's 256
    # trials and the target on none, which leaves 23% of what every
    # interferer on every trial would take; a count, not a time.  Both parts
    # are mirrored, and the pair form evaluates a draw and its mirror as one
    # device-path
    evaluated = []
    _spy_on_the_kernel(monkeypatch, lambda gap, offset, *_: evaluated.append(offset.size))
    cfgs = [SystemConfig(carrier_frequency_hz=fc) for fc in (900e6, 3e9) for _ in range(11)]
    speeds = [MobilityModel(10.0 * k) for _ in range(2) for k in range(11)]
    plan = TrialPlan(trials=2048, seed=42)
    estimate_total_ici(plan, cfgs, CELL, speeds)
    moving = sum(mob.max_velocity_mps > 0.0 for mob in speeds)
    every = moving * plan.trials * 2 * CFG.half_subcarriers * CELL.paths_per_device
    assert 0 < sum(evaluated) <= 0.3 * every


# ---------------------------------------------------------------------------
# capacity: the average over every combination of the parts' draws, and
# its cross-fitted control variates


def _recorded(monkeypatch, plan, cfgs, cell, mobs):
    # the estimates of a group, and what the estimator computed them from:
    # per scenario and part (the target's, the +-2 neighbours', the +-1
    # neighbours', the mid part's, then the tail's if the band has one),
    # the factor tables of every block, each row the mean over its draws
    # less its surrogate; the rows they were built from, over the noise, a
    # row a draw: a near part's faded powers (a mirrored one's round by
    # round, then their mirrors'), the mid part's powers (each device's,
    # then their mirrors'), the tail's drawn interference; and the
    # surrogates each block's mirrored parts subtracted, with the moments
    # their builder left (None for an unmirrored part and a static
    # scenario); the rule's nodes
    # and weights; and per part record the columns V of every draw, with an
    # intercept of its own prepended: [1, V_i]
    calls, stored = [], []
    factors, draw = montecarlo._part_factors, montecarlo._device_powers

    def record_tables(part, powers, weights, state, surrogate, *args):
        table = factors(part, powers, weights, state, surrogate, *args)
        # the estimator overwrites its powers in place: the tail's hold the
        # weighted ones, every other part's those over the noise
        if weights is not None:
            rows = powers.sum(axis=1)[None] * state.snr
        else:
            rows = powers.T[:len(powers.T) if state.moving else 1].copy()
        # the estimator goes on to change its own table, and the next block
        # overwrites the moments the surrogates read
        if surrogate is not None:
            surrogate = SimpleNamespace(**{name: np.array(value) if isinstance(value, np.ndarray)
                                           else value for name, value in vars(surrogate).items()},
                                        moments=None if part.moments is None
                                        else part.moments.copy())
        calls.append((table.copy(), rows, surrogate))
        return table

    def record_sets(*args):
        stored.extend(args[-1])
        return draw(*args)

    with monkeypatch.context() as patched:
        patched.setattr(montecarlo, "_part_factors", record_tables)
        patched.setattr(montecarlo, "_device_powers", record_sets)
        estimates = estimate_ergodic_capacity(plan, cfgs, cell, mobs)
    parts = len(calls) // (len(montecarlo._block_sizes(plan.trials)) * len(mobs))
    runs = []
    for k, cfg in enumerate(cfgs):
        recorded = [calls[k * parts + i::len(mobs) * parts] for i in range(parts)]
        runs.append(([(np.concatenate([table for table, _, _ in blocks], axis=1),
                       np.concatenate([rows for _, rows, _ in blocks], axis=1),
                       [surrogate for *_, surrogate in blocks])
                      for blocks in recorded],
                     numerics.hamdi_rule(cfg.effective_power / cfg.noise_variance)))
    designs = []
    for ds in stored:
        draws = ds.draws(plan.trials)
        designs += [np.concatenate([np.ones((draws, 1)), columns], axis=1)
                    for part in ds.parts for columns in part.V[:draws, :, 1:].transpose(1, 0, 2)]
    return estimates, runs, designs


def _factors(run):
    # each part record's factor per draw and node, in the order of the parts
    parts, (_, weights) = run
    return [row for table, *_ in parts for row in table], weights


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
    # per part (the target's, the +-2 neighbours', the +-1 neighbours', the
    # mid part, the tail), its (draws, columns) V of a static scenario,
    # from _device_powers
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers, cfg.spacing_symbol_product)
    sets = montecarlo._layout("capacity", subcarrier_gaps(plan.target_index, cfg.half_subcarriers),
                              cell.paths_per_device)
    for _ in montecarlo._device_powers(plan, cell, [(cfg, MobilityModel(0.0))], [gaps], sets):
        pass
    return [part.V[:ds.draws(plan.trials), :, 1:].reshape(ds.draws(plan.trials), -1)
            for ds in sets for part in ds.parts]


@pytest.mark.parametrize("half_subcarriers,target,near,paths,width,zeros,target_rounds",
                         [(3, 0, [3, 1, 2, 4, 5], 3, 56, 18, 1), (3, 3, [6, 4, 5], 3, 38, 9, 1),
                          (1, 0, [1, 0, 2], 3, 27, 6, 1), (0, 0, [0], 3, 9, 0, 1),
                          (3, 0, [3, 1, 2, 4, 5], 1, 36, 14, 1),
                          (3, 0, [3, 1, 2, 4, 5], 3, 56, 18, 3)],
                         ids=["interior", "band-edge", "n-equals-1", "no-interferer",
                              "interior-one-path", "interior-target-rounds"])
def test_every_capacity_variate_has_mean_zero(half_subcarriers, target, near, paths, width,
                                              zeros, target_rounds, monkeypatch):
    # each column of V over 2^20 trials, within 4 standard errors; the near
    # devices are the target and its neighbours at index gap +-1, +-2 that
    # the band holds, 9 columns each (5 at one path), the target, the +-2
    # neighbours and the +-1 neighbours each in a part of their own, and the
    # mid devices, if any, one part of 11, drawing no weight.  The columns odd in the shifts of
    # the mirrored parts are exactly 0: m_3, m_5 and m_2 m_3 (m_3 and m_5 at
    # one path) of each neighbour at index gap +-1 and +-2, and the far part's
    # Taylor terms of odd order.  At N = 3 the far devices' one |n| also
    # leaves four of the Taylor terms (p, e) no rank (two of them odd):
    # those columns are exactly 0 too.  A target of R_0 rounds keeps its 9
    # columns, each the mean over its rounds.  So do the surrogate terms of
    # the +-1 and +-2 neighbours' pairs less their exact means (S, T, U, W,
    # X and Y of each pair's path moments at c = 1 and 300, summed over the
    # drawn columns of every block)
    draws = montecarlo._capacity_draws
    monkeypatch.setattr(montecarlo, "_capacity_draws",
                        lambda half_subcarriers: (target_rounds, draws(half_subcarriers)[1]))
    terms, build = np.zeros((2, 2, 6)), montecarlo._near_columns  # (sum, square), c, term

    def near_columns(part, *args):
        build(part, *args)
        if part.mirrored:
            second, third, fourth, _, sixth = part.moments
            for row, c in zip(terms.transpose(1, 0, 2), (1.0, 300.0)):
                reciprocal = 1.0 / (1.0 + c * second)
                for column, (value, key) in enumerate(zip((
                        reciprocal, c * fourth * reciprocal ** 2,
                        (c * third * reciprocal) ** 2 * reciprocal, c * sixth * reciprocal ** 2,
                        (c * fourth * reciprocal) ** 2 * reciprocal,
                        (c * third * reciprocal) ** 4 * reciprocal), numerics.SURROGATE_TERMS,
                        strict=True)):
                    value = value - numerics.surrogate_mean(c, paths, *key)
                    row[:, column] += value.sum(), (value * value).sum()
    monkeypatch.setattr(montecarlo, "_near_columns", near_columns)
    cfg = SystemConfig(half_subcarriers=half_subcarriers)
    plan = TrialPlan(trials=1 << 20, seed=32, target_index=target)
    assert montecarlo._near_devices(target + half_subcarriers, 2 * half_subcarriers + 1) == near
    v = np.concatenate(_capacity_variates(plan, cfg, CellConfig(paths)), axis=1)
    assert v.shape == (plan.trials, width)
    zero = ~v.any(axis=0)
    assert np.count_nonzero(zero) == zeros
    mean = v.mean(axis=0)
    spread = v.std(axis=0) / math.sqrt(plan.trials)
    assert np.all(np.abs(mean) <= 4.0 * spread), np.abs(mean) / spread
    count = plan.trials * (len(near) - 1)  # a pair a neighbour and trial, one round each
    if count:
        mean = terms[0] / count
        spread = np.sqrt((terms[1] / count - mean ** 2) / count)
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
    [draws] = montecarlo._layout("capacity", np.zeros(1), paths)
    [part] = draws.parts
    work, part.V = np.empty(part.held * 4096), np.zeros((4096, 1, 1 + part.width))
    rows = slice(0, 4096)
    part.build(part, sample_cell_batch(np.random.default_rng(paths), 4096, 1, CellConfig(paths)),
               [rows], None, np.empty((1, 4096, 1, paths)), work, rows)
    near, moments = part.V[:, :, 1:], work.reshape(5, 4096, 1)
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
    # N = 39 the mid part (3 <= |n| <= 10) keeps all 11 and the tail all 12
    # (the tail alone draws weights, which add a column).  The mid part is
    # mirrored, so its columns of odd order p, 3 of the 11 (2 of the 7), are
    # exactly 0
    cfg = SystemConfig(half_subcarriers=half_subcarriers)
    plan = TrialPlan(trials=512, seed=40, target_index=target)
    far = _capacity_variates(plan, cfg, CellConfig(3))[3:]
    assert len(far) == (2 if half_subcarriers > montecarlo._TAIL_GAP else 1)
    for mirrored, columns in zip((True, False), far):
        kept = columns[:, columns.any(axis=0)]
        assert np.linalg.matrix_rank(kept) == kept.shape[1]
        assert kept.shape[1] == (8 if (half_subcarriers, target) == (3, 0) else 12) \
            - mirrored * (3 if (half_subcarriers, target) == (3, 0) else 4)


@pytest.mark.parametrize("paths", [1, 8])
def test_a_mirrored_parts_odd_columns_are_zero_and_its_even_ones_its_sources(paths):
    # a band of N = 124 (three pairs of each neighbour at index gap +-1,
    # one of each at +-2) and fig4's 1000 Hz band (N = 99) for the
    # interference: each mirrored
    # part's columns, built by its builder, against those the same builder
    # gives the part unmirrored on the same draws and weights, none for a
    # set that draws none.  The capacity's neighbours at index gap +-1 and
    # +-2 zero m_3, m_5 and m_2 m_3 (m_3 and m_5 at one path), and its mid
    # part and both
    # interference parts, whose Taylor sums the far builder forms too,
    # their Taylor terms of odd order, (3, 3), (5, 3) and (5, 5), exactly;
    # every other column keeps its bits.  Only the interference's parts
    # are summed
    [ds, _] = montecarlo._layout("capacity", subcarrier_gaps(0, 124), paths)
    target, twos, ones, mid = ds.parts
    assert twos.mirrored and ones.mirrored and mid.mirrored and not target.mirrored
    interference = montecarlo._layout("interference", subcarrier_gaps(0, 99), paths)
    assert [(part.build, part.mirrored, part.summed) for ids in interference
            for part in ids.parts] == [(montecarlo._far_columns, True, True)] * 2
    assert not any(part.summed for part in ds.parts)
    rng, trials = np.random.default_rng(43), 40
    odd_terms = [t for t, (p, _) in enumerate(montecarlo._TERMS) if p % 2]
    odd = [[row for row in montecarlo._ODD_NEAR if row < ones.width], odd_terms]
    assert len(ones.columns) == 6 and len(odd[0]) == (2 if paths == 1 else 3)
    assert [montecarlo._TERMS[t] for t in odd_terms] == [(3, 3), (5, 3), (5, 5)]
    checked = [(ds, twos, odd[0]), (ds, ones, odd[0]), (ds, mid, odd[1])] \
        + [(ids, ids.parts[0], odd_terms) for ids in interference]
    for draws, part, zeros in checked:
        shift = sample_cell_batch(rng, trials, draws.columns.size, CellConfig(paths))
        weights = np.zeros((trials, draws.columns.size))
        weights[:, draws.weighted] = rng.standard_exponential(
            (trials, np.count_nonzero(draws.weighted)))
        own_weights = weights[:, part.columns] if draws.weighted[part.columns].any() else None
        own = np.ascontiguousarray(shift[:, part.columns])
        tiles = numerics.row_tiles(trials, own.shape[1] * paths)
        space = np.empty((4, tiles[0].stop, own.shape[1], paths))
        source = dataclasses.replace(part, mirrored=False)
        for built in (part, source):
            built.V = np.zeros((trials, built.count, 1 + built.width))
            built.build(built, own, tiles, own_weights, space,
                        np.empty(built.held * trials), slice(0, trials))
        got, want = part.V[..., 1:], source.V[..., 1:]
        assert not got[..., zeros].any() and want[..., zeros].all()
        kept = np.ones(part.width, bool)
        kept[zeros] = False
        assert np.array_equal(got[..., kept], want[..., kept])


@pytest.mark.parametrize("half_subcarriers", [3, 24, 199])
def test_the_kernel_forms_no_mirror_that_nothing_reads(half_subcarriers, monkeypatch):
    # a spy on the kernel over a capacity run of two blocks, one partial:
    # the only mirrors it forms are those of the +-2 neighbours' draw, of
    # the +-1 neighbours' R = 2P draws a trial (P = 1, 1 and 12 here) and of
    # the mid devices at index gap 3..K, each part a tile of its own.  The
    # target's R_0 rounds (1, 1 and 4) and the tail are evaluated
    # unmirrored: the target's mirror would be formed and never read
    cfg = SystemConfig(half_subcarriers=half_subcarriers, bandwidth_hz=0.0)
    q = cfg.spacing_symbol_product
    mirrored, plain = set(), set()
    kernel = montecarlo.sinc_squared

    def spy(gap, offset, span=None, out=None, work=None, mirror=None):
        # the index gaps of the tile's columns, from its first row and path
        (plain if mirror is None else mirrored).add(tuple(np.rint(gap[0, :, 0] / q).tolist()))
        return kernel(gap, offset, span, out, work, mirror)

    monkeypatch.setattr(montecarlo, "sinc_squared", spy)
    estimate_ergodic_capacity(TrialPlan(trials=300, seed=45), cfg, CELL, MOB)
    gaps = range(-half_subcarriers, half_subcarriers + 1)
    target_rounds, draws = montecarlo._capacity_draws(half_subcarriers)
    rounds = draws // 2
    mid = tuple(g for g in gaps if 2 < abs(g) <= montecarlo._TAIL_GAP)
    tail = tuple(g for g in gaps if abs(g) > montecarlo._TAIL_GAP)
    assert mirrored == {(-2, 2), (-1, 1) * rounds, mid}
    assert sum(map(len, mirrored)) == 2 + 2 * rounds + len(mid)
    assert plain == {(0,) * target_rounds} | ({tail} if tail else set())


@pytest.mark.parametrize("v_max", [400.0, 1000.0])
def test_a_mirrors_powers_are_the_kernel_on_the_negated_shifts(v_max, monkeypatch):
    # bit for bit, at x = 0.48 (the offset its own r) and 1.2 (the rint
    # reduction), over a block of 40 trials of the default band: the powers
    # of each part's columns, and of a mirrored part's mirrors, are those
    # sinc_squared gives on the part's offsets and on the negated offsets.
    # At x = 1.2 the neighbour at index gap +1 has a path of offset exactly
    # 1, so its mirror sits at the centre, g - o = 0
    span, cell = CFG.doppler_span(v_max), CellConfig(3)
    q = CFG.spacing_symbol_product
    gaps = subcarrier_gaps(0, CFG.half_subcarriers, q)
    sets = montecarlo._layout("capacity", subcarrier_gaps(0, CFG.half_subcarriers),
                              cell.paths_per_device)
    plus = sets[0].columns.tolist().index(CFG.half_subcarriers + 1)
    drawn = []

    def sampler(rng, n_trials, n_devices, cell):
        shift = sample_cell_batch(rng, n_trials, n_devices, cell)
        if span >= 1.0 and not drawn:
            shift[0, plus, 0] = q / span
            assert shift[0, plus, 0] * span == q
        drawn.append(shift.copy())
        return shift

    monkeypatch.setattr(montecarlo, "sample_cell_batch", sampler)
    [(_, _, powers, _)] = montecarlo._device_powers(
        TrialPlan(trials=40, seed=44), cell, [(CFG, MobilityModel(v_max))], [gaps], sets)
    parts = montecarlo._parts(sets)
    assert [part.mirrored for _, part in parts] == [False, True, True, True, False]
    for (ds, part), p in zip(parts, powers, strict=True):
        shift = drawn[sets.index(ds)][:, part.columns]
        gap = np.broadcast_to(gaps[ds.columns[part.columns]][:, None], shift.shape)
        offsets = [shift * span] + [-(shift * span)] * part.mirrored
        assert p.shape == (len(shift), shift.shape[1] * len(offsets))
        for got, offset in zip(np.split(p, len(offsets), axis=1), offsets):
            want = np.einsum("tdm->td", numerics.sinc_squared(gap, offset, span))
            want /= cell.paths_per_device
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the +1 neighbour's draw is the second of its part's, its mirror the fourth
    assert sets[0].columns[parts[2][1].columns[1]] == CFG.half_subcarriers + 1
    assert (span >= 1.0) == (powers[2][0, 3] >= 1.0 / cell.paths_per_device)


@pytest.mark.parametrize("v_max,paired", [(100.0, True), (400.0, True), (500.0, False),
                                          (1000.0, False)])
def test_the_interference_takes_the_pair_form_where_it_holds(v_max, paired, monkeypatch):
    # over a block of 40 trials of the default band: at x = 0.12 and 0.48
    # both parts take the pair form, on (pi g)^2 / 2; at x = 0.6, where the
    # gaps +-1 lie within twice the span and the offsets are reduced, and at
    # 1.2 both take the two-sided kernel, on the gaps.  Either way a part's
    # powers are the means over each draw and its mirror: bit for bit the
    # two-sided kernel's pair where it is called, within 1e-14 relative of
    # it where the pair form is
    span, cell = CFG.doppler_span(v_max), CellConfig(3)
    gaps = subcarrier_gaps(0, CFG.half_subcarriers, CFG.spacing_symbol_product)
    sets = montecarlo._layout("interference", subcarrier_gaps(0, CFG.half_subcarriers),
                              cell.paths_per_device)
    drawn, calls = [], []

    def sampler(rng, n_trials, n_devices, cell):
        drawn.append(sample_cell_batch(rng, n_trials, n_devices, cell))
        return drawn[-1].copy()

    monkeypatch.setattr(montecarlo, "sample_cell_batch", sampler)
    _spy_on_the_kernel(monkeypatch, lambda gap, offset, span, out, work, mirror:
                       calls.append((mirror is None, gap[0, :, 0].copy())))
    [(_, _, powers, _)] = montecarlo._device_powers(
        TrialPlan(trials=40, seed=44), cell, [(CFG, MobilityModel(v_max))], [gaps], sets)
    assert len(calls) == len(sets) == len(powers) == 2
    for ds, p, shift, (pair_form, tile) in zip(sets, powers, drawn, calls, strict=True):
        assert pair_form == paired
        assert np.array_equal(tile, (math.pi * gaps[ds.columns]) ** 2 / 2.0 if paired
                              else gaps[ds.columns])
        gap = np.broadcast_to(gaps[ds.columns][:, None], shift.shape)
        both = numerics.sinc_squared(gap, shift * span, span) \
            + numerics.sinc_squared(gap, -(shift * span), span)
        want = np.einsum("tdm->td", both) / (2 * cell.paths_per_device)
        assert p.shape == want.shape
        if paired:
            assert p == pytest.approx(want, rel=1e-14, abs=0.0)
        else:
            assert np.array_equal(p.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("half_subcarriers,target,target_rounds,draws,v_max",
                         [(4, 0, 1, 2, 100.0), (4, 0, 1, 4, 100.0), (12, 0, 3, 2, 100.0),
                          (4, 4, 2, 2, 100.0), (1, 0, 1, 2, 100.0), (4, 0, 3, 2, 0.0),
                          (0, 0, 2, 2, 100.0)],
                         ids=["one-pair", "two-pairs", "tail", "band-edge", "n-equals-1", "static",
                              "no-interferer"])
def test_the_factor_means_average_every_combination_of_the_parts_draws(
        half_subcarriers, target, target_rounds, draws, v_max, monkeypatch):
    # 3 trials, too few for any fold to fit a variate: the estimate is the
    # rule on the product of the parts' factor means, which is the mean
    # over all ways to take each part's factor from any of its draws (3^6 =
    # 729 for six parts), the target with the mean over its R_0 rounds of
    # u_r / (1 + t u_r), each neighbour at index gap +-2 with the mean of
    # its draw's factor and its mirror's, each at +-1 with the mean factor
    # of its draws, half of them the mirrors of the others, and the mid
    # part with the mean of its draw's and its mirror's product of its
    # devices' factors.  N = 12 = K + 2
    # has a seventh part, the tail beyond index gap K, here on 2 draws of
    # its own: 3^6 x 2 ways.  At the band edge the target has one
    # neighbour at -1 and one at -2, at N = 1 none at +-2 and no mid part,
    # and a static scenario or N = 0 leaves the target's factor alone, a
    # static one its first round's alone
    monkeypatch.setattr(montecarlo, "_capacity_draws",
                        lambda half_subcarriers: (target_rounds, draws))
    monkeypatch.setattr(montecarlo, "_TAIL_DRAWS", 2)
    cfg = SystemConfig(half_subcarriers=half_subcarriers)
    plan = TrialPlan(trials=3, seed=35, target_index=target)
    [est], runs, _ = _recorded(monkeypatch, plan, [cfg], CELL, [MobilityModel(v_max)])
    parts, (nodes, weights) = runs[0]
    far = abs(subcarrier_gaps(target, half_subcarriers))
    counts = {gap: np.count_nonzero(far == gap) for gap in (2, 1)}
    has_mid = bool(np.any((far > 2) & (far <= montecarlo._TAIL_GAP)))
    has_tail = bool(np.any(far > montecarlo._TAIL_GAP))
    x = CFG.doppler_span(v_max)
    kinds = ([gap for gap in (2, 1) if counts[gap]] + ["mid"] * has_mid + ["tail"] * has_tail
             if v_max > 0.0 else [])
    assert len(parts) == 1 + len(kinds)
    # the target's row, the mean over its rounds of C = u / (1 + t u)
    (_, near, [none]), *parts = parts
    assert none is None and near.shape == (target_rounds if v_max > 0.0 else 1, 3)
    factors = [np.mean(near[..., None] / (1.0 + nodes * near[..., None]), axis=0)]
    tolerances = [1e-15]
    c = nodes * 100.0 * x ** 2  # t SNR x^2 / q^2, q = 1
    window = nodes <= 5.0
    assert window.sum() < nodes.size
    for kind, (_, rows, [surrogate]) in zip(kinds, parts, strict=True):
        if kind == "tail":
            assert rows.shape == (1, 2) and surrogate is None
            factors.append(numerics.hamdi_factors(nodes, rows[:0], rows[0])[0])
        elif kind == "mid":
            # the mean over its draw and its mirror of prod_j 1 / (1 + t b_j),
            # less prod_j 1 / (1 + c k m_(2,j) / n_j^2) less its exact mean
            # prod_j h_M(c k / n_j^2), which its row subtracts at slope 1 on
            # the nodes with 1e-60 <= c <= 1e60 and t <= 5
            index_gaps = subcarrier_gaps(target, half_subcarriers)
            gaps = index_gaps[(far > 2) & (far <= montecarlo._TAIL_GAP)]
            assert rows.shape == (2 * gaps.size, 3)
            inside = window & (c >= 1e-60) & (c <= 1e60)
            assert nodes[surrogate.window].tolist() == nodes[inside].tolist()
            own = c[:, None] * numerics.doppler_power_scale(x) / gaps ** 2  # (nodes, devices)
            assert surrogate.scale == pytest.approx(own[0] / nodes[0], rel=1e-15)
            exact = np.prod(numerics.surrogate_mean(own, 8), axis=1)
            assert surrogate.mean[surrogate.window] == pytest.approx(exact[window], rel=1e-14)
            assert np.all(surrogate.mean[~window] == 1.0)
            second = surrogate.moments[0]  # (trials, devices)
            assert second.shape == (3, gaps.size)
            # its leading order: each device's c k m_(2,j) / (t n_j^2) is
            # its draw's b_j and its mirror's to within a fifth
            leading = (second * surrogate.scale).T  # (devices, trials)
            for side in np.split(rows, 2):
                assert leading == pytest.approx(side, rel=0.2)
            # each product formed device by device, then its reciprocal: the
            # estimator's, formed two devices a line, is within 3e-15 of it
            proxy = 1.0 / np.prod(1.0 + own * second[:, None], axis=2)
            pair_mean = np.mean([1.0 / np.prod(1.0 + nodes * side[..., None], axis=0)
                                 for side in np.split(rows, 2)], axis=0)
            factors.append(pair_mean - np.where(window, proxy - exact, 0.0))
            tolerances.append(3e-15)
            continue
        else:
            # the draws of the neighbours at index gap -n and n in turn, round
            # by round (one round at n = 2), and then their mirrors in the
            # same order.  Each drawn draw has the surrogate S + r x^2 T + g
            # U - s x^4 W + r^2 x^4 X + g^2 Y, S = 1 / (1 + c' m_2), T = c'
            # m_4 S^2, U = c'^2 m_3^2 S^3, W = c' m_6 S^2, X = c'^2 m_4^2
            # S^3, Y = c'^4 m_3^4 S^5, c' = c / n^2, r = pi^2 / 3 - 3 / n^2,
            # s = 5 / n^4 - pi^2 / n^2 + 2 pi^4 / 45 and g = 4 x^2 kappa(x,
            # n) / n^2, which its mirror shares, less its exact mean, which
            # the rows subtract at slope 1 on the nodes with t <= 5
            count, pairs = counts[kind], draws // 2 if kind == 1 else 1
            assert rows.shape == (2 * count * pairs, 3)
            assert surrogate.moments.shape == (5, 3, count * pairs)
            assert surrogate.scale == 100.0 * x ** 2 / kind ** 2
            assert surrogate.even == pytest.approx((math.pi ** 2 / 3.0 - 3.0 / kind ** 2) * x ** 2,
                                                   rel=1e-15)
            assert surrogate.odd == pytest.approx(
                4.0 * x ** 2 * numerics.odd_power_scale(x, kind) / kind ** 2, rel=1e-15)
            assert surrogate.sixth == pytest.approx(
                -(5.0 / kind ** 4 - math.pi ** 2 / kind ** 2 + 2.0 * math.pi ** 4 / 45.0) * x ** 4,
                rel=1e-15)
            own = c / kind ** 2
            assert nodes[surrogate.window].tolist() == nodes[window].tolist()
            assert x <= kind / 2.0  # W and X reach x <= Q / 2
            assert (surrogate.square, surrogate.quartic) == (surrogate.even ** 2,
                                                             surrogate.odd ** 2)
            term_weights = [1.0, surrogate.even, surrogate.odd, surrogate.sixth, surrogate.square,
                            surrogate.quartic]
            exact = sum(weight * numerics.surrogate_mean(own, 8, *key)
                        for weight, key in zip(term_weights, numerics.SURROGATE_TERMS, strict=True))
            assert surrogate.mean == pytest.approx((exact - 1.0)[window], rel=1e-14)
            second, third, fourth, _, sixth = (moment.T[..., None] for moment in surrogate.moments)
            reciprocal = 1.0 / (1.0 + own * second)
            terms = [reciprocal, own * fourth * reciprocal ** 2,
                     (own * third * reciprocal) ** 2 * reciprocal, own * sixth * reciprocal ** 2,
                     (own * fourth * reciprocal) ** 2 * reciprocal,
                     (own * third * reciprocal) ** 4 * reciprocal]
            proxy = sum(weight * term for weight, term in zip(term_weights, terms))
            proxies = np.where(window, proxy - exact, 0.0)
            table = numerics.hamdi_factors(nodes, rows)
            factors += [(table[side::count].sum(axis=0) - 2.0 * proxies[side::count].sum(axis=0))
                        / (2 * pairs) for side in range(count)]
        tolerances += [1e-15] * (len(factors) - len(tolerances))
    for got, want, rel in zip(_factors(runs[0])[0], factors, tolerances, strict=True):
        assert got == pytest.approx(want, rel=rel, abs=0.0)
    combinations = [weights @ np.prod([factor[i] for factor, i in zip(factors, pick)], axis=0)
                    for pick in np.ndindex(*(len(factor) for factor in factors))]
    assert len(combinations) == 3 ** (len(factors) - has_tail) * 2 ** has_tail
    brute = analytic.LOG2_E * math.fsum(combinations) / len(combinations)
    assert est.mean == pytest.approx(brute, rel=1e-14, abs=0.0)


def _capacity_state(snr):
    return SimpleNamespace(snr=snr, rule=numerics.hamdi_rule(snr), basis=numerics.hamdi_basis(snr))


def test_the_mid_factor_averages_its_devices_fading_exactly():
    # one trial of fig4's 2500 Hz band: the mid part's 16 devices at index
    # gap 3..10 and their mirrors, each power over the noise b_j up to 0.5;
    # its row, with no surrogate, is the mean over the pair of prod_j 1 /
    # (1 + t b_j), and that is E[e^(-t sum_j w_j b_j)] over the devices'
    # Exp(1) weights w_j: an average of 2^16 draws of a stream of its own
    # is within 4 of its standard errors at every node t <= 5 of the rule
    # (beyond, e^(-t a) is so skewed that 2^16 draws misread their spread)
    [ds, _] = montecarlo._layout("capacity", subcarrier_gaps(0, 39), 8)
    mid = ds.parts[3]
    assert mid.mid and mid.build is montecarlo._far_columns and mid.mirrored
    state = _capacity_state(100.0)
    nodes = state.rule[0]
    powers = np.random.default_rng(46).uniform(0.0, 5e-3, (1, 32))
    row = montecarlo._part_factors(mid, powers.copy(), None, state, None,
                                   np.empty((1, 1, nodes.size)), np.empty((6, 1, nodes.size)))
    pair = np.split(powers[0] * state.snr, 2)
    exact = np.mean([np.prod(1.0 / (1.0 + np.outer(nodes, b)), axis=1) for b in pair], axis=0)
    assert row.shape == (1, 1, nodes.size)
    assert row[0, 0] == pytest.approx(exact, rel=1e-15, abs=0.0)
    weights = np.random.default_rng(47).standard_exponential((1 << 16, 16))
    reach = nodes <= 5.0
    drawn = np.mean([np.exp(-np.outer(weights @ b, nodes[reach])) for b in pair], axis=0)
    spread = drawn.std(axis=0, ddof=1) / math.sqrt(len(drawn))
    assert np.all(abs(drawn.mean(axis=0) - row[0, 0, reach]) <= 4.0 * spread)


def _reciprocal_mean_by_quadrature(c, paths):
    # h_M(c) = E[1 / (1 + c m_2)] = int_0^inf e^-w E_u[Phi(w c u^2 / M)^M]
    # dw, Phi(s) = e^(-s/2) I0(s/2) the Laplace transform of cos^2 psi:
    # Gauss-Laguerre in w and Gauss-Legendre in u; s is clipped where
    # e^-w leaves the node no weight, so that I0 stays finite
    w, w_weights = np.polynomial.laguerre.laggauss(120)
    u, u_weights = np.polynomial.legendre.leggauss(200)
    half = np.minimum(np.multiply.outer(w * c, ((u + 1.0) / 2.0) ** 2) / (2.0 * paths), 600.0)
    return w_weights @ ((np.exp(-half) * np.i0(half)) ** paths @ (u_weights / 2.0))


def test_the_mid_surrogate_has_the_product_of_its_devices_means():
    # fig4's 500 Hz band at 100 m/s (x = 0.6) and 8 paths: the mid part's
    # surrogate prod_j 1 / (1 + c k m_(2,j) / n_j^2) has the exact mean
    # prod_j h_M(c k / n_j^2) on its window, each device's factor by a
    # quadrature of its own (within 3e-13 of the package's table up to
    # c = 20), and 1 off it
    cfg, paths = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199), 8
    index_gaps = subcarrier_gaps(0, cfg.half_subcarriers)
    sets = montecarlo._layout("capacity", index_gaps, paths)
    state = _capacity_state(montecarlo.capacity_snr(cfg))
    found = montecarlo._surrogates(sets, index_gaps, [(cfg, MOB)], [state], paths)[0]
    [(i, mid)] = [(i, part) for i, (_, part) in enumerate(montecarlo._parts(sets))
                  if part.mid]
    surrogate, nodes = found[i], state.rule[0]
    x = cfg.doppler_span(MOB.max_velocity_mps)
    scale = state.snr * x ** 2 * numerics.doppler_power_scale(x)  # c k / t at q = 1
    assert surrogate.scale == pytest.approx(scale / mid.gaps ** 2, rel=1e-15)
    window = nodes[surrogate.window]
    assert window.tolist() == nodes[nodes <= 5.0].tolist()
    gaps, counts = np.unique(abs(mid.gaps), return_counts=True)
    assert gaps.tolist() == list(range(3, 11)) and set(counts) == {2}
    checked = surrogate.mean[surrogate.window][::5]  # every fifth node of the window
    exact = np.prod([[_reciprocal_mean_by_quadrature(scale * t / gap ** 2, paths) ** count
                      for t in window[::5]] for gap, count in zip(gaps, counts)], axis=0)
    assert checked == pytest.approx(exact, rel=1e-11, abs=0.0)
    assert np.all(np.delete(surrogate.mean, surrogate.window) == 1.0)
    # its basis, (t^2, t, 1) of t the nodes times the lines' scale, a power
    # of two: the rule's nodes for the draw and its mirror, and those zeroed
    # off the window for the surrogate
    t = nodes * montecarlo._line_scale(state.snr)
    assert np.array_equal(surrogate.basis[0], [t * t, t, np.ones(t.size)])
    assert np.array_equal(surrogate.basis[1], surrogate.basis[0])
    t = np.where(nodes <= 5.0, t, 0.0)
    assert np.array_equal(surrogate.basis[2], [t * t, t, np.ones(t.size)])


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
    # trial, each such neighbour's factor the mean over max(1, N // 18)
    # independent draws of its own, relative to the other interferers'
    # powers and the noise, and every other interferer at a drawn weight, no
    # variate: an unbiased estimator that draws every device in every trial
    # through its own sample_cell_batch call, on a stream of its own
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers, cfg.spacing_symbol_product)
    target = plan.target_index + cfg.half_subcarriers
    kept = [target] + [target + gap for gap in averaged if 0 <= target + gap < gaps.size]
    extra = [c for c in (target - 1, target + 1) if c in kept[1:]] \
        * (max(1, cfg.half_subcarriers // 18) - 1)
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
    # trials on draws of its own.  The ratios read 0.96/0.96/1.01 at one
    # path, 0.97/1.03/1.01 at eight and 0.99/0.97/0.97 at 2500 Hz with the
    # mid part's fading averaged exactly (over 800 seeds: 1.01/0.96/0.96 at
    # one path, 1.03/1.02/1.01 at eight paths and 60/80/100 m/s, against
    # 0.92/0.95/0.92 and 0.93/0.94/0.96 with its weights drawn);
    # 0.95/0.86/0.94, 0.93/0.94/0.95 and 0.96/0.97/0.96 with its weights
    # drawn and the +-1 neighbours' second-order surrogates (0.92/0.87/0.94,
    # 1.02/1.02/0.98 and 0.98/1.00/0.96 with their first-order ones and the
    # +-1 neighbours' and the mid part's draws mirrored; 0.94/0.93/0.92,
    # 0.99/0.99/0.93 and 0.93/0.91/0.91 before, with their surrogates
    # alone; without the surrogates:
    # 0.93/0.88/0.88, 1.05/0.95/0.88 and 0.93/0.91/0.91; seeds 200-399 read
    # 1.04/0.99/1.00 at eight paths, and drawing the tail on every trial
    # moved none of them by 0.01); products of the parts' means corrected
    # at first order alone read 0.31 at 10 m/s and eight paths
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


# the ergodic capacity in bit/s/Hz at 20 dB and T_s df = 1, by a quadrature
# that shares no code with the Monte Carlo: Hamdi's integral with each
# device's fading mean a 3-D rule in (ln w, u, v) over its Exp(1) weight w,
# its speed fraction u and its arrival angles v (ROADMAP, item 1)
CAPACITY_QUADRATURE = {
    (2500.0, 39, 8): {30.0: 5.7913100184, 100.0: 5.1513640877},
    (2500.0, 39, 1): {30.0: 5.7921513677, 100.0: 5.1762873173},
    (500.0, 199, 8): {100.0: 2.421106297},
    (1000.0, 99, 8): {100.0: 3.738468},
}


@pytest.mark.parametrize("spacing,half_subcarriers,paths,trials",
                         [(2500.0, 39, 8, 4096), (2500.0, 39, 1, 4096), (500.0, 199, 8, 1024),
                          (1000.0, 99, 8, 1024)],
                         ids=["2500hz-8", "2500hz-1", "500hz-8", "1000hz-8"])
def test_capacity_mc_matches_an_independent_quadrature(spacing, half_subcarriers, paths, trials):
    # two-sided: the mean over seeds 0-19 within 4 standard errors of the
    # quadrature, the standard error of the mean from the seeds' spread.
    # The z-scores read -0.23 and -0.19 at eight paths and 0.01 and 0.13 at
    # one (30 and 100 m/s), -0.42 at 500 Hz and 0.32 at 1000 Hz, with the
    # +-1 and +-2 neighbours' second-order surrogates (-0.29, -1.03, 0.03,
    # 0.32, -0.51 and 0.32 with the +-1 neighbours' alone).  The 1000 Hz
    # reference, rounded to six decimals, is off by at most 4.2% of its
    # bound
    cfg = SystemConfig(subcarrier_spacing_hz=spacing, half_subcarriers=half_subcarriers)
    references = CAPACITY_QUADRATURE[spacing, half_subcarriers, paths]
    speeds = [MobilityModel(v) for v in references]
    runs = np.array([[est.mean for est in estimate_ergodic_capacity(
        TrialPlan(trials=trials, seed=seed), [cfg] * len(speeds), CellConfig(paths), speeds)]
        for seed in range(20)])
    z = (runs.mean(axis=0) - list(references.values())) \
        / (runs.std(axis=0, ddof=1) / math.sqrt(len(runs)))
    assert np.all(abs(z) <= 4.0), z


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
    # five near part records (the target, the +-2 neighbours, then the +-1
    # neighbours), the mid part, and the tail on 32 draws a block, whose
    # weights add a column
    assert [design.shape for design in designs] \
        == [(trials, 10)] * 5 + [(trials, 12), (montecarlo._layout(
            "capacity", subcarrier_gaps(0, CFG.half_subcarriers), CELL.paths_per_device)[1]
            .draws(trials), 13)]
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
    # with 11 draws of each +-1 neighbour a trial, 0.00018 with
    # second-order columns and the part means controlled per node, 0.000146
    # with the surrogates of the +-1 neighbours and the mid part, 0.000097
    # with their draws mirrored (six pairs of each neighbour), and is
    # 0.000063 with the +-1 neighbours' surrogates of second order
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
    # are 0.066 and 0.31 of those without a variate with the third-order
    # surrogates (0.066 and 0.68 with W and X at every span; an earlier
    # tree read 0.073 and 0.27 with those of second order; 0.077 and 0.27 with
    # the +-1 neighbours' first-order surrogates, 0.13 and 0.51 with their
    # second-order ones without the odd part's Clarke scale, 0.11 and 0.30
    # without the mirrored draws, 0.15 and 0.33 without the surrogates)
    est = estimate_ergodic_capacity(TrialPlan(trials=2048, seed=5), CFG, CELL,
                                    MobilityModel(v_max))
    assert est.std_error <= 0.45 * CAPACITY_VARIATE_OFF_STD_ERROR[v_max]


# fig4 as bench/run.py sweeps it: three curves at 900 MHz and 20 dB SNR,
# 0 to 100 m/s in steps of 10, 256 trials, mc.seed 0 to 3
FIG4_CURVES = [(2500.0, 39), (1000.0, 99), (500.0, 199)]


def test_fig4_capacity_reaches_its_accuracy_target_within_budget():
    # the mean over the grid's points of (std_error / 0.01)^2, which scales
    # the benchmark's mc_time_to_accuracy_s: 0.000030 with the +-1
    # neighbours' surrogates of second order, 0.000071 with their
    # first-order ones and the +-1 neighbours' and the mid part's draws
    # mirrored, 0.00018 with their surrogates alone, 0.00072 with the far devices
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
    # index gap K, 378 of the 424 columns a trial draws at N = 199 (twelve
    # pairs of each neighbour at index gap +-1, each pair a drawn column and
    # its mirror, whose sines the kernel shares, and four rounds of the
    # target), are evaluated on 32 of the block's 256 trials, which leaves
    # 22% of what every drawn column on every trial would take; a count,
    # not a time
    evaluated = []

    def spy(gap, offset, span=None, out=None, work=None, mirror=None):
        evaluated.append(offset.size)
        return numerics.sinc_squared(gap, offset, span, out, work, mirror)

    monkeypatch.setattr(montecarlo, "sinc_squared", spy)
    cfg = SystemConfig(subcarrier_spacing_hz=500.0, half_subcarriers=199)
    speeds = [MobilityModel(10.0 * k) for k in range(11)]
    plan = TrialPlan(trials=256, seed=0)
    estimate_ergodic_capacity(plan, [cfg] * len(speeds), CELL, speeds)
    target_rounds, draws = montecarlo._capacity_draws(cfg.half_subcarriers)
    columns = 2 * cfg.half_subcarriers + 1 + 2 * (draws // 2 - 1) + target_rounds - 1
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
