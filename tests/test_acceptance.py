"""End-to-end acceptance checks for the interference / capacity pipeline.

Each check prints exactly one PASS/FAIL verdict line (with its wall time and
budget) and then asserts.  The two bundled sweep presets are executed at full
trial counts, so this module dominates the suite's runtime.
"""

import math
import time

import numpy as np
import pytest

from nbofdma import (
    CellConfig,
    MobilityModel,
    SystemConfig,
    TrialPlan,
    approx_validity_threshold,
    capacity_upper,
    capacity_upper_approx,
    effective_useful_power,
    emit,
    estimate_total_ici,
    estimate_useful_power,
    finite_n_ici,
    ici_approx,
    ici_bounds,
    leakage,
    leakage_sum,
    parse_config,
    preset_path,
    run_sweep,
    sum_rate_upper,
    symmetry_probe,
    total_ici_power,
)
from nbofdma.analytic import NormalizedDoppler, _ici_tail

LOG2_E = math.log2(math.e)
CFG = SystemConfig()
CELL = CellConfig()


def _velocity_for(b: float, cfg: SystemConfig) -> float:
    return b * cfg.wave_speed_mps * cfg.subcarrier_spacing_hz \
        / (math.pi * cfg.carrier_frequency_hz)


def _verdict(capsys, tag: str, ok: bool, detail: str,
             elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    line = f"[{tag}] {status} {detail} [{elapsed:.1f}s of {budget:.0f}s allowed]"
    with capsys.disabled():
        print("\n" + line)
    assert status == "PASS", line


def _run_preset(name: str):
    spec = parse_config(preset_path(name).read_text())
    start = time.perf_counter()
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - start
    assert not any(row.error for row in rows)
    return spec, rows, elapsed


@pytest.fixture(scope="module")
def fig3():
    spec, rows, t_first = _run_preset("fig3")
    start = time.perf_counter()
    rows_again = run_sweep(spec)
    t_second = time.perf_counter() - start
    return {
        "rows": rows,
        "csv_first": emit(rows, spec),
        "csv_second": emit(rows_again, spec),
        "t_once": t_first,
        "t_twice": t_first + t_second,
    }


@pytest.fixture(scope="module")
def fig4():
    spec, rows, elapsed = _run_preset("fig4")
    return {"rows": rows, "elapsed": elapsed}


def test_doppler_anchor(capsys):
    start = time.perf_counter()
    b = NormalizedDoppler.from_configs(100.0, CFG).b
    ok = abs(b - 0.377) <= 0.001
    _verdict(capsys, "A01", ok,
             f"normalized Doppler {b:.6f} within 0.377 +/- 0.001",
             time.perf_counter() - start, 5.0)


def test_simulation_matches_quadrature(capsys, fig3):
    start = time.perf_counter()
    checked = misses = 0
    for row in fig3["rows"]:
        if row.axis_value < 10.0:
            continue
        gap = abs(row.values["ici_mc"] - row.values["ici_exact"])
        tol = max(3.0 * row.values["ici_mc_std_error"],
                  0.01 * row.values["ici_exact"])
        checked += 1
        misses += gap > tol
    tail_gaps = []
    for carrier in (900e6, 3e9):
        cfg = SystemConfig(carrier_frequency_hz=carrier,
                           half_subcarriers=1000, bandwidth_hz=0.0)
        tail_gaps.append(total_ici_power(100.0, cfg) - finite_n_ici(0, 100.0, cfg))
    ok = misses == 0 and checked == 20 \
        and all(0.0 <= gap <= 5e-4 * CFG.effective_power for gap in tail_gaps)
    _verdict(capsys, "A02", ok,
             f"simulated interference within max(3 stderr, 1%) of the finite-N "
             f"quadrature at {checked - misses}/{checked} points; N=1000 "
             f"truncation gaps {tail_gaps[0]:.1e}, {tail_gaps[1]:.1e} <= 5e-4",
             fig3["t_once"] + time.perf_counter() - start, 180.0)


def test_interference_bounds_sandwich(capsys):
    start = time.perf_counter()
    violations = 0
    for b in np.linspace(0.006, 0.6, 100):
        velocity = _velocity_for(float(b), CFG)
        bounds = ici_bounds(velocity, CFG)
        total = total_ici_power(velocity, CFG)
        violations += not bounds.lower <= total <= bounds.upper
    threshold = approx_validity_threshold(SystemConfig(carrier_frequency_hz=3e9))
    ok = violations == 0 and abs(threshold - 39.8) <= 0.1
    _verdict(capsys, "A03", ok,
             f"bounds bracket the exact interference at 100/100 points; "
             f"3 GHz validity threshold {threshold:.2f} m/s within 39.8 +/- 0.1",
             time.perf_counter() - start, 30.0)


def test_small_velocity_approximation(capsys):
    start = time.perf_counter()
    worst = 0.0
    for b in np.linspace(0.01, 0.5, 50):
        velocity = _velocity_for(float(b), CFG)
        gap = abs(ici_approx(velocity, CFG) - total_ici_power(velocity, CFG))
        worst = max(worst, gap - b ** 4 / 50.0 * CFG.effective_power)
    ok = worst <= 0.0
    _verdict(capsys, "A04", ok,
             f"quadratic approximation inside the b^4/50 envelope at 50/50 "
             f"points (worst margin {worst:.2e})",
             time.perf_counter() - start, 30.0)


def test_leakage_sum_limits(capsys):
    start = time.perf_counter()
    velocity = _velocity_for(0.377, CFG)
    open_cfg = SystemConfig(bandwidth_hz=0.0)
    dense = leakage_sum(0, 1000, velocity, open_cfg)
    # the power series' leakage beyond |g| > 1000 makes the rest of unity
    residual = abs(dense + _ici_tail(1000, open_cfg.doppler_span(velocity)) - 1.0)
    sparse_cfg = SystemConfig(bandwidth_hz=0.0, symbol_period_s=2.0 / 2500.0)
    sparse = leakage_sum(0, 1000, velocity, sparse_cfg)
    ok = residual <= 1e-13 and sparse < 1.0 - 1e-3
    _verdict(capsys, "A05", ok,
             f"leakage sum at N=1000 plus the series' tail beyond it is unity "
             f"to {residual:.1e} <= 1e-13 on the dense grid, {sparse:.4f} < 0.999 "
             f"on the double-period grid",
             time.perf_counter() - start, 60.0)


def test_leakage_symmetry(capsys):
    start = time.perf_counter()
    offsets = np.random.default_rng(6).uniform(10.0, 30000.0, 100)
    worst = max(abs(leakage(float(d), 75.0, CFG) - leakage(-float(d), 75.0, CFG))
                for d in offsets)
    forward, backward = symmetry_probe(0, 8, TrialPlan(trials=100000, seed=6),
                                       CFG, CELL, MobilityModel(75.0))
    gap = abs(forward.mean - backward.mean)
    allowance = 3.0 * math.hypot(forward.std_error, backward.std_error)
    ok = worst <= 1e-9 and gap <= allowance
    _verdict(capsys, "A06", ok,
             f"leakage even in the offset (max asymmetry {worst:.1e} <= 1e-9); "
             f"paired simulated estimates differ by {gap:.2e} <= {allowance:.2e}",
             time.perf_counter() - start, 60.0)


def test_power_conservation(capsys):
    start = time.perf_counter()
    # the useful power (the Si route) and the power series' leakage onto
    # every other sub-carrier make up P_T
    worst = max(abs(effective_useful_power(float(v), CFG) / CFG.effective_power
                    + _ici_tail(0, CFG.doppler_span(float(v))) - 1.0)
                for v in np.linspace(0.0, 100.0, 50))
    plan = TrialPlan(trials=100000, seed=7)
    mobility = MobilityModel(100.0)
    useful = estimate_useful_power(plan, CFG, CELL, mobility)
    ici = estimate_total_ici(plan, CFG, CELL, mobility)
    in_band = CFG.effective_power * leakage_sum(0, CFG.half_subcarriers, 100.0, CFG)
    gap = abs(useful.mean + ici.mean - in_band)
    allowance = 3.0 * math.hypot(useful.std_error, ici.std_error)
    ok = worst <= 1e-13 and gap <= allowance
    _verdict(capsys, "A07", ok,
             f"useful + interference = P_T to {worst:.1e} <= 1e-13 on 50 points; "
             f"simulated in-band total within {gap:.2e} <= {allowance:.2e} of "
             f"the truncated leakage sum",
             time.perf_counter() - start, 60.0)


def test_capacity_jensen_ordering(capsys, fig4):
    start = time.perf_counter()
    violations = 0
    curves = {}
    for row in fig4["rows"]:
        slack = row.values["capacity_exact"] \
            + 3.0 * row.values["capacity_mc_std_error"] - row.values["capacity_mc"]
        violations += slack < 0.0
        curves.setdefault(row.curve, []).append(row.values["capacity_exact"])
    descending_in_v = all(all(a > b for a, b in zip(series, series[1:]))
                          for series in curves.values())
    by_spacing = [curves["spacing_2500hz"], curves["spacing_1000hz"],
                  curves["spacing_500hz"]]
    descending_in_inverse_spacing = all(
        wide[i] > mid[i] > narrow[i]
        for wide, mid, narrow in [by_spacing]
        for i in range(1, len(wide)))
    # without motion only the target's fading is random, and the estimator
    # averages it in closed form, so every trial gives the same value
    static_spread = max(row.values["capacity_mc_std_error"]
                        for row in fig4["rows"] if row.axis_value == 0.0)
    ok = violations == 0 and descending_in_v and descending_in_inverse_spacing \
        and static_spread <= 1e-14
    _verdict(capsys, "A08", ok,
             f"simulated capacity <= upper bound + 3 stderr at "
             f"{len(fig4['rows']) - violations}/{len(fig4['rows'])} points; "
             f"curves strictly decreasing in V_max and in 1/spacing; "
             f"V_max = 0 stderr {static_spread:.1e} <= 1e-14",
             fig4["elapsed"] + time.perf_counter() - start, 180.0)


def test_capacity_approximation_and_slope(capsys):
    start = time.perf_counter()
    worst = 0.0
    for b in np.linspace(0.0, 0.4, 50):
        velocity = _velocity_for(float(b), CFG)
        worst = max(worst, abs(capacity_upper_approx(velocity, CFG)
                               - capacity_upper(velocity, CFG)))
    high_snr = SystemConfig(noise_variance=1e-10)
    slope = capacity_upper_approx(50.0 * math.e, high_snr) \
        - capacity_upper_approx(50.0, high_snr)
    ok = worst <= 0.05 and abs(slope + 2.0 * LOG2_E) <= 1e-5
    _verdict(capsys, "A09", ok,
             f"capacity approximation within {worst:.3f} <= 0.05 bits for "
             f"b <= 0.4; high-SNR slope {slope:.6f} vs -2*log2(e)",
             time.perf_counter() - start, 30.0)


def test_sum_rate_snr_sensitivity(capsys):
    start = time.perf_counter()
    drops = {}
    for snr_db in (20.0, 0.0):
        cfg = SystemConfig(noise_variance=10.0 ** (-snr_db / 10.0))
        drops[snr_db] = sum_rate_upper(0.0, cfg) - sum_rate_upper(100.0, cfg)
    ok = drops[20.0] > drops[0.0]
    _verdict(capsys, "A10", ok,
             f"mobility costs {drops[20.0]:.3g} bit/s of sum rate at 20 dB SNR "
             f"vs {drops[0.0]:.3g} at 0 dB",
             time.perf_counter() - start, 60.0)


def test_deterministic_sweep_output(capsys, fig3):
    start = time.perf_counter()
    ok = fig3["csv_first"] == fig3["csv_second"]
    _verdict(capsys, "A11", ok,
             f"two preset runs with the same seed emit byte-identical CSV "
             f"({len(fig3['csv_first'])} bytes)",
             fig3["t_twice"] + time.perf_counter() - start, 360.0)
