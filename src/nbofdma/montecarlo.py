"""Seeded Monte Carlo estimators that validate the closed-form analytics.

Randomness policy: trials are grouped in fixed blocks of 256, and block k of
a run draws from ``SeedSequence(entropy=seed, spawn_key=(k,))``.  Draws
inside a block happen in one fixed array order and do not depend on the
scenario, so every scenario of a plan reads the same random numbers: the
ICI and capacity estimators take a group of scenarios sharing the
sub-carrier count and draw each block once for the whole group.  Estimates
are bit-reproducible for a given (plan, configs) and do not depend on the
group a scenario is evaluated in or on how blocks might be spread over
workers; the reduction over trials is a single ordered pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bench/spans.py patches sinc (no caller here) and sample_cell_batch on this module
from .analytic import LOG2_E
from .numerics import exp1_scaled, row_tiles, sinc, sinc_squared
from .sysmodel import (CellConfig, MobilityModel, SystemConfig, _whole_number,
                       sample_cell_batch, subcarrier_gaps)

__all__ = [
    "TrialPlan",
    "Estimate",
    "estimate_total_ici",
    "estimate_useful_power",
    "estimate_ergodic_capacity",
    "symmetry_probe",
]

BLOCK_TRIALS = 256  # changing this changes every random stream

@dataclass(frozen=True)
class TrialPlan:
    """How many channel realizations to draw and from which seed.

    Given its path Doppler shifts, a device's path m demodulates to an
    independent circular Gaussian amplitude of variance k_m^2 / M, with
    k_m = sinc(gap + f_D,m * T_s).  The power estimators take the
    conditional mean of the per-path power sum, mean_m k_m^2; the capacity
    estimator draws the interferers' coherent powers, mean_m k_m^2 times one
    Exp(1) draw per device, and averages the target's Exp(1) weight in
    closed form.  Every estimator subtracts the same control variate, a
    zero-mean vector times a scalar fixed by the scenario
    (:func:`_device_powers`), so each stays exactly unbiased.
    """

    trials: int
    seed: int = 0
    target_index: int = 0

    def __post_init__(self):
        for name in ("trials", "seed", "target_index"):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error over ``trials`` realizations."""

    mean: float
    std_error: float
    trials: int


# ===========================================================================
# sampling plumbing
# ===========================================================================

def _block_sizes(trials: int):
    full, rem = divmod(trials, BLOCK_TRIALS)
    sizes = [BLOCK_TRIALS] * full
    if rem:
        sizes.append(rem)
    return sizes


def _block_rng(seed: int, block: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _reduce(values: np.ndarray) -> Estimate:
    trials = values.size
    mean = float(np.mean(values))
    if trials > 1:
        std_error = float(np.std(values, ddof=1) / math.sqrt(trials))
    else:
        std_error = 0.0
    return Estimate(mean=mean, std_error=std_error, trials=trials)


def _group(cfg, mob):
    """(scenarios, single): a lone (cfg, mob) as a group of one, or the
    pairs of equal-length sequences, which must share the sub-carrier count
    so that one batch of draws serves them all."""
    if isinstance(cfg, SystemConfig):
        return [(cfg, mob)], True
    scenarios = list(zip(cfg, mob, strict=True))
    if not scenarios:
        raise ValueError("a scenario group needs at least one (cfg, mob) pair")
    if len({c.half_subcarriers for c, _ in scenarios}) != 1:
        raise ValueError("the scenarios of a group must share half_subcarriers")
    return scenarios, False


# x = V_max f_c T_s / c above which the d^2 variate adds variance, on the
# centre and off it: d^2 grows without bound while sinc^2 stays below 1.
# At 4096 trials the variance without the variate over that with it falls
# through 1 at x of about 0.93 (useful power) and 1.2 (interference).
_VARIATE_MAX_X_CENTRE = 0.9
_VARIATE_MAX_X_OFF_CENTRE = 1.2
# x above which the capacity variate adds variance.  At 4096 trials on the
# 500 Hz and 2500 Hz fig4 curves the variance without the variate over that
# with it falls through 1 at x of about 1.18 at 20 dB SNR, 0.98 at 0 dB and
# 0.93 at -10 dB: the more the noise dominates, the more the capacity
# follows the useful power alone, whose own variate stops at 0.9.  At
# x = 0.9 the ratio is 2.5-2.6 at 20 dB and 1.17 at -10 dB.
_VARIATE_MAX_X_CAPACITY = 0.9


def _variate_coefficient(cfg: SystemConfig, mob: MobilityModel, curvature: float,
                         max_x: float) -> float:
    """x^2 times ``curvature``, the coefficient of d^2 in sinc^2(gap + d) at
    small d, with x = V_max f_c T_s / c: off the centre
    sin^2(pi d) / (pi (gap + d))^2 = d^2 / gap^2 + O(d^3), and on it
    sinc^2(d) = 1 - (pi^2 / 3) d^2 + O(d^4).  Zero above ``max_x``, where
    the variate would add variance."""
    x = cfg.doppler_span(mob.max_velocity_mps)
    return curvature * (x * x) if x <= max_x else 0.0


def _inverse_squares(target_index: int, half_subcarriers: int) -> np.ndarray:
    """1 / n_j^2 for the whole-number index gap n_j = j - i of each device j
    in [-N, N] to the target i; 0 at the target."""
    index_gaps = subcarrier_gaps(target_index, half_subcarriers)
    inverse = np.zeros_like(index_gaps)
    np.divide(1.0, index_gaps * index_gaps, out=inverse, where=index_gaps != 0)
    return inverse


def _interference_variate(bracket: np.ndarray, inverse_squares: np.ndarray,
                          weights: np.ndarray | None = None) -> np.ndarray:
    """V_I = sum_j w_j bracket_j / n_j^2 - (1/6) sum_j 1 / n_j^2 per trial,
    over the interferers j (``inverse_squares`` is 0 at the target), with
    w = 1 when ``weights`` is None.  Mean zero: E[bracket] = 1/6, E[w] = 1
    and the weights are independent of the Doppler draws."""
    if weights is None:
        variate = bracket @ inverse_squares
    else:
        variate = np.einsum("td,td,d->t", bracket, weights, inverse_squares)
    variate -= inverse_squares.sum() / 6.0
    return variate


def _capacity_variate_coefficients(inverse_squares: np.ndarray, scenarios) -> np.ndarray:
    """Rows (c_I, c_0) over the scenarios: what the capacity estimator
    multiplies V_I and V_0 by before subtracting them.

    A trial's capacity is f(s) = log2(e) e^s E1(s) with
    s = (I + noise / P_T) / k_0, I the interferers' weighted powers and k_0
    the target's power.  To leading order in x = V_max f_c T_s / c,
    I - E[I] is (x^2 / q^2) V_I and k_0 - E[k_0] is -(pi^2 / 3) x^2 V_0,
    with q = T_s df.  The betas are the slopes of f at
    s = (I_bar + noise / P_T) / k_bar, with I_bar = (x^2 / 6) sum_j 1 / g_j^2
    and k_bar = 1 - pi^2 x^2 / 18: beta_I = f'(s) / k_bar and
    beta_0 = -f'(s) s / k_bar, where f'(s) = log2(e) (e^s E1(s) - 1 / s).
    They depend on the scenario alone, never on the draws.  Both are 0 for
    a static network and above x = 0.9, where the variate would add
    variance.
    """
    x = np.array([c.doppler_span(m.max_velocity_mps) for c, m in scenarios])
    on = (x > 0.0) & (x <= _VARIATE_MAX_X_CAPACITY)
    x2 = x[on] * x[on]
    q2 = np.array([c.spacing_symbol_product ** 2 for c, _ in scenarios])[on]
    noise = np.array([c.noise_variance / c.effective_power for c, _ in scenarios])[on]
    useful = 1.0 - math.pi ** 2 * x2 / 18.0
    s = (x2 / (6.0 * q2) * float(inverse_squares.sum()) + noise) / useful
    slope = LOG2_E * (exp1_scaled(s) - 1.0 / s)
    coefficients = np.zeros((2, len(scenarios)))
    coefficients[:, on] = slope / useful * x2 / q2, slope * s / useful * math.pi ** 2 / 3.0 * x2
    return coefficients


def _device_powers(plan: TrialPlan, cell: CellConfig, scenarios, gaps, coherent: bool):
    """Yield ``(k, rows, powers, bracket, weights)``: the per-(trial,
    device) power on the target sub-carrier of scenario k for the trials
    ``rows``, in a buffer the next step overwrites; the block's
    per-device bracket mean_m z_m^2; and the block's Exp(1) weights
    ("coherent") or None.

    Each block is drawn once, the weights right after the sampler, and
    evaluated for each scenario in turn, so no value depends on the group.
    Path m of a device shifts by d_m = f_D,m T_s = x z_m, with
    x = V_max f_c T_s / c the scenario's span
    (:meth:`SystemConfig.doppler_span`) and z_m = u cos(psi_m) the
    scenario-free shift, u the speed fraction.  The block draws z once
    (:func:`sysmodel.sample_cell_batch`, the one place that forms it), takes
    the bracket from it, and each scenario scales it by its own x.  Since
    |z| < 1 and rounding is monotone, every offset |fl(x z)| is within the
    span x.  The mean over paths of sinc(gap + d_m)^2 is a device's
    expected power given its path Doppler shifts; times its weight it
    follows the law of the squared complex path sum, and the caller applies
    the weights.  ``gaps[k]`` holds scenario k's integer sub-carrier
    distances scaled by T_s * df, so a static network cancels exactly.
    Each row's path sum is taken within its tile, so the tile size changes
    no value.  The kernel is sized to each scenario's own span x
    (:func:`numerics.sinc_squared`), so its terms never depend on the
    group, and a static scenario (x = 0) skips it for the exact values it
    would return.  The kernel runs in a workspace allocated once per call
    and reused for every tile, block and scenario: the offsets tile, the
    kernel's output and scratch tiles, and one full (rows, devices, paths)
    gap tile per distinct gap vector, so a tile allocates no array.

    Every estimator subtracts one control variate (Glasserman 2003,
    section 4.1), the leading Doppler term.  With u uniform (E[u^2] = 1/3)
    and cos(psi_m) of the arcsine law (E[cos^2 psi] = 1/2), x^2 times the
    bracket is mean_m d_m^2, of mean x^2 / 6.  Each estimator reduces the
    bracket linearly to a per-trial vector of mean zero, V_I
    (:func:`_interference_variate`) or V_0 = the target's bracket less 1/6,
    and subtracts it times a scalar fixed by the scenario
    (:func:`_variate_coefficient`, :func:`_capacity_variate_coefficients`).
    That keeps every expectation and cancels most of the spread while |d|
    stays well below 1/2; a static network subtracts exactly 0.
    """
    devices = len(gaps[0])
    paths = cell.paths_per_device
    spans = [cfg.doppler_span(mob.max_velocity_mps) for cfg, mob in scenarios]
    buffer = np.empty((2, min(plan.trials, BLOCK_TRIALS), devices))
    # the kernel's workspace, sized to the largest tile (the first of the
    # first block); the gaps come as full tiles because numpy adds a row
    # broadcast over the short path axis about three times slower
    tile_shape = (row_tiles(buffer.shape[1], devices * paths)[0].stop, devices, paths)
    workspace = np.empty((4,) + tile_shape)
    offsets, kernel, work = workspace[0], workspace[1], workspace[2:]
    gap_tiles, shared = [], {}
    for gap, span in zip(gaps, spans):
        key = gap.tobytes()
        if span != 0.0 and key not in shared:
            shared[key] = np.broadcast_to(gap[:, None], tile_shape).copy()
        gap_tiles.append(shared.get(key))
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        shift = sample_cell_batch(rng, size, devices, cell)
        weights = rng.standard_exponential((size, devices)) if coherent else None
        powers, bracket = buffer[:, :size]
        tiles = row_tiles(size, devices * paths)
        for rows in tiles:
            np.einsum("tdm,tdm->td", shift[rows], shift[rows], out=bracket[rows])
        bracket /= paths
        for k, span in enumerate(spans):
            if span == 0.0:
                # what the kernel gives a static network: 1 on the centre, 0 off it
                powers[:] = gaps[k] == 0.0
            else:
                for rows in tiles:
                    n = rows.stop - rows.start
                    offset = np.multiply(shift[rows], span, out=offsets[:n])
                    values = sinc_squared(gap_tiles[k][:n], offset, span, kernel[:n],
                                          work[:, :n])
                    np.einsum("tdm->td", values, out=powers[rows])
                powers /= paths
            yield k, slice(start, start + size), powers, bracket, weights
        start += size


# ===========================================================================
# estimators
# ===========================================================================

def _estimates(samples, single: bool):
    estimates = [_reduce(values) for values in samples]
    return estimates[0] if single else estimates


def estimate_total_ici(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                       cell: CellConfig, mob: MobilityModel | list[MobilityModel]
                       ) -> Estimate | list[Estimate]:
    """Monte Carlo mean of the interference power collected on the target
    sub-carrier from the other 2N devices.

    Converges to :func:`analytic.finite_n_ici` at the same N.  Each trial
    sums the interferers' powers less (x^2 / q^2) V_I, with q = T_s df
    (:func:`_device_powers`); neither term needs a quadrature.  A static
    network gives exactly zero in every trial.
    ``cfg`` and ``mob`` may be equal-length sequences of scenarios sharing
    ``half_subcarriers``; they are evaluated on one set of draws, and the
    result is a list of estimates, each equal to the estimate of its
    scenario alone.
    """
    scenarios, single = _group(cfg, mob)
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    target_column = plan.target_index + n
    inverse_squares = _inverse_squares(plan.target_index, n)
    coefficients = [_variate_coefficient(c, m, 1.0 / c.spacing_symbol_product ** 2,
                                         _VARIATE_MAX_X_OFF_CENTRE) for c, m in scenarios]
    samples = [np.empty(plan.trials) for _ in scenarios]
    for k, rows, powers, bracket, _ in _device_powers(plan, cell, scenarios, gaps, False):
        if k == 0:
            variate = _interference_variate(bracket, inverse_squares)
        powers[:, target_column] = 0.0
        samples[k][rows] = (powers.sum(axis=1) - coefficients[k] * variate) \
            * scenarios[k][0].effective_power
    return _estimates(samples, single)


def estimate_useful_power(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                          mob: MobilityModel) -> Estimate:
    """Monte Carlo mean of the power the target device keeps on its own
    sub-carrier; converges to :func:`analytic.effective_useful_power`.

    Each trial gives mean_m sinc^2(d_m) less -(pi^2 / 3) x^2 V_0
    (:func:`_device_powers`).  A static network gives exactly P_T in every
    trial.
    """
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers)
    coefficient = _variate_coefficient(cfg, mob, -math.pi ** 2 / 3.0, _VARIATE_MAX_X_CENTRE)
    samples = np.empty(plan.trials)
    for _, rows, powers, bracket, _ in _device_powers(plan, cell, [(cfg, mob)],
                                                      [gaps[gaps == 0]], False):
        samples[rows] = (powers[:, 0] - coefficient * (bracket[:, 0] - 1.0 / 6.0)) \
            * cfg.effective_power
    return _reduce(samples)


def estimate_ergodic_capacity(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                              cell: CellConfig,
                              mob: MobilityModel | list[MobilityModel]
                              ) -> Estimate | list[Estimate]:
    """Mean of log2(1 + useful / (interference + noise)) over realizations
    of the whole cell, in bit/s/Hz.

    The per-device signal and interference powers are the powers of the
    coherent path sums.  Given the path Doppler shifts and the interferers'
    Exp(1) weights, the target's useful power is k_0 P_T times its own
    Exp(1) weight w, with k_0 its conditional power, and the mean over w is
    exact: E_w[log2(1 + w a)] = log2(e) e^(1/a) E1(1/a) with
    a = k_0 P_T / (interference + noise) (Lee 1990).  Each trial
    contributes that conditional mean in place of a draw of w, which removes
    most of the variance.  The weights are drawn after the sampler's draws,
    the target's too, which is left unused, so every estimator reads the
    same speeds and arrival cosines.

    Each trial then subtracts c_I V_I + c_0 V_0 (:func:`_device_powers`),
    V_I weighted by the interferers' drawn weights, with c_I, c_0 the slopes
    of the capacity at the mean powers
    (:func:`_capacity_variate_coefficients`).  The SINR is not linear in the
    powers, but a zero-mean term times a coefficient fixed by the scenario
    keeps the estimate exactly unbiased.  A static network subtracts nothing
    and gives the exact capacity in every trial.  The log is convex in the
    interference,
    so the estimate can exceed :func:`analytic.capacity_upper`, which
    evaluates it at the mean powers; at one path per device it does.
    Requires positive noise power.  ``cfg`` and ``mob`` may be sequences,
    as for :func:`estimate_total_ici`.
    """
    scenarios, single = _group(cfg, mob)
    if any(c.noise_variance <= 0.0 for c, _ in scenarios):
        raise ValueError("noise_variance must be positive to estimate capacity")
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    target_column = plan.target_index + n
    inverse_squares = _inverse_squares(plan.target_index, n)
    c_interference, c_useful = _capacity_variate_coefficients(inverse_squares, scenarios)
    samples = [np.empty(plan.trials) for _ in scenarios]
    for k, rows, powers, bracket, weights in _device_powers(plan, cell, scenarios, gaps, True):
        if k == 0:
            v_interference = _interference_variate(bracket, inverse_squares, weights)
            v_useful = bracket[:, target_column] - 1.0 / 6.0
        cfg_k = scenarios[k][0]
        useful = powers[:, target_column] * cfg_k.effective_power
        powers *= weights
        powers[:, target_column] = 0.0
        # 1 / a; a target that keeps no power gives inf and a capacity of 0
        inverse_sinr = powers.sum(axis=1) * cfg_k.effective_power
        inverse_sinr += cfg_k.noise_variance
        with np.errstate(divide="ignore"):
            inverse_sinr /= useful
        samples[k][rows] = exp1_scaled(inverse_sinr) * LOG2_E \
            - c_interference[k] * v_interference - c_useful[k] * v_useful
    return _estimates(samples, single)


def symmetry_probe(index_a: int, index_b: int, plan: TrialPlan,
                   cfg: SystemConfig, cell: CellConfig,
                   mob: MobilityModel) -> tuple[Estimate, Estimate]:
    """Estimate the interference device ``index_b`` deposits on sub-carrier
    ``index_a`` and vice versa, from independent draws of the two devices.

    The channel law depends on the index pair only through its gap, so the
    two means must agree within Monte Carlo noise.  Each direction subtracts
    (x^2 / g^2) times its own device's bracket less 1/6, the variate of
    :func:`estimate_total_ici` for one interferer at gap g, which the two
    share in law and in mean but not in draws.  Swapping the arguments
    returns the same pair of estimates in the other order, bit for bit.
    """
    n, q = cfg.half_subcarriers, cfg.spacing_symbol_product
    # a's gaps less b's are (b - a) q at every entry; forming them checks both
    gap = abs(subcarrier_gaps(index_a, n, q)[0] - subcarrier_gaps(index_b, n, q)[0])
    if gap == 0.0:
        raise ValueError("symmetry_probe needs two distinct sub-carriers")
    low, high = sorted((index_a, index_b))
    coefficient = _variate_coefficient(cfg, mob, 1.0 / (gap * gap), _VARIATE_MAX_X_OFF_CENTRE)
    # devices drawn in index order: column 0 is the source on sub-carrier
    # ``low``, seen from ``high``, and column 1 the reverse
    onto = {low: np.empty(plan.trials), high: np.empty(plan.trials)}
    for _, rows, powers, bracket, _ in _device_powers(plan, cell, [(cfg, mob)],
                                                      [np.array([-gap, gap])], False):
        powers -= coefficient * (bracket - 1.0 / 6.0)
        onto[high][rows] = powers[:, 0] * cfg.effective_power
        onto[low][rows] = powers[:, 1] * cfg.effective_power
    return _reduce(onto[index_a]), _reduce(onto[index_b])
