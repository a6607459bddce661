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
from .sysmodel import CellConfig, MobilityModel, SystemConfig, sample_cell_batch

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
    conditional mean of the per-path power sum, mean_m k_m^2, less a
    control variate of known mean (:func:`_device_powers`); the capacity
    estimator draws the interferers' coherent powers, mean_m k_m^2 times one
    Exp(1) draw per device, and averages the target's Exp(1) weight in
    closed form.
    """

    trials: int
    seed: int = 0
    target_index: int = 0

    def __post_init__(self):
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


def _check_target(index: int, cfg: SystemConfig):
    n = cfg.half_subcarriers
    if not -n <= index <= n:
        raise ValueError(f"target index {index} outside [-{n}, {n}]")


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


def _variate_coefficients(gaps: np.ndarray, cfg: SystemConfig, mob: MobilityModel) -> np.ndarray:
    """x^2 times the coefficient of d^2 in sinc^2(gap + d) at small d, per
    whole-number gap, with x = V_max f_c T_s / c: off the centre
    sin^2(pi d) / (pi (gap + d))^2 = d^2 / gap^2 + O(d^3), and on it
    sinc^2(d) = 1 - (pi^2 / 3) d^2 + O(d^4)."""
    x = mob.max_velocity_mps / cfg.wave_speed_mps * cfg.carrier_frequency_hz \
        * cfg.symbol_period_s
    coefficients = np.full(gaps.shape, -math.pi ** 2 / 3.0)
    np.divide(1.0, gaps * gaps, out=coefficients, where=gaps != 0.0)
    coefficients *= x * x
    return coefficients


def _device_powers(plan: TrialPlan, cell: CellConfig, scenarios, gaps, coherent: bool):
    """Yield ``(k, rows, powers, weights)``: the per-(trial, device) power
    on the target sub-carrier of scenario k for the trials ``rows``, in a
    buffer the next step overwrites, and the block's Exp(1) weights
    ("coherent") or None.

    Each block is drawn once, the weights right after the sampler, and
    evaluated for each scenario in turn, so no value depends on the group.
    The mean over paths of sinc(gap + f_D * T_s)^2 is a device's expected
    power given its path Doppler shifts; times its weight it follows the law
    of the squared complex path sum, and the caller applies the weights.
    ``gaps[k]`` holds scenario k's integer sub-carrier distances scaled by
    T_s * df, so a static network cancels exactly.  Each row's path sum is
    taken within its tile, so the tile size changes no value.

    Without weights the powers carry a control variate with coefficient 1
    (Glasserman 2003, section 4.1): a device whose paths shift by
    d_m = f_D,m T_s keeps its power less c (mean_m d_m^2 - E[d^2]), with c
    the d^2 coefficient of sinc^2(gap + d).  With d_m = x u cos(psi_m), the
    speed fraction u uniform (E[u^2] = 1/3) and cos(psi_m) of the arcsine law
    (E[cos^2 psi] = 1/2), E[d^2] = x^2 / 6 exactly, so the term is
    c x^2 (u^2 mean_m cos^2 psi_m - 1/6) and has mean zero: every
    expectation is kept, and the term cancels most of the power's spread
    while |d| stays well below 1/2.  The bracket does not depend on the
    scenario and is formed once per block; each scenario scales it by its
    c x^2 (:func:`_variate_coefficients`), per device, not per path.  A
    static network subtracts exactly 0.
    """
    devices = len(gaps[0])
    paths = cell.paths_per_device
    buffer = np.empty((2 if coherent else 3, min(plan.trials, BLOCK_TRIALS), devices))
    coefficients = None if coherent else [_variate_coefficients(g, cfg, mob)
                                          for g, (cfg, mob) in zip(gaps, scenarios)]
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        batch = sample_cell_batch(rng, size, devices, cell)
        weights = rng.standard_exponential((size, devices)) if coherent else None
        powers, max_shift = buffer[0, :size], buffer[1, :size]
        tiles = row_tiles(size, devices * paths)
        if not coherent:
            # u^2 mean_m cos^2 psi_m - 1/6
            variate = buffer[2, :size]
            for rows in tiles:
                tile = batch.cos_arrival[rows]
                np.einsum("tdm,tdm->td", tile, tile, out=variate[rows])
            variate /= paths
            variate *= batch.speed_fraction
            variate *= batch.speed_fraction
            variate -= 1.0 / 6.0
        for k, (cfg, mob) in enumerate(scenarios):
            # ((V_max * fraction) / c) * f_c, then * cos psi, then * T_s: the
            # operation order keeps the bits of a per-scenario draw
            np.multiply(mob.max_velocity_mps, batch.speed_fraction, out=max_shift)
            max_shift /= cfg.wave_speed_mps
            max_shift *= cfg.carrier_frequency_hz
            for rows in tiles:
                offsets = batch.cos_arrival[rows] * max_shift[rows, :, None]
                offsets *= cfg.symbol_period_s
                kernel = sinc_squared(gaps[k][None, :, None], offsets)
                np.einsum("tdm->td", kernel, out=powers[rows])
            powers /= paths
            if not coherent:
                powers -= np.multiply(variate, coefficients[k], out=max_shift)
            yield k, slice(start, start + size), powers, weights
        start += size


# ===========================================================================
# estimators
# ===========================================================================

def _gaps(plan: TrialPlan, cfg: SystemConfig) -> np.ndarray:
    _check_target(plan.target_index, cfg)
    n = cfg.half_subcarriers
    indices = np.arange(-n, n + 1)
    return ((indices - plan.target_index) * cfg.spacing_symbol_product).astype(float)


def _estimates(samples, single: bool):
    estimates = [_reduce(values) for values in samples]
    return estimates[0] if single else estimates


def estimate_total_ici(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                       cell: CellConfig, mob: MobilityModel | list[MobilityModel]
                       ) -> Estimate | list[Estimate]:
    """Monte Carlo mean of the interference power collected on the target
    sub-carrier from the other 2N devices.

    Converges to :func:`analytic.finite_n_ici` at the same N.  Each trial
    sums Y - C + E[C], where Y is the trial's interference power,
    C = sum_j mean_m d_jm^2 / g_j^2 over the interferers j at whole-number
    gaps g_j and E[C] = (x^2 / 6) sum_j 1 / g_j^2, with x = V_max f_c T_s / c
    (:func:`_device_powers`).  Neither term needs a quadrature.  A static
    network gives exactly zero in every trial.  ``cfg`` and ``mob`` may be
    equal-length sequences of scenarios sharing ``half_subcarriers``; they
    are evaluated on one set of draws, and the result is a list of
    estimates, each equal to the estimate of its scenario alone.
    """
    scenarios, single = _group(cfg, mob)
    gaps = [_gaps(plan, c) for c, _ in scenarios]
    target_column = plan.target_index + scenarios[0][0].half_subcarriers
    samples = [np.empty(plan.trials) for _ in scenarios]
    for k, rows, powers, _ in _device_powers(plan, cell, scenarios, gaps, False):
        powers[:, target_column] = 0.0
        samples[k][rows] = powers.sum(axis=1) * scenarios[k][0].effective_power
    return _estimates(samples, single)


def estimate_useful_power(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                          mob: MobilityModel) -> Estimate:
    """Monte Carlo mean of the power the target device keeps on its own
    sub-carrier; converges to :func:`analytic.effective_useful_power`.

    Each trial gives Y - C + E[C], where Y = mean_m sinc^2(d_m) is the
    trial's useful fraction, C = -(pi^2 / 3) mean_m d_m^2 and
    E[C] = -(pi^2 / 3) x^2 / 6 (:func:`_device_powers`).  A static network
    gives exactly P_T in every trial.
    """
    _check_target(plan.target_index, cfg)
    samples = np.empty(plan.trials)
    for _, rows, powers, _ in _device_powers(plan, cell, [(cfg, mob)], [np.zeros(1)], False):
        samples[rows] = powers[:, 0] * cfg.effective_power
    return _reduce(samples)


def estimate_ergodic_capacity(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                              cell: CellConfig,
                              mob: MobilityModel | list[MobilityModel]
                              ) -> Estimate | list[Estimate]:
    """Mean of log2(1 + useful / (interference + noise)) over realizations
    of the whole cell, in bit/s/Hz.

    The per-device signal and interference powers are the powers of the
    coherent path sums, without the control variate of the power
    estimators: the SINR is not linear in them, so a variate of known mean
    would not keep the mean of the log.  Given the path Doppler shifts and
    the interferers' Exp(1) weights, the target's useful power is k_0 P_T
    times its own Exp(1) weight w, with k_0 its conditional power, and the
    mean over w is exact: E_w[log2(1 + w a)] = log2(e) e^(1/a) E1(1/a) with
    a = k_0 P_T / (interference + noise) (Lee 1990).  Each trial
    contributes that conditional mean in place of a draw of w, which removes
    most of the variance, and a static network gives the exact capacity in
    every trial.  The weights are drawn after the sampler's draws, the
    target's too, which is left unused, so every estimator reads the same
    speeds and arrival cosines.  Stays below
    :func:`analytic.capacity_upper` in expectation.  Requires positive
    noise power.  ``cfg`` and ``mob`` may be sequences, as for
    :func:`estimate_total_ici`.
    """
    scenarios, single = _group(cfg, mob)
    if any(c.noise_variance <= 0.0 for c, _ in scenarios):
        raise ValueError("noise_variance must be positive to estimate capacity")
    gaps = [_gaps(plan, c) for c, _ in scenarios]
    target_column = plan.target_index + scenarios[0][0].half_subcarriers
    samples = [np.empty(plan.trials) for _ in scenarios]
    for k, rows, powers, weights in _device_powers(plan, cell, scenarios, gaps, True):
        cfg_k = scenarios[k][0]
        useful = powers[:, target_column] * cfg_k.effective_power
        powers *= weights
        powers[:, target_column] = 0.0
        # 1 / a; a target that keeps no power gives inf and a capacity of 0
        inverse_sinr = powers.sum(axis=1) * cfg_k.effective_power
        inverse_sinr += cfg_k.noise_variance
        with np.errstate(divide="ignore"):
            inverse_sinr /= useful
        samples[k][rows] = exp1_scaled(inverse_sinr) * LOG2_E
    return _estimates(samples, single)


def symmetry_probe(index_a: int, index_b: int, plan: TrialPlan,
                   cfg: SystemConfig, cell: CellConfig,
                   mob: MobilityModel) -> tuple[Estimate, Estimate]:
    """Estimate the interference device ``index_b`` deposits on sub-carrier
    ``index_a`` and vice versa, from independent draws of the two devices.

    The channel law depends on the index pair only through its gap, so the
    two means must agree within Monte Carlo noise.  Each direction carries
    the control variate of :func:`estimate_total_ici` for its own gap g,
    (mean_m d_m^2 - x^2 / 6) / g^2, which the two share in law and in
    mean but not in draws.  Swapping the arguments
    returns the same pair of estimates in the other order, bit for bit.
    """
    _check_target(index_a, cfg)
    _check_target(index_b, cfg)
    if index_a == index_b:
        raise ValueError("symmetry_probe needs two distinct sub-carriers")
    low, high = sorted((index_a, index_b))
    q = cfg.spacing_symbol_product
    # devices drawn in index order: column 0 is the source on sub-carrier
    # ``low``, seen from ``high``, and column 1 the reverse
    gaps = np.array([float((low - high) * q), float((high - low) * q)])
    onto = {low: np.empty(plan.trials), high: np.empty(plan.trials)}
    for _, rows, powers, _ in _device_powers(plan, cell, [(cfg, mob)], [gaps], False):
        onto[high][rows] = powers[:, 0] * cfg.effective_power
        onto[low][rows] = powers[:, 1] * cfg.effective_power
    return _reduce(onto[index_a]), _reduce(onto[index_b])
