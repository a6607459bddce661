"""Seeded Monte Carlo estimators that validate the closed-form analytics.

Randomness policy: trials are grouped in fixed blocks of 256, and block k of
a run draws from ``SeedSequence(entropy=seed, spawn_key=(k,))``.  Draws
inside a block happen in one fixed array order.  Estimates are therefore
bit-reproducible for a given (plan, configs) and do not depend on how blocks
might be spread over workers; the reduction over trials is a single ordered
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import row_tiles, sinc, sinc_squared
from .sysmodel import CellConfig, MobilityModel, SystemConfig, sample_cell_batch

__all__ = [
    "TrialPlan",
    "Estimate",
    "individual_ici_power",
    "estimate_total_ici",
    "estimate_useful_power",
    "estimate_ergodic_capacity",
    "symmetry_probe",
]

BLOCK_TRIALS = 256  # changing this changes every random stream

_POWER_MODES = ("incoherent", "coherent")


@dataclass(frozen=True)
class TrialPlan:
    """How many channel realizations to draw and from which seed.

    ``power_mode`` selects how the power estimators turn a device's path
    Doppler shifts into a per-realization power.  Given the shifts, path m
    demodulates to an independent circular Gaussian amplitude of variance
    k_m^2 / M, with k_m = sinc(gap + f_D,m * T_s).  "incoherent" takes the
    conditional mean of the per-path power sum, mean_m k_m^2 (the definition
    matched by the analytics, and the lower-variance choice); "coherent"
    draws the power of the complex path sum, which is mean_m k_m^2 times one
    Exp(1) draw per device.  Both agree in expectation.  The capacity
    estimator always works on the coherent power and ignores this knob.
    """

    trials: int
    seed: int = 0
    target_index: int = 0
    power_mode: str = "incoherent"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.power_mode not in _POWER_MODES:
            raise ValueError(f"power_mode must be one of {_POWER_MODES}")


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


def _device_powers(rng, batch, gaps_units, cfg: SystemConfig, power_mode: str):
    """Per-(trial, device) received power on the target sub-carrier.

    The mean over paths of sinc(gap + f_D * T_s)^2 is the device's expected
    power given its path Doppler shifts; "coherent" multiplies it by one
    Exp(1) draw from ``rng`` per device, the law of the squared complex path
    sum.  ``gaps_units`` holds the integer sub-carrier distances scaled by
    T_s * df, so a static network cancels exactly, not to rounding noise.
    The kernel runs on tiles of trial rows and each row's path sum is taken
    within its tile, so the tile size changes no value.
    """
    trials, devices, paths = batch.doppler_hz.shape
    powers = np.empty((trials, devices))
    for rows in row_tiles(trials, devices * paths):
        offsets = batch.doppler_hz[rows] * cfg.symbol_period_s
        kernel = sinc_squared(gaps_units[None, :, None], offsets)
        np.einsum("tdm->td", kernel, out=powers[rows])
    powers /= paths
    if power_mode == "coherent":
        powers *= rng.standard_exponential(powers.shape)
    return powers


# ===========================================================================
# estimators
# ===========================================================================

def individual_ici_power(gain_power: float, frequency_gap_hz: float,
                         doppler_hz: float, cfg: SystemConfig) -> float:
    """Power one path deposits on a sub-carrier ``frequency_gap_hz`` away:
    |a|^2 * sinc((gap + doppler) * T_s)^2 * P_T."""
    if gain_power < 0.0:
        raise ValueError("gain_power must be non-negative")
    s = sinc((frequency_gap_hz + doppler_hz) * cfg.symbol_period_s)
    return gain_power * s * s * cfg.effective_power


def _ici_samples(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                 mob: MobilityModel) -> np.ndarray:
    _check_target(plan.target_index, cfg)
    n = cfg.half_subcarriers
    q = cfg.spacing_symbol_product
    indices = np.arange(-n, n + 1)
    gaps = ((indices - plan.target_index) * q).astype(float)
    target_column = plan.target_index + n
    out = np.empty(plan.trials)
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        batch = sample_cell_batch(rng, size, 2 * n + 1, cell, mob, cfg)
        per_device = _device_powers(rng, batch, gaps, cfg, plan.power_mode)
        per_device[:, target_column] = 0.0
        out[start:start + size] = per_device.sum(axis=1) * cfg.effective_power
        start += size
    return out


def estimate_total_ici(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                       mob: MobilityModel) -> Estimate:
    """Monte Carlo mean of the interference power collected on the target
    sub-carrier from the other 2N devices.

    Converges to :func:`analytic.finite_n_ici` at the same N.  A static
    network gives exactly zero in every trial.
    """
    return _reduce(_ici_samples(plan, cfg, cell, mob))


def estimate_useful_power(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                          mob: MobilityModel) -> Estimate:
    """Monte Carlo mean of the power the target device keeps on its own
    sub-carrier; converges to :func:`analytic.effective_useful_power`."""
    _check_target(plan.target_index, cfg)
    out = np.empty(plan.trials)
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        batch = sample_cell_batch(rng, size, 1, cell, mob, cfg)
        per_device = _device_powers(rng, batch, np.zeros(1), cfg, plan.power_mode)
        out[start:start + size] = per_device[:, 0] * cfg.effective_power
        start += size
    return _reduce(out)


def estimate_ergodic_capacity(plan: TrialPlan, cfg: SystemConfig,
                              cell: CellConfig, mob: MobilityModel) -> Estimate:
    """Mean of log2(1 + useful / (interference + noise)) over realizations
    of the whole cell, in bit/s/Hz.

    The per-device signal and interference powers are the powers of the
    coherent path sums, whatever ``plan.power_mode`` says:
    the instantaneous SINR is a property of the received signal, not of the
    variance-reduced accounting the power estimators may use.  Stays below
    :func:`analytic.capacity_upper` in expectation.  Requires positive
    noise power.
    """
    if cfg.noise_variance <= 0.0:
        raise ValueError("noise_variance must be positive to estimate capacity")
    _check_target(plan.target_index, cfg)
    n = cfg.half_subcarriers
    q = cfg.spacing_symbol_product
    indices = np.arange(-n, n + 1)
    gaps = ((indices - plan.target_index) * q).astype(float)
    target_column = plan.target_index + n
    out = np.empty(plan.trials)
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        batch = sample_cell_batch(rng, size, 2 * n + 1, cell, mob, cfg)
        per_device = _device_powers(rng, batch, gaps, cfg, "coherent")
        useful = per_device[:, target_column] * cfg.effective_power
        interference = (per_device.sum(axis=1) - per_device[:, target_column]) \
            * cfg.effective_power
        out[start:start + size] = np.log2(1.0 + useful / (interference + cfg.noise_variance))
        start += size
    return _reduce(out)


def symmetry_probe(index_a: int, index_b: int, plan: TrialPlan,
                   cfg: SystemConfig, cell: CellConfig,
                   mob: MobilityModel) -> tuple[Estimate, Estimate]:
    """Estimate the interference device ``index_b`` deposits on sub-carrier
    ``index_a`` and vice versa, from independent draws of the two devices.

    The channel law depends on the index pair only through its gap, so the
    two means must agree within Monte Carlo noise.  Swapping the arguments
    returns the same pair of estimates in the other order, bit for bit.
    """
    _check_target(index_a, cfg)
    _check_target(index_b, cfg)
    if index_a == index_b:
        raise ValueError("symmetry_probe needs two distinct sub-carriers")
    low, high = sorted((index_a, index_b))
    q = cfg.spacing_symbol_product
    onto = {index_a: np.empty(plan.trials), index_b: np.empty(plan.trials)}
    column = {low: 0, high: 1}  # devices drawn in index order
    paths = cell.paths_per_device
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        batch = sample_cell_batch(rng, size, 2, cell, mob, cfg)
        doppler_ts = batch.doppler_hz * cfg.symbol_period_s
        for victim, source in ((index_a, index_b), (index_b, index_a)):
            gap = float((source - victim) * q)
            kernel = sinc_squared(gap, doppler_ts[:, column[source], :])
            powers = np.einsum("tm->t", kernel) / paths
            onto[victim][start:start + size] = powers * cfg.effective_power
        start += size
    return _reduce(onto[index_a]), _reduce(onto[index_b])
