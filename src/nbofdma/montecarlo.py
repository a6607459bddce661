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
from .numerics import row_tiles, sinc, sinc_squared
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


def _device_powers(plan: TrialPlan, cell: CellConfig, scenarios, gaps, coherent: bool):
    """Yield ``(k, rows, powers)``: the per-(trial, device) power on the
    target sub-carrier of scenario k for the trials ``rows``, in a buffer
    the next step overwrites.

    Each block is drawn once, "coherent" Exp(1) weights right after the
    sampler, and evaluated for each scenario in turn, so no value depends on
    the group.  The mean over paths of sinc(gap + f_D * T_s)^2 is a device's
    expected power given its path Doppler shifts; "coherent" multiplies it
    by the weight, the law of the squared complex path sum.  ``gaps[k]``
    holds scenario k's integer sub-carrier distances scaled by T_s * df, so
    a static network cancels exactly.  Each row's path sum is taken within
    its tile, so the tile size changes no value.
    """
    devices = len(gaps[0])
    paths = cell.paths_per_device
    buffer = np.empty((2, min(plan.trials, BLOCK_TRIALS), devices))
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        batch = sample_cell_batch(rng, size, devices, cell)
        weights = rng.standard_exponential((size, devices)) if coherent else None
        powers, max_shift = buffer[0, :size], buffer[1, :size]
        tiles = row_tiles(size, devices * paths)
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
            if coherent:
                powers *= weights
            yield k, slice(start, start + size), powers
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

    Converges to :func:`analytic.finite_n_ici` at the same N.  A static
    network gives exactly zero in every trial.  ``cfg`` and ``mob`` may be
    equal-length sequences of scenarios sharing ``half_subcarriers``; they
    are evaluated on one set of draws, and the result is a list of
    estimates, each equal to the estimate of its scenario alone.
    """
    scenarios, single = _group(cfg, mob)
    gaps = [_gaps(plan, c) for c, _ in scenarios]
    target_column = plan.target_index + scenarios[0][0].half_subcarriers
    samples = [np.empty(plan.trials) for _ in scenarios]
    for k, rows, powers in _device_powers(plan, cell, scenarios, gaps,
                                          plan.power_mode == "coherent"):
        powers[:, target_column] = 0.0
        samples[k][rows] = powers.sum(axis=1) * scenarios[k][0].effective_power
    return _estimates(samples, single)


def estimate_useful_power(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                          mob: MobilityModel) -> Estimate:
    """Monte Carlo mean of the power the target device keeps on its own
    sub-carrier; converges to :func:`analytic.effective_useful_power`."""
    _check_target(plan.target_index, cfg)
    samples = np.empty(plan.trials)
    for _, rows, powers in _device_powers(plan, cell, [(cfg, mob)], [np.zeros(1)],
                                          plan.power_mode == "coherent"):
        samples[rows] = powers[:, 0] * cfg.effective_power
    return _reduce(samples)


def estimate_ergodic_capacity(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                              cell: CellConfig,
                              mob: MobilityModel | list[MobilityModel]
                              ) -> Estimate | list[Estimate]:
    """Mean of log2(1 + useful / (interference + noise)) over realizations
    of the whole cell, in bit/s/Hz.

    The per-device signal and interference powers are the powers of the
    coherent path sums, whatever ``plan.power_mode`` says:
    the instantaneous SINR is a property of the received signal, not of the
    variance-reduced accounting the power estimators may use.  Stays below
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
    for k, rows, powers in _device_powers(plan, cell, scenarios, gaps, True):
        cfg_k = scenarios[k][0]
        useful = powers[:, target_column] * cfg_k.effective_power
        interference = (powers.sum(axis=1) - powers[:, target_column]) \
            * cfg_k.effective_power
        samples[k][rows] = np.log2(1.0 + useful / (interference + cfg_k.noise_variance))
    return _estimates(samples, single)


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
    # devices drawn in index order: column 0 is the source on sub-carrier
    # ``low``, seen from ``high``, and column 1 the reverse
    gaps = np.array([float((low - high) * q), float((high - low) * q)])
    onto = {low: np.empty(plan.trials), high: np.empty(plan.trials)}
    for _, rows, powers in _device_powers(plan, cell, [(cfg, mob)], [gaps], False):
        onto[high][rows] = powers[:, 0] * cfg.effective_power
        onto[low][rows] = powers[:, 1] * cfg.effective_power
    return _reduce(onto[index_a]), _reduce(onto[index_b])
