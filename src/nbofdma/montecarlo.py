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
from .numerics import (_FADED_NODES, exp1_scaled, exp1_scaled_faded, row_tiles, sinc,
                       sinc_squared)
from .sysmodel import (CellConfig, MobilityModel, SystemConfig, _whole_number,
                       sample_cell_batch, subcarrier_gaps)

__all__ = [
    "TrialPlan",
    "Estimate",
    "block_bytes",
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
    Exp(1) draw per device, and averages in closed form the weights of the
    target and of its neighbours at index gap +-1, whose draws it leaves
    unused.  Every estimator subtracts control variates of the block's
    scenario-free path moments mean_m z_m^p, zero-mean reductions times
    scalars fixed by the scenario (:func:`_device_powers`), so each stays
    exactly unbiased: the power estimators the kernel's Taylor series
    through d^6, the capacity estimator its d^2 term.
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


# x = V_max f_c T_s / c above which the Taylor variates add variance.  The
# truncated series tracks the kernel only while |d| = x |z| stays well
# inside the range where sin^2(pi d) is close to its terms through d^6.
# At 4096 trials the variance without the variates over that with them is
# 2.6-3.5 at x = 1.1 on the centre and falls through 1 at about 1.18 (1 to
# 16 paths).  Off the centre it falls through 1 at 0.77-0.81 for a lone
# interferer at gap 5 and for the sum over the interferers at q = T_s df of
# 2 to 16, whatever the path count, and is 1.9-3.6 there at x = 0.75; only
# the sum at q = 1, which its nearest interferers dominate, would gain
# up to x = 1.1.
_VARIATE_MAX_X_CENTRE = 1.1
_VARIATE_MAX_X_OFF_CENTRE = 0.75
# x above which the capacity variate adds variance.  At 4096 trials on the
# 500 Hz and 2500 Hz fig4 curves the variance without the variate over that
# with it falls through 1 at x of about 1.15 at 20 dB SNR, 0.97 at 0 dB and
# 0.93 at -10 dB: the more the noise dominates, the more the capacity
# follows the useful power alone, whose d^2 term stops helping at 0.93.  At
# x = 0.9 the ratio is 2.8-2.9 at 20 dB and 1.14-1.18 at -10 dB.  Averaging
# the +-1 neighbours' fading moved the 20 dB crossing from 1.18 and left
# the -10 dB one, which sets the cut-off, where it was.
_VARIATE_MAX_X_CAPACITY = 0.9

# The power estimators' control variates are the Taylor series of the
# kernel in the path offset d = x z through d^6.  For a whole-number gap
# g = n q, sinc^2(g + d) = sin^2(pi d) / (pi^2 (g + d)^2) with
# sin^2(pi d) / pi^2 = sum_k s_k d^(2k) and
# (g + d)^-2 = sum_m (m + 1) (-d)^m g^-(m+2), so the coefficient of d^p is
# a_p(g) = sum_(2k+m=p, k>=1) s_k (m + 1) (-1)^m g^-(m+2); on the centre,
# sinc^2(d) = sum_k s_k d^(2k-2) gives a_p(0) = s_(p/2+1) for even p and 0
# for odd p.  Term (p, e) of a_p is its part in g^-e, e = m + 2 off the
# centre and e = 0 on it, so a_p(n q) = sum_e c_pe n^-e q^-e.
_ORDERS = (2, 3, 4, 5, 6)
_TERMS = tuple((p, e) for p in _ORDERS for e in range(p % 2, p + 1, 2) if e != 1)
_TERM_ORDERS, _TERM_EXPONENTS = np.array(_TERMS).T
# E[z^p] = E[u^p] E[cos^p psi] = C(p, p/2) / (2^p (p + 1)) for even p and 0
# for odd p: u uniform on [0, 1), cos psi of the arcsine law
_MOMENT_MEANS = np.array([math.comb(p, p // 2) / (2 ** p * (p + 1)) if p % 2 == 0 else 0.0
                          for p in _ORDERS])


def _block_slots(coherent: bool) -> int:
    """(trials, devices) slots of the buffer of :func:`_device_powers`: the
    powers and the path moments p = 2..6, or for the capacity ("coherent")
    the bracket p = 2 alone."""
    return 2 if coherent else 1 + len(_ORDERS)


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array of ``shape`` whose data starts on a
    64-byte boundary.  numpy's allocations are only 16-byte aligned, and on
    a 2-core AMD EPYC a kernel workspace at 16 mod 32 bytes made a fig4
    sweep about 14% slower than one at 0 mod 32, so the speed followed
    where the heap happened to place it."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def block_bytes(devices: int, paths: int, coherent: bool) -> int:
    """Bytes of the arrays :func:`_device_powers` holds at once for
    ``devices`` devices of ``paths`` paths sharing one gap vector: a block's
    draws and the (trials, devices) slots of its buffer; one more slot for
    the sampler's speed fractions, or for the capacity ("coherent") two,
    since the caller still holds the last block's Exp(1) weights while the
    next block's speeds and then weights are drawn; and eight tiles: the
    kernel's four workspace tiles and gap tile, the sampler's two scratch
    tiles, and one for the kernel's centre mask and the per-device
    vectors.  The capacity's fading average
    (:func:`numerics.exp1_scaled_faded`) forms its two (trials, nodes)
    arrays after the sampler has let go of its slot and two tiles, so the
    larger of the two is counted."""
    slots = _block_slots(coherent) + (1 if coherent else 0)
    tile = row_tiles(BLOCK_TRIALS, devices * paths)[0].stop * devices * paths
    sampler = BLOCK_TRIALS * devices + 2 * tile
    faded = 2 * BLOCK_TRIALS * _FADED_NODES.size if coherent else 0
    return 8 * (BLOCK_TRIALS * devices * (paths + slots) + 6 * tile + max(sampler, faded))


def _sin_squared_coefficient(k: int) -> float:
    """s_k = (-1)^(k+1) 2^(2k-1) pi^(2k-2) / (2k)!, the coefficient of
    d^(2k) in sin^2(pi d) / pi^2: s_1 = 1, s_2 = -pi^2 / 3."""
    return (-1) ** (k + 1) * 2 ** (2 * k - 1) * math.pi ** (2 * k - 2) / math.factorial(2 * k)


def _taylor_table(index_gaps: np.ndarray) -> np.ndarray:
    """(terms, devices): c_pe n_j^-e for each term (p, e) of :data:`_TERMS`
    and each device j at whole-number index gap n_j, so that
    a_p(n_j q) = sum_e table[(p, e), j] q^-e.  The centre's terms (e = 0)
    are 0 off it and the others 0 on it.  The (2, 2) row is 1 / n_j^2."""
    table = np.zeros((len(_TERMS), index_gaps.size))
    off = index_gaps != 0.0
    for row, (p, e) in zip(table, _TERMS):
        if e == 0:
            row[~off] = _sin_squared_coefficient(p // 2 + 1)
        else:
            m = e - 2
            row[off] = _sin_squared_coefficient((p - m) // 2) * (m + 1) * (-1) ** m \
                / index_gaps[off] ** e
    return table


def _term_reductions(moments: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(trials, terms): sum_j table[(p, e), j] (mean_m z_jm^p - E[z^p]) per
    trial, from the block's path moments (:func:`_device_powers`); each
    column has mean zero.  They do not depend on the scenario."""
    reductions = np.empty((moments.shape[1], len(_TERMS)))
    for p, mean in zip(_ORDERS, _MOMENT_MEANS):
        terms = _TERM_ORDERS == p
        reductions[:, terms] = (moments[p - 2] - mean) @ table[terms].T
    return reductions


def _variate_scalars(cfg: SystemConfig, mob: MobilityModel, centre: bool,
                     max_x: float) -> np.ndarray:
    """x^p q^-e for each term (p, e) of the centre (e = 0) or of the
    interferers (e >= 2), 0 for the other terms, with
    x = V_max f_c T_s / c and q = T_s df: what a scenario multiplies
    :func:`_term_reductions` by.  All 0 above ``max_x``, where the variates
    would add variance, and for a static network."""
    x = cfg.doppler_span(mob.max_velocity_mps)
    if not x <= max_x:
        return np.zeros(len(_TERMS))
    own = (_TERM_EXPONENTS == 0) == centre
    return np.where(own, x ** _TERM_ORDERS
                    * (1.0 / cfg.spacing_symbol_product) ** _TERM_EXPONENTS, 0.0)


def _interference_variate(bracket: np.ndarray, inverse_squares: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    """V_I = sum_j w_j bracket_j / n_j^2 - (1/6) sum_j 1 / n_j^2 per trial,
    over the interferers j (``inverse_squares`` is 0 at the target).  Mean
    zero: E[bracket] = 1/6, E[w] = 1 and the weights are independent of the
    Doppler draws."""
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
    They are the slopes of the target-only average; the estimator also
    averages the +-1 neighbours' weights, and V_I takes those at their
    mean 1, but the slopes are not re-derived for that.  They depend on the
    scenario alone, never on the draws.  Both are 0 for
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


def _path_moments(shift: np.ndarray, tiles, moments: np.ndarray, scratch: np.ndarray):
    """moments[p - 2] = mean_m z_m^p of each (trial, device) of the block
    ``shift``, for as many orders from p = 2 up as ``moments`` holds, tile
    by tile in ``scratch``, so that no block-sized z^p is formed."""
    for rows in tiles:
        z = shift[rows]
        np.einsum("tdm,tdm->td", z, z, out=moments[0, rows])
        if len(moments) > 1:
            power = np.multiply(z, z, out=scratch[:rows.stop - rows.start])
            for moment in moments[1:]:
                power *= z
                np.einsum("tdm->td", power, out=moment[rows])
    moments /= shift.shape[2]


def _device_powers(plan: TrialPlan, cell: CellConfig, scenarios, gaps, coherent: bool):
    """Yield ``(k, rows, powers, moments, weights)``: the per-(trial,
    device) power on the target sub-carrier of scenario k for the trials
    ``rows``, in a buffer the next step overwrites; the block's per-device
    path moments mean_m z_m^p, p = 2..6 in ``moments[p - 2]``, or the
    bracket p = 2 alone ("coherent"); and the block's Exp(1) weights
    ("coherent") or None.  The arrays held at once are those
    :func:`block_bytes` counts.

    Each block is drawn once, the weights right after the sampler, and
    evaluated for each scenario in turn, so no value depends on the group.
    Path m of a device shifts by d_m = f_D,m T_s = x z_m, with
    x = V_max f_c T_s / c the scenario's span
    (:meth:`SystemConfig.doppler_span`) and z_m = u cos(psi_m) the
    scenario-free shift, u the speed fraction.  The block draws z once
    (:func:`sysmodel.sample_cell_batch`, the one place that forms it), takes
    the moments from it, and each scenario scales it by its own x.  Since
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
    gap tile per distinct gap vector, so a tile allocates no array.  The
    higher moments are taken tile by tile in the offsets tile, before any
    scenario needs it, so no block-sized z^p is ever formed.

    Every estimator subtracts control variates (Glasserman 2003, section
    4.1) built from the moments.  x^p times moment p is mean_m d_m^p, of
    mean x^p E[z^p] (:data:`_MOMENT_MEANS`; E[z^2] = 1/6).  The power
    estimators subtract the kernel's Taylor series through d^6: the block's
    linear reductions of the centred moments, one per term of the
    coefficients a_p (:func:`_term_reductions`, :func:`_taylor_table`),
    times scalars x^p q^-e fixed by the scenario (:func:`_variate_scalars`).
    The capacity estimator subtracts the d^2 term alone, V_I
    (:func:`_interference_variate`, with the +-1 neighbours' weights at
    their mean 1) and V_0 = the target's bracket less 1/6, times the slopes
    of :func:`_capacity_variate_coefficients`.  That keeps every
    expectation and cancels most of the spread while the series converges
    well; a static network subtracts exactly 0.
    """
    devices = len(gaps[0])
    paths = cell.paths_per_device
    spans = [cfg.doppler_span(mob.max_velocity_mps) for cfg, mob in scenarios]
    buffer = np.empty((_block_slots(coherent), min(plan.trials, BLOCK_TRIALS), devices))
    # the kernel's workspace, sized to the largest tile (the first of the
    # first block); the gaps come as full tiles because numpy adds a row
    # broadcast over the short path axis about three times slower
    tile_shape = (row_tiles(buffer.shape[1], devices * paths)[0].stop, devices, paths)
    workspace = _aligned_empty((4,) + tile_shape)
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
        powers, moments = buffer[0, :size], buffer[1:, :size]
        tiles = row_tiles(size, devices * paths)
        _path_moments(shift, tiles, moments, offsets)
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
            yield k, slice(start, start + size), powers, moments, weights
        start += size
        del shift  # so that a block's draws never overlap the next one's


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
    sums the interferers' powers less the zero-mean Taylor variates
    sum_p x^p sum_j a_p(g_j) (mean_m z_jm^p - E[z^p]) over the interferers,
    p = 2..6 (:func:`_device_powers`); neither term needs a quadrature.  A
    static network gives exactly zero in every trial.
    ``cfg`` and ``mob`` may be equal-length sequences of scenarios sharing
    ``half_subcarriers``; they are evaluated on one set of draws, and the
    result is a list of estimates, each equal to the estimate of its
    scenario alone.
    """
    scenarios, single = _group(cfg, mob)
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    target_column = plan.target_index + n
    table = _taylor_table(subcarrier_gaps(plan.target_index, n))
    scalars = [_variate_scalars(c, m, False, _VARIATE_MAX_X_OFF_CENTRE) for c, m in scenarios]
    samples = [np.empty(plan.trials) for _ in scenarios]
    for k, rows, powers, moments, _ in _device_powers(plan, cell, scenarios, gaps, False):
        if k == 0:
            reductions = _term_reductions(moments, table)
        powers[:, target_column] = 0.0
        samples[k][rows] = (powers.sum(axis=1) - reductions @ scalars[k]) \
            * scenarios[k][0].effective_power
    return _estimates(samples, single)


def estimate_useful_power(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                          mob: MobilityModel) -> Estimate:
    """Monte Carlo mean of the power the target device keeps on its own
    sub-carrier; converges to :func:`analytic.effective_useful_power`.

    Each trial gives mean_m sinc^2(d_m) less the zero-mean Taylor variates
    sum_p x^p a_p(0) (mean_m z_m^p - E[z^p]), p = 2, 4, 6
    (:func:`_device_powers`).  A static network gives exactly P_T in every
    trial.
    """
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers)
    centre = gaps[gaps == 0]
    table = _taylor_table(centre)
    scalars = _variate_scalars(cfg, mob, True, _VARIATE_MAX_X_CENTRE)
    samples = np.empty(plan.trials)
    for _, rows, powers, moments, _ in _device_powers(plan, cell, [(cfg, mob)], [centre], False):
        samples[rows] = (powers[:, 0] - _term_reductions(moments, table) @ scalars) \
            * cfg.effective_power
    return _reduce(samples)


def estimate_ergodic_capacity(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                              cell: CellConfig,
                              mob: MobilityModel | list[MobilityModel]
                              ) -> Estimate | list[Estimate]:
    """Mean of log2(1 + useful / (interference + noise)) over realizations
    of the whole cell, in bit/s/Hz.

    The per-device signal and interference powers are the powers of the
    coherent path sums.  Given the path Doppler shifts, device j's power is
    k_j P_T times its own Exp(1) weight w_j, with k_j its conditional power.
    Each trial averages exactly over three of the weights, the target's and
    those of its neighbours at index gap +-1 (one at the band edge, none at
    N = 0), and keeps the other interferers' drawn weights: with R their
    weighted powers plus the noise, a = k_0 P_T / R and b_j = k_j P_T / R,
    the trial contributes
    log2(e) int_0^inf e^-t / ((t + 1/a) prod_j (1 + t b_j)) dt
    (Hamdi 2010, :func:`numerics.exp1_scaled_faded`, by a fixed rule),
    which for b_j = 0 is Lee's (1990) log2(e) e^(1/a) E1(1/a).  That
    removes most of the variance: the nearest interferers dominate it.  The
    weights are drawn after the sampler's draws, the averaged ones too,
    which are left unused, so every estimator reads the same speeds and
    arrival cosines.

    Each trial then subtracts c_I V_I + c_0 V_0 (:func:`_device_powers`),
    V_I weighted by the interferers' drawn weights and by 1, their mean, at
    index gap +-1, with c_I, c_0 the slopes of the capacity at the mean
    powers (:func:`_capacity_variate_coefficients`).  The SINR is not
    linear in the powers, but a zero-mean term times a coefficient fixed by
    the scenario keeps the estimate exactly unbiased.  A static network
    subtracts nothing, leaves its neighbours no power to average, and gives
    the exact capacity in every trial.  The log is convex in the
    interference, so the estimate can exceed
    :func:`analytic.capacity_upper`, which evaluates it at the mean powers;
    at one path per device it does.
    Requires positive noise power.  ``cfg`` and ``mob`` may be sequences,
    as for :func:`estimate_total_ici`.
    """
    scenarios, single = _group(cfg, mob)
    if any(c.noise_variance <= 0.0 for c, _ in scenarios):
        raise ValueError("noise_variance must be positive to estimate capacity")
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    target_column = plan.target_index + n
    # the target and its neighbours at index gap +-1 that the band holds
    averaged = [c for c in range(target_column - 1, target_column + 2) if 0 <= c <= 2 * n]
    neighbours = [c for c in averaged if c != target_column]
    inverse_squares = _taylor_table(subcarrier_gaps(plan.target_index, n))[_TERMS.index((2, 2))]
    c_interference, c_useful = _capacity_variate_coefficients(inverse_squares, scenarios)
    samples = [np.empty(plan.trials) for _ in scenarios]
    for k, rows, powers, (bracket,), weights in _device_powers(plan, cell, scenarios, gaps, True):
        if k == 0:
            # the neighbours' weights are averaged exactly: 1, their mean, in V_I
            weights[:, neighbours] = 1.0
            v_interference = _interference_variate(bracket, inverse_squares, weights)
            v_useful = bracket[:, target_column] - 1.0 / 6.0
        cfg_k = scenarios[k][0]
        useful = powers[:, target_column] * cfg_k.effective_power
        faded = powers[:, neighbours] * cfg_k.effective_power
        powers *= weights
        powers[:, averaged] = 0.0
        # the rest R of the interference plus the noise; 1 / a = R / (k_0 P_T),
        # inf for a target that keeps no power, which gives a capacity of 0
        rest = powers.sum(axis=1) * cfg_k.effective_power
        rest += cfg_k.noise_variance
        faded /= rest[:, None]
        with np.errstate(divide="ignore"):
            rest /= useful
        samples[k][rows] = exp1_scaled_faded(rest, faded) * LOG2_E \
            - c_interference[k] * v_interference - c_useful[k] * v_useful
    return _estimates(samples, single)


def symmetry_probe(index_a: int, index_b: int, plan: TrialPlan,
                   cfg: SystemConfig, cell: CellConfig,
                   mob: MobilityModel) -> tuple[Estimate, Estimate]:
    """Estimate the interference device ``index_b`` deposits on sub-carrier
    ``index_a`` and vice versa, from independent draws of the two devices.

    The channel law depends on the index pair only through its gap, so the
    two means must agree within Monte Carlo noise.  Each direction subtracts
    the Taylor variates of :func:`estimate_total_ici` for its one
    interferer, at gap -g or g, from its own device's moments, which the
    two share in law and in mean but not in draws.  Swapping the arguments
    returns the same pair of estimates in the other order, bit for bit.
    """
    # a's index gaps less b's are b - a at every entry; forming them checks both
    index_gap = abs(subcarrier_gaps(index_a, cfg.half_subcarriers)[0]
                    - subcarrier_gaps(index_b, cfg.half_subcarriers)[0])
    if index_gap == 0.0:
        raise ValueError("symmetry_probe needs two distinct sub-carriers")
    low, high = sorted((index_a, index_b))
    index_gaps = np.array([-index_gap, index_gap])
    table = _taylor_table(index_gaps)
    scalars = _variate_scalars(cfg, mob, False, _VARIATE_MAX_X_OFF_CENTRE)
    # devices drawn in index order: column 0 is the source on sub-carrier
    # ``low``, seen from ``high``, and column 1 the reverse
    onto = {low: np.empty(plan.trials), high: np.empty(plan.trials)}
    for _, rows, powers, moments, _ in _device_powers(
            plan, cell, [(cfg, mob)], [index_gaps * cfg.spacing_symbol_product], False):
        for column in (0, 1):
            own = slice(column, column + 1)
            powers[:, column] -= _term_reductions(moments[..., own], table[:, own]) @ scalars
        onto[high][rows] = powers[:, 0] * cfg.effective_power
        onto[low][rows] = powers[:, 1] * cfg.effective_power
    return _reduce(onto[index_a]), _reduce(onto[index_b])
