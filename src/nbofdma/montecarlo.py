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
from .numerics import _FADED_NODES, exp1_scaled_faded, row_tiles, sinc, sinc_squared
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
    estimator draws the farther interferers' coherent powers, mean_m k_m^2
    times one Exp(1) draw per device, and averages in closed form the
    weights of the target and of its neighbours at index gap +-1, which it
    never draws.  Every estimator subtracts zero-mean control variates of
    the block's scenario-free path moments, so each stays exactly unbiased:
    the power estimators the kernel's Taylor series through d^6 times
    scalars fixed by the scenario (:func:`_device_powers`), the capacity
    estimator up to 23 columns times coefficients cross-fitted to the draws
    (:func:`_capacity_columns`, :func:`_cross_fitted`).
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
_FOLDS = 8  # the capacity's fit puts trial i in fold i mod 8
_CAPACITY_COLUMNS = 3 * len(_ORDERS) + 8  # the most columns of V (:func:`_capacity_columns`)


def _block_slots(coherent: bool) -> int:
    """(trials, devices) slots of the buffer of :func:`_device_powers`: the
    powers and the path moments p = 2..6, or for the capacity ("coherent")
    the powers, the bracket p = 2 and the Exp(1) weights."""
    return 3 if coherent else 1 + len(_ORDERS)


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
    the sampler's speed fractions, which the capacity's ("coherent") Exp(1)
    weights take as drawn; and eight tiles: the kernel's four workspace
    tiles and gap tile, the sampler's two scratch tiles, and one for the
    kernel's centre mask and the per-device vectors.  The capacity's fading
    average (:func:`numerics.exp1_scaled_faded`) forms its three (trials,
    nodes) arrays after the sampler has let go of its slot and two tiles,
    so the larger of the two is counted, and its fit a fixed 88 doubles a
    trial: the near moments, the far quartic sum, [1, V] as columns and
    stacked, the fold sums and the scenario loop's per-trial vectors."""
    tile = row_tiles(BLOCK_TRIALS, devices * paths)[0].stop * devices * paths
    sampler = BLOCK_TRIALS * devices + 2 * tile
    faded = 3 * BLOCK_TRIALS * _FADED_NODES.size if coherent else 0
    fit = BLOCK_TRIALS * (3 * len(_ORDERS) + 1 + 3 * (1 + _CAPACITY_COLUMNS)) if coherent else 0
    return 8 * (BLOCK_TRIALS * devices * (paths + _block_slots(coherent)) + 6 * tile
                + max(sampler, faded) + fit)


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


def _path_moments(shift: np.ndarray, tiles, moments: np.ndarray, scratch: np.ndarray,
                  quartic=None):
    """moments[p - 2] = mean_m z_m^p of each (trial, device) of the block
    ``shift``, for as many orders from p = 2 up as ``moments`` holds, tile
    by tile in ``scratch``, so that no block-sized z^p is formed.  With the
    bracket alone and ``quartic`` = (weights, out), also
    out = sum_j weights_j sum_m z_jm^4 per trial."""
    for rows in tiles:
        z = shift[rows]
        np.einsum("tdm,tdm->td", z, z, out=moments[0, rows])
        if len(moments) > 1 or quartic:
            power = np.multiply(z, z, out=scratch[:rows.stop - rows.start, :z.shape[1]])
            for moment in moments[1:]:
                power *= z
                np.einsum("tdm->td", power, out=moment[rows])
            if quartic:
                power *= power
                np.einsum("tdm,d->t", power, quartic[0], out=quartic[1][rows])
    moments /= shift.shape[2]


def _device_powers(plan: TrialPlan, cell: CellConfig, scenarios, gaps, coherent: bool):
    """Yield ``(k, rows, powers, moments, weights)``: the per-(trial,
    device) power on the target sub-carrier of scenario k for the trials
    ``rows``, in a buffer the next step overwrites; the block's per-device
    path moments mean_m z_m^p, p = 2..6 in ``moments[p - 2]``, or for the
    capacity ("coherent") the block's columns [1, V] of its control
    variates (:func:`_capacity_columns`); and the block's Exp(1) weights
    ("coherent"; 0 for the target and its neighbours at index gap +-1, the
    near devices, whose fading the capacity averages and which draw none)
    or None.  The arrays held at once are those :func:`block_bytes` counts.

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
    moments are taken tile by tile in the offsets tile, before any scenario
    needs it, so no block-sized z^p is ever formed.

    Every estimator subtracts control variates (Glasserman 2003, section
    4.1) built from the moments.  x^p times moment p is mean_m d_m^p, of
    mean x^p E[z^p] (:data:`_MOMENT_MEANS`; E[z^2] = 1/6).  The power
    estimators subtract the kernel's Taylor series through d^6: the block's
    linear reductions of the centred moments, one per term of the
    coefficients a_p (:func:`_term_reductions`, :func:`_taylor_table`),
    times scalars x^p q^-e fixed by the scenario (:func:`_variate_scalars`).
    That keeps every expectation and cancels most of the spread while the
    series converges well; a static network subtracts exactly 0.  The
    capacity estimator fits its coefficients to the draws instead
    (:func:`_capacity_columns`, :func:`_cross_fitted`).
    """
    devices = len(gaps[0])
    paths = cell.paths_per_device
    spans = [cfg.doppler_span(mob.max_velocity_mps) for cfg, mob in scenarios]
    buffer = np.empty((_block_slots(coherent), min(plan.trials, BLOCK_TRIALS), devices))
    if coherent:
        target = plan.target_index + devices // 2
        near = slice(max(target - 1, 0), target + 2)
        index_gaps = np.arange(devices) - target
        far = np.where(abs(index_gaps) > 1, 1.0 / np.maximum(index_gaps ** 2, 1), 0.0)
        near_moments = np.empty((len(_ORDERS), buffer.shape[1], far[near].size))
        quartic = np.empty(buffer.shape[1])
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
        powers, moments, weights = buffer[0, :size], buffer[1:, :size], None
        tiles = row_tiles(size, devices * paths)
        if coherent:
            moments, weights = moments[:1], moments[1]
            weights[:, far != 0.0] = rng.standard_exponential((size, np.count_nonzero(far)))
            weights[:, near] = 0.0
            _path_moments(shift, tiles, moments, offsets, (far / paths, quartic[:size]))
            _path_moments(shift[:, near], tiles, near_moments[:, :size], offsets)
            moments = _capacity_columns(moments[0], near_moments[:, :size], quartic[:size],
                                        weights, near, target, far)
        else:
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


def _capacity_columns(bracket, near_moments, quartic, weights, near: slice, target: int,
                      far: np.ndarray) -> np.ndarray:
    """(trials, 1 + columns): 1, for the fit's intercept, and the capacity's
    control variates V of a block's trials, each of mean exactly 0 and free
    of the scenario: mean_m z^p - E[z^p], p = 2..6, of the target and its
    neighbours at index gap +-1 that the band holds (``near``); over the
    far devices j, weighted by 1 / n_j^2 (``far``), w_j b_j - 1/6 (the far
    part of V_I, the d^2 term of the interference), w_j - 1, b_j - 1/6 and
    mean_m z_j^4 - 3/40, with b_j = mean_m z_j^2 and w_j the Exp(1) weight,
    drawn independently of the Doppler draws; and products of centred terms
    of distinct, so independent, devices: the target's bracket times its
    neighbours' sum and times sum (w_j - 1) at index gap +-2, the
    neighbours' sum times the latter, and left times right.  A device's
    paths share its speed fraction, so a product of two terms of one device
    has no independent-path mean, and none is a column.  Columns the band
    cannot hold are left out, not kept as zeros that make the fit singular.
    """
    brackets = near_moments[0] - _MOMENT_MEANS[0]
    own = brackets[:, target - near.start]
    sides = np.delete(brackets, target - near.start, axis=1)
    beside = sides.sum(axis=1)
    second = [c for c in (target - 2, target + 2) if 0 <= c < bracket.shape[1]]
    wide = weights[:, second].sum(axis=1) - len(second)
    total = far.sum()
    columns = [np.ones(len(own)),
               *(near_moments - _MOMENT_MEANS[:, None, None]).swapaxes(1, 2).reshape(-1, len(own))]
    if total:
        columns += [np.einsum("td,td,d->t", bracket, weights, far) - total / 6.0,
                    weights @ far - total, bracket @ far - total / 6.0,
                    quartic - _MOMENT_MEANS[2] * total]
    held = (sides.size, second, sides.size and second)
    columns += [a * b for a, b, h in zip((own, own, beside), (beside, wide, wide), held) if h]
    columns += list((sides[:, :1] * sides[:, 1:]).T)  # left times right, if both
    return np.column_stack(columns)


def _by_fold(values: np.ndarray) -> np.ndarray:
    """(folds, rows, ...): a view of the rows of a block's ``values`` by
    fold, trial i in fold i mod :data:`_FOLDS` (every block starts at a
    multiple of 8); zero rows pad a partial block and add nothing to a sum."""
    short = -len(values) % _FOLDS
    if short:
        values = np.concatenate([values, np.zeros((short,) + values.shape[1:])])
    return values.reshape((-1, _FOLDS) + values.shape[1:]).swapaxes(0, 1)


def _cross_fitted(gram: np.ndarray, sums: np.ndarray, shifts: np.ndarray,
                  trials: int) -> list[Estimate]:
    """One estimate per scenario from the fold sums, ``gram[f]`` = A^T A
    over fold f's trials, A = [1, V], and ``sums[k, f]`` = (A^T y, y^T y),
    y scenario k's capacities less ``shifts[k]`` so that y^T y does not
    cancel.  Fold f subtracts V beta_f, beta_f the least-squares slopes,
    with an intercept, of y on V over the other folds (cross-fitting): it
    never sees fold f's draws and E[V] = 0, so the estimate stays exactly
    unbiased.  A fold whose other folds hold fewer than 2 x columns trials
    subtracts nothing.  The standard error is the residuals'.  Every
    (scenario, fold) system is solved in one batched call.
    """
    others = gram.sum(axis=0) - gram
    fitted = sums[..., :-1].sum(axis=1, keepdims=True) - sums[..., :-1]
    few = others[:, 0, 0] < 2 * (gram.shape[1] - 1)
    others[few] = np.eye(gram.shape[1])
    fitted[:, few] = 0.0
    slopes = np.linalg.solve(others, fitted[..., None])[..., 0]
    slopes[..., 0] = 0.0  # the intercept is fitted, not subtracted
    # per fold, sum e = sum y - (A^T A beta)_0 and
    # sum e^2 = y^T y - 2 beta^T A^T y + beta^T A^T A beta
    cross, squares = sums[..., :-1], sums[..., -1]
    fits = (slopes[..., None, :] @ gram)[..., 0, :]
    residuals = (cross[..., 0] - fits[..., 0]).sum(axis=1)
    squares = (squares + ((fits - 2.0 * cross) * slopes).sum(axis=2)).sum(axis=1)
    variances = np.maximum(squares - residuals * residuals / trials, 0.0) / max(trials - 1, 1)
    return [Estimate(float(shift + residual / trials), math.sqrt(variance / trials), trials)
            for shift, residual, variance in zip(shifts, residuals, variances)]


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
    N = 0), which are never drawn, and keeps the other interferers' drawn
    weights: with R their weighted powers plus the noise, a = k_0 P_T / R
    and b_j = k_j P_T / R, the trial contributes
    log2(e) int_0^inf e^-t / ((t + 1/a) prod_j (1 + t b_j)) dt
    (Hamdi 2010, :func:`numerics.exp1_scaled_faded`, by a fixed rule),
    which for b_j = 0 is Lee's (1990) log2(e) e^(1/a) E1(1/a).  That
    removes most of the variance: the nearest interferers dominate it.

    What is left the Doppler draws drive.  Each trial subtracts V beta,
    V up to 23 zero-mean scenario-free columns (:func:`_capacity_columns`)
    and beta cross-fitted to the draws over 8 folds (:func:`_cross_fitted`):
    it catches the capacity's curvature in the powers at any x, with no
    cut-off, and keeps the estimate exactly unbiased.  A scenario gives the
    same bits alone or in a group, and a static network the exact capacity
    with a standard error of 0.  The log is convex in the interference, so
    the estimate can exceed :func:`analytic.capacity_upper`, which evaluates
    it at the mean powers; at one path per device it does.
    Requires positive noise power.  ``cfg`` and ``mob`` may be sequences,
    as for :func:`estimate_total_ici`.
    """
    scenarios, single = _group(cfg, mob)
    if any(c.noise_variance <= 0.0 for c, _ in scenarios):
        raise ValueError("noise_variance must be positive to estimate capacity")
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    target_column = plan.target_index + n
    neighbours = [c for c in (target_column - 1, target_column + 1) if 0 <= c <= 2 * n]
    gram, sums, shifts = 0.0, [0.0] * len(scenarios), np.empty(len(scenarios))
    for k, rows, powers, columns, weights in _device_powers(plan, cell, scenarios, gaps, True):
        if k == 0:
            design = _by_fold(columns)
            gram = gram + design.swapaxes(1, 2) @ design
        cfg_k = scenarios[k][0]
        useful = powers[:, target_column] * cfg_k.effective_power
        faded = powers[:, neighbours] * cfg_k.effective_power
        powers *= weights  # 0 at the target and its neighbours
        # the rest R of the interference plus the noise; 1 / a = R / (k_0 P_T),
        # inf for a target that keeps no power, which gives a capacity of 0
        rest = powers.sum(axis=1) * cfg_k.effective_power
        rest += cfg_k.noise_variance
        faded /= rest[:, None]
        with np.errstate(divide="ignore"):
            rest /= useful
        capacity = exp1_scaled_faded(rest, faded) * LOG2_E
        if rows.start == 0:
            shifts[k] = capacity[0]
        y = _by_fold(capacity - shifts[k])
        sums[k] = sums[k] + (y[:, None, :] @ np.dstack([design, y]))[:, 0]
    estimates = _cross_fitted(gram, np.array(sums), shifts, plan.trials)
    return estimates[0] if single else estimates


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
