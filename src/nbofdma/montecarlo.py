"""Seeded Monte Carlo estimators that validate the closed-form analytics.

Randomness policy: trials are grouped in fixed blocks of 256, and block k of
a run draws from ``SeedSequence(entropy=seed, spawn_key=(k,))``.  Draws
inside a block happen in one fixed array order and do not depend on the
scenario (the capacity's extra draws of its +-1 neighbours depend on the
sub-carrier count alone), so every scenario of a plan reads the same
random numbers: the
ICI and capacity estimators take a group of scenarios sharing the
sub-carrier count and draw each block once for the whole group.  Estimates
are bit-reproducible for a given (plan, configs) and do not depend on the
group a scenario is evaluated in or on how blocks might be spread over
workers.  Every estimator keeps a value per trial and part and reduces
its residuals once the folds' slopes are fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bench/spans.py patches sinc (no caller here) and sample_cell_batch on this module
from .analytic import LOG2_E
from .numerics import HAMDI_MAX_SCALE, hamdi_factors, hamdi_rule, row_tiles, sinc, sinc_squared
from .sysmodel import (CellConfig, MobilityModel, SystemConfig, _whole_number,
                       sample_cell_batch, subcarrier_gaps)

__all__ = [
    "TrialPlan",
    "Estimate",
    "block_bytes",
    "run_bytes",
    "estimate_total_ici",
    "estimate_useful_power",
    "capacity_snr",
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
    conditional mean mean_m k_m^2; the capacity estimator draws the far
    interferers' coherent powers, that times one Exp(1) draw each,
    averages the near devices' weights exactly, and takes R Doppler draws
    of each neighbour at index gap +-1 a trial, R a fixed rule in the
    sub-carrier count (:func:`_neighbour_draws`).  Every estimator subtracts
    zero-mean columns of its draws times slopes fitted on the other folds'
    trials (:func:`_fold_slopes`), so it stays exactly unbiased.
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
    return [BLOCK_TRIALS] * full + ([rem] if rem else [])


def _block_rng(seed: int, block: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _reduce(values: np.ndarray) -> Estimate:
    trials = values.size
    std_error = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Estimate(mean=float(np.mean(values)), std_error=std_error, trials=trials)


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


# The power estimators' control variates span the kernel's Taylor series in
# the path offset d = x z through d^6.  Off the centre the coefficient of d^p
# in sinc^2(g + d) = sin^2(pi d) / (pi^2 (g + d)^2) is a combination of g^-e,
# e = 2..p of p's parity, so at g = n q each term (p, e) gets a column
# weighted by n^-e and its slope absorbs x^p q^-e.
_ORDERS = (2, 3, 4, 5, 6)
_TERMS = tuple((p, e) for p in _ORDERS for e in range(2 + p % 2, p + 1, 2))
_TERM_ORDERS, _TERM_EXPONENTS = np.array(_TERMS).T
# E[z^p] = E[u^p] E[cos^p psi] = C(p, p/2) / (2^p (p + 1)) for even p and 0
# for odd p: u uniform on [0, 1), cos psi of the arcsine law
_MOMENT_MEANS = np.array([math.comb(p, p // 2) / (2 ** p * (p + 1)) if p % 2 == 0 else 0.0
                          for p in _ORDERS])
_FOLDS = 8  # every fit puts trial i in fold i mod 8


def _block_slots(coherent: bool) -> int:
    """(trials, devices) slots of the buffer of :func:`_device_powers`: the
    powers and the path moments p = 2..6, or for the capacity ("coherent")
    the powers, the bracket p = 2 and the Exp(1) weights."""
    return 3 if coherent else 1 + len(_ORDERS)


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array of ``shape`` starting on a 64-byte
    boundary: numpy aligns to 16 bytes, and on a 2-core AMD EPYC a kernel
    workspace at 16 mod 32 bytes made a fig4 sweep about 14% slower."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def block_bytes(devices: int, paths: int, snr: float | None = None) -> int:
    """Bytes of the arrays :func:`_device_powers` holds at once for
    ``devices`` devices of ``paths`` paths sharing one gap vector: a block's
    draws and the (trials, columns) slots of its buffer; one more slot for
    the sampler's speed fractions, which the capacity's Exp(1) weights take
    as drawn; and eight tiles: the kernel's four workspace tiles and gap
    tile, the sampler's two scratch tiles, and one for the kernel's centre
    mask and the per-device vectors.  A column is a device, and with
    ``snr``, P_T over the noise of a capacity ("coherent") scenario, also
    one of the 2 (R - 1) extra draws of the neighbours at index gap +-1
    (:func:`_extra_draws`).  A capacity block also holds what its average
    holds: 84 doubles a trial across blocks (the near moments, the columns
    V, the last scenario's vectors) and 5 more an extra draw (its
    moments), and the parts' factor tables on the rule at that SNR
    (:func:`numerics.hamdi_rule`) with two scratch rows for the extra
    draws' factors and 26 doubles a trial and 4 an extra draw,
    formed after the sampler has let go of its slot and two tiles."""
    coherent = snr is not None
    extra = 2 * (_neighbour_draws(devices // 2) - 1) * coherent
    columns = devices + extra
    tile = row_tiles(BLOCK_TRIALS, columns * paths)[0].stop * columns * paths
    sampler = BLOCK_TRIALS * columns + 2 * tile
    parts = min(devices, 5) + (devices > 5)
    rows = parts + min(2, extra)
    average = BLOCK_TRIALS * (rows * hamdi_rule(snr)[0].size + 26 + 4 * extra) if coherent else 0
    return 8 * (BLOCK_TRIALS * columns * (paths + _block_slots(coherent)) + 6 * tile
                + max(sampler, average) + BLOCK_TRIALS * (84 + 5 * extra) * coherent)


def run_bytes(trials: int, scenarios: int, devices: int, paths: int,
              snr: float | None = None) -> int:
    """Bytes an estimator holds at most for a group of ``scenarios`` over
    ``trials`` trials: a block (:func:`block_bytes`, the capacity's with
    ``snr``) and, growing with the trials, what the run keeps per trial and
    part: its columns V and each scenario's samples, and the fit's design
    [1, V] and six doubles of its temporaries (:func:`_fitted`).  The
    capacity has up to six parts of 5 columns, the interference one of 9."""
    coherent = snr is not None
    parts = min(devices, 5) + (devices > 5) if coherent else 1
    variates = len(_ORDERS) if coherent else len(_TERMS)
    return block_bytes(devices, paths, snr) + 8 * trials * parts * (2 * variates + 6 + scenarios)


def _taylor_table(index_gaps: np.ndarray) -> np.ndarray:
    """(terms, devices): n_j^-e for each term (p, e) of :data:`_TERMS` and
    each device j at whole-number index gap n_j, 0 at the centre.  Order p's
    rows span min(its terms, distinct |n_j|) dimensions, so a row beyond
    that count, a combination of the rows before it, is 0 (an all-zero
    column, which the fit gives a zero slope)."""
    table = np.zeros((len(_TERMS), index_gaps.size))
    off = index_gaps != 0.0
    table[:, off] = index_gaps[off] ** -_TERM_EXPONENTS[:, None]
    table[(_TERM_EXPONENTS - _TERM_ORDERS % 2) // 2 > np.unique(abs(index_gaps[off])).size] = 0.0
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
    column) power on the target sub-carrier of scenario k for the trials
    ``rows``, in a buffer the next step overwrites; the block's per-device
    path moments mean_m z_m^p, p = 2..6 in ``moments[p - 2]``, or for the
    capacity ("coherent") the block's columns V of its control variates
    (:func:`_capacity_columns`); and the block's Exp(1) weights
    ("coherent"; 0 for the near devices, :func:`_near_devices`, whose
    fading the capacity averages and which draw none) or None.  A column
    is a device, and for the capacity each column after the 2N + 1
    devices is an extra draw of a neighbour at index gap +-1
    (:func:`_extra_draws`): that neighbour's gap, no weight, and no place
    among the far devices.  The arrays held at once are those
    :func:`block_bytes` counts.

    Each block is drawn once, the weights right after the sampler, and
    evaluated for each scenario in turn, so no value depends on the group.
    Path m of a device shifts by d_m = x z_m, x = V_max f_c T_s / c the
    scenario's span (:meth:`SystemConfig.doppler_span`) and z_m = u cos psi_m
    the scenario-free shift (:func:`sysmodel.sample_cell_batch`, the one
    place that forms it); since |z| < 1 and rounding is monotone, every
    |fl(x z)| is within x.  The mean over paths of sinc(gap + d_m)^2 is a
    device's expected power given its shifts; times its weight it follows
    the law of the squared complex path sum.  ``gaps[k]`` holds scenario
    k's integer sub-carrier distances scaled by T_s * df, so a static
    network cancels exactly.  The kernel is sized to each scenario's own
    span (:func:`numerics.sinc_squared`), a static scenario skips it for
    the exact values it would return, and each row's path sum is taken
    within its tile, so neither the group nor the tile size changes a
    value.  The kernel runs in a workspace allocated once per call: the
    offsets, output and scratch tiles and one (rows, columns, paths) gap
    tile per distinct gap vector.  The moments are taken tile by tile in
    the offsets tile, so no block-sized z^p is ever formed.

    Every estimator subtracts zero-mean columns of these moments (centred
    by :data:`_MOMENT_MEANS`) times cross-fitted slopes (Glasserman 2003,
    section 4.1; :func:`_fold_slopes`), part by part (:func:`_fitted`).
    """
    devices = len(gaps[0])
    paths = cell.paths_per_device
    spans = [cfg.doppler_span(mob.max_velocity_mps) for cfg, mob in scenarios]
    if coherent:
        target = plan.target_index + devices // 2
        near = _near_devices(target, devices)
        extra = _extra_draws(target, devices)
        owners = [near.index(c) for c in extra]
        gaps = [np.concatenate([gap, gap[extra]]) for gap in gaps]
        quiet = near + list(range(devices, devices + len(extra)))  # no weight drawn
        far = np.arange(devices) - target  # the index gaps, then the far weights
        far = np.where(abs(far) > 2, 1.0 / np.maximum(far ** 2, 1), 0.0)
        near_moments = np.empty((len(_ORDERS), min(plan.trials, BLOCK_TRIALS), len(quiet)))
        quartic = np.empty(near_moments.shape[1])
    columns = len(gaps[0])
    buffer = np.empty((_block_slots(coherent), min(plan.trials, BLOCK_TRIALS), columns))
    # the kernel's workspace, sized to the largest tile (the first of the
    # first block); the gaps come as full tiles because numpy adds a row
    # broadcast over the short path axis about three times slower
    tile_shape = (row_tiles(buffer.shape[1], columns * paths)[0].stop, columns, paths)
    workspace = _aligned_empty((4,) + tile_shape)
    offsets, kernel, work = workspace[0], workspace[1], workspace[2:]
    gap_tiles, shared = [], {}
    for gap, span in zip(gaps, spans):
        key = gap.tobytes()
        if span != 0.0 and key not in shared:
            shared[key] = np.broadcast_to(gap[:, None], tile_shape).copy()
        gap_tiles.append(shared.get(key))
    del key, shared  # the keys copy the gaps
    start = 0
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        shift = sample_cell_batch(rng, size, columns, cell)
        powers, moments, weights = buffer[0, :size], buffer[1:, :size], None
        tiles = row_tiles(size, columns * paths)
        if coherent:
            moments, weights = moments[:1, :, :devices], moments[1]
            weights[:, :devices][:, far != 0.0] = rng.standard_exponential(
                (size, np.count_nonzero(far)))
            weights[:, quiet] = 0.0
            _path_moments(shift[:, :devices], tiles, moments, offsets,
                          (far / paths, quartic[:size]))
            _path_moments(shift[:, quiet], tiles, near_moments[:, :size], offsets)
            # a part's moments are the mean over its draws
            for i, part in enumerate(owners):
                near_moments[:, :size, part] += near_moments[:, :size, len(near) + i]
            for part in set(owners):
                near_moments[:, :size, part] /= owners.count(part) + 1
            moments = _capacity_columns(moments[0], near_moments[:, :size, :len(near)],
                                        quartic[:size], weights[:, :devices], far)
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

def estimate_total_ici(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                       cell: CellConfig, mob: MobilityModel | list[MobilityModel]
                       ) -> Estimate | list[Estimate]:
    """Monte Carlo mean of the interference power collected on the target
    sub-carrier from the other 2N devices.

    Converges to :func:`analytic.finite_n_ici` at the same N.  Each trial
    sums the interferers' powers less the fitted columns
    sum_j n_j^-e (mean_m z_jm^p - E[z^p]) over the interferers, one per
    term (p, e) of the kernel's Taylor series (:func:`_taylor_table`,
    :func:`_fitted`); neither needs a quadrature.  A static network gives
    exactly zero in every trial.
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
    columns = np.empty((plan.trials, 1, len(_TERMS)))
    samples = [np.empty((plan.trials, 1)) for _ in scenarios]
    for k, rows, powers, moments, _ in _device_powers(plan, cell, scenarios, gaps, False):
        if k == 0:
            columns[rows, 0] = _term_reductions(moments, table)
        powers[:, target_column] = 0.0
        samples[k][rows, 0] = powers.sum(axis=1) * scenarios[k][0].effective_power
    estimates = [_reduce(residuals[:, 0]) for residuals in _fitted(columns, samples)]
    return estimates[0] if single else estimates


def estimate_useful_power(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                          mob: MobilityModel) -> Estimate:
    """Monte Carlo mean of the power the target device keeps on its own
    sub-carrier; converges to :func:`analytic.effective_useful_power`.

    Each trial gives mean_m sinc^2(d_m) less the fitted columns
    mean_m z_m^p - E[z^p], p = 2..6, of the target's own draws
    (:func:`_fitted`).  A static network gives exactly P_T in every trial.
    """
    gaps = subcarrier_gaps(plan.target_index, cfg.half_subcarriers)
    return _device_estimates(plan, cfg, cell, mob, gaps[gaps == 0])[0]


def _device_estimates(plan: TrialPlan, cfg: SystemConfig, cell: CellConfig,
                      mob: MobilityModel, gaps: np.ndarray) -> list[Estimate]:
    """The estimate of the power each device at sub-carrier distance
    ``gaps`` (index gaps times T_s df) deposits, less the fitted columns
    mean_m z_m^p - E[z^p], p = 2..6, of that device's own draws
    (:func:`_fitted`), each device a part."""
    columns = np.empty((plan.trials, len(gaps), len(_ORDERS)))
    samples = np.empty((plan.trials, len(gaps)))
    for _, rows, powers, moments, _ in _device_powers(plan, cell, [(cfg, mob)], [gaps], False):
        columns[rows] = (moments - _MOMENT_MEANS[:, None, None]).transpose(1, 2, 0)
        samples[rows] = powers * cfg.effective_power
    [residuals] = _fitted(columns, [samples])
    return [_reduce(values) for values in residuals.T]


def _near_devices(target: int, devices: int) -> list[int]:
    """The columns whose fading the capacity averages: the target's, then
    its neighbours' at index gap -2, -1, 1 and 2 that the band holds."""
    return [target] + [c for c in range(target - 2, target + 3) if c != target and 0 <= c < devices]


def _neighbour_draws(half_subcarriers: int) -> int:
    """R, the Doppler draws a capacity trial takes of each neighbour at
    index gap +-1, a fixed rule in N: those two hold 79-94% of the
    capacity's residual variance at fig4's points while being 2 of the
    2N + 1 devices a block evaluates, so their draws grow with N (R = 2, 5
    and 11 at N = 39, 99 and 199; 1 below N = 36)."""
    return max(1, half_subcarriers // 18)


def _extra_draws(target: int, devices: int) -> list[int]:
    """The device whose Doppler draws each extra column of a capacity
    block repeats, in the order the columns follow the 2N + 1 devices:
    R - 1 rounds of one column for each neighbour at index gap +-1 that
    the band holds (:func:`_neighbour_draws`)."""
    neighbours = [c for c in (target - 1, target + 1) if 0 <= c < devices]
    return neighbours * (_neighbour_draws(devices // 2) - 1)


def _capacity_columns(bracket, near_moments, quartic, weights, far: np.ndarray) -> np.ndarray:
    """(trials, parts, 5): V_i for each part i of the capacity, each column
    of mean exactly 0, scenario-free and of part i's draws alone:
    for each near device, mean_m z^p - E[z^p], p = 2..6, the moments the
    mean over its draws (:func:`_extra_draws`); for the far
    devices j, if any, weighted by 1 / n_j^2 (``far``), w_j b_j - 1/6 (the
    d^2 term), w_j - 1, b_j - 1/6 and mean_m z_j^4 - 3/40, b_j = mean_m
    z_j^2 and w_j the Exp(1) weight, and a column of zeros."""
    trials, near = bracket.shape[0], near_moments.shape[2]
    total = far.sum()
    columns = np.zeros((trials, near + bool(total), len(_ORDERS)))
    columns[:, :near] = (near_moments - _MOMENT_MEANS[:, None, None]).transpose(1, 2, 0)
    if total:
        columns[:, near, 0] = np.einsum("td,td,d->t", bracket, weights, far) - total / 6.0
        columns[:, near, 1] = weights @ far - total
        columns[:, near, 2] = bracket @ far - total / 6.0
        columns[:, near, 3] = quartic - _MOMENT_MEANS[2] * total
    return columns


def _by_fold(values: np.ndarray) -> np.ndarray:
    """(parts, folds, rows, ...): the (trials, parts, ...) ``values`` by
    fold, trial i in fold i mod :data:`_FOLDS`; zero rows, which add
    nothing to a sum, pad the trials to a multiple of 8."""
    short = -len(values) % _FOLDS
    if short:
        values = np.concatenate([values, np.zeros((short,) + values.shape[1:])])
    return np.moveaxis(values.reshape((-1, _FOLDS) + values.shape[1:]), (0, 2), (2, 0))


def _fold_slopes(gram: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """slopes[k, i, f]: what fold f of part i subtracts per unit of its
    columns V_i for sample k, from ``gram[i, f]`` = A^T A over fold f,
    A = [1, V_i], and ``cross[k, i, f]`` = A^T y, y part i of the sample
    less its first trial's (so a static network gets exactly 0): the
    least-squares slopes, with an intercept, of y on V_i over the other
    folds, which never see fold f's draws of part i (cross-fitting;
    E[V_i] = 0), or 0 if they hold fewer than 2 trials a column of V_i.  An
    all-zero column gets a zero slope, and so does the intercept, which is
    fitted, not subtracted.  The other folds' matrices do not depend on
    the sample: one inverse each."""
    size = gram.shape[-1]
    others = gram.sum(axis=1, keepdims=True) - gram
    few = others[..., 0, 0] < 2 * (size - 1)
    pivots = np.arange(size)
    others[..., pivots, pivots] += others[..., pivots, pivots] == 0.0
    others[few] = np.eye(size)
    fitted = cross.sum(axis=2, keepdims=True) - cross
    fitted[:, few] = 0.0
    slopes = (np.linalg.inv(others) @ fitted[..., None])[..., 0]
    slopes[..., 0] = 0.0
    return slopes


def _fitted(columns: np.ndarray, samples):
    """Yield, for each (trials, parts) array y of ``samples`` in turn, its
    residuals y - V beta: V the (trials, parts, variates) zero-mean
    ``columns`` and beta the slopes of the trial's fold and part
    (:func:`_fold_slopes`), each part fitted on its own columns.  Each y's
    cross products and residuals are formed alone, so a scenario keeps its
    bits in a group and its temporaries are the size of one sample."""
    trials, parts, _ = columns.shape
    design = _by_fold(np.concatenate([np.ones((trials, parts, 1)), columns], axis=2))
    cross = [(_by_fold(y - y[0])[..., None, :] @ design)[..., 0, :] for y in samples]
    slopes = _fold_slopes(design.swapaxes(2, 3) @ design, np.array(cross))
    for y, beta in zip(samples, slopes):
        # V beta per (part, fold, row), transposed back to trial order
        fit = (design[..., 1:] @ beta[..., 1:, None])[..., 0]
        yield y - fit.transpose(2, 1, 0).reshape(-1, parts)[:trials]


def _part_factors(nodes, faded, far, owners, out, scratch):
    """The capacity's (parts, trials, nodes) factor table at ``nodes``
    (:func:`numerics.hamdi_factors`) in ``out``: a row for each near
    device from its own draw, a row of ``faded``, and with ``far`` one for
    the far devices.  Row i of ``faded`` after the near devices' is an
    extra draw of part owners[i], whose row becomes the mean of its draws'
    factors: their tables are formed len(``scratch``) rows at a time, a
    round of the extra draws (:func:`_extra_draws`), and added into the
    parts' rows, so no table of every draw is held."""
    near = len(faded) - len(owners)
    table = hamdi_factors(nodes, faded[:near], far, out)
    for start in range(0, len(owners), max(len(scratch), 1)):
        rows = faded[near + start:near + start + len(scratch)]
        for part, factors in zip(owners[start:], hamdi_factors(nodes, rows,
                                                               out=scratch[:len(rows)])):
            table[part] += factors
    for part in set(owners):
        table[part] /= owners.count(part) + 1
    return table


def _all_but_each(means: np.ndarray) -> np.ndarray:
    """Row i: the product of the rows of ``means`` but row i."""
    before, after = np.ones_like(means), np.ones_like(means)
    np.cumprod(means[:-1], axis=0, out=before[1:])
    np.cumprod(means[:0:-1], axis=0, out=after[-2::-1])
    return before * after


def capacity_snr(cfg: SystemConfig) -> float:
    """P_T over the noise of a capacity scenario, the scale of its Hamdi
    rule; ValueError unless the noise is positive and the ratio at most
    :data:`numerics.HAMDI_MAX_SCALE`."""
    snr = cfg.effective_power / cfg.noise_variance if cfg.noise_variance > 0.0 else math.inf
    if not snr <= HAMDI_MAX_SCALE:
        raise ValueError(f"noise_variance, effective_power: the capacity needs positive noise "
                         f"and P_T / noise at most {HAMDI_MAX_SCALE!r}; got {snr!r}")
    return snr


def estimate_ergodic_capacity(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                              cell: CellConfig,
                              mob: MobilityModel | list[MobilityModel]
                              ) -> Estimate | list[Estimate]:
    """Mean of log2(1 + useful / (interference + noise)) over realizations
    of the whole cell, in bit/s/Hz.

    Device j's coherent power is k_j P_T, k_j its conditional power given
    its path shifts, times its own Exp(1) weight.  The near devices'
    weights (:func:`_near_devices`) are averaged exactly (Hamdi 2010): with
    u = k_0 SNR, b_j = k_j SNR and a the far devices' drawn interference
    over the noise, a trial's capacity is log2(e) int_0^inf e^-t C prod_j
    B_j A dt, C = u / (1 + t u), B_j = 1 / (1 + t b_j), A = e^(-t a).  The
    factors come from independent parts of the draws (the target's, each
    neighbour's, the far devices': six inside the band), so it integrates the
    product of their means over the trials on a rule fixed by the SNR
    (:func:`numerics.hamdi_rule`): the exactly unbiased average over all
    combinations of the parts' draws.  The parts being independent, each
    may average its own number of draws a trial and stay exactly unbiased
    (Neyman allocation; Glasserman 2003, section 4.3): the neighbours at
    index gap +-1, which hold most of the residual variance, take R draws
    (:func:`_neighbour_draws`; R = 11 at N = 199), and their factor rows
    and columns are the means over them (:func:`_part_factors`), so no
    per-trial array grows.  Part i then subtracts its own zero-mean
    columns (:func:`_capacity_columns`) times slopes cross-fitted
    (:func:`_fitted`) to its influence g_i = int F_i prod_(j != i) mean F_j
    at the first block's means; the standard error is
    sqrt(sum_i var(g_i - V_i beta_i) / trials), each part's residuals taken
    less their first, so that equal ones spread by exactly 0, and scaled
    by a power of two, so that their squares do not underflow.  A static
    network or N = 0 leaves the target's factor alone (the others
    are exactly 1, or there are none), the one-factor integral
    e^x E1(x), x = 1 / u (Lee 1990): every trial gives the exact capacity,
    with a standard error of 0.  A scenario gives the same bits alone or in
    a group.  The estimate can exceed :func:`analytic.capacity_upper`, the
    capacity at the mean powers, as at one path per device.  Requires
    positive noise and P_T over the noise at most 1e300
    (:func:`capacity_snr`).  ``cfg`` and ``mob`` may be sequences, as for
    :func:`estimate_total_ici`.
    """
    scenarios, single = _group(cfg, mob)
    snrs = [capacity_snr(c) for c, _ in scenarios]
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    devices = 2 * n + 1
    near = _near_devices(plan.target_index + n, devices)
    extra = _extra_draws(plan.target_index + n, devices)
    owners = [near.index(c) for c in extra]
    # the near devices' columns, then the extra draws', which a static
    # scenario skips: their factors would equal its main draws', exactly 1
    moving = [c.doppler_span(m.max_velocity_mps) != 0.0 for c, m in scenarios]
    drawn = near + list(range(devices, devices + len(extra)))
    parts = len(near) + (devices > len(near))
    rules = [hamdi_rule(snr) for snr in snrs]
    # the parts' table, then a scratch for a round of the extra draws'
    table_rows = parts + len(set(extra))
    table_size = table_rows * min(plan.trials, BLOCK_TRIALS) * max(nodes.size for nodes, _ in rules)
    columns = np.empty((plan.trials, parts, len(_ORDERS)))
    influences = [np.empty((plan.trials, parts)) for _ in scenarios]
    totals, node_weights = [None] * len(scenarios), [None] * len(scenarios)
    for k, rows, powers, variates, weights in _device_powers(plan, cell, scenarios, gaps, True):
        if k == 0:
            columns[rows] = variates
            tables = _aligned_empty((table_size,))  # let go with the block
        size = len(powers)
        nodes, rule = rules[k]
        faded = (powers[:, drawn if moving[k] else near] * snrs[k]).T  # u, the b_j, extras
        powers *= weights  # 0 at the near devices and the extra draws
        far = powers[:, :devices].sum(axis=1) * snrs[k] if parts > len(near) else None
        held = tables[:table_rows * size * nodes.size].reshape(table_rows, size, -1)
        table = _part_factors(nodes, faded, far, owners if moving[k] else [], held[:parts],
                              held[parts:])
        column_sums = np.ones(size) @ table
        column_sums[0] = faded[0] @ table[0]  # C is u times its table
        totals[k] = column_sums + (totals[k] if rows.start else 0.0)
        if rows.start == 0:
            node_weights[k] = _all_but_each(column_sums / size) * rule
        y = (table @ node_weights[k][..., None])[..., 0]
        y[0] *= faded[0]
        influences[k][rows] = y.T
        if k == len(scenarios) - 1:
            tables = held = table = faded = None
    estimates = []
    for (_, rule), total, y, residuals in zip(rules, totals, influences,
                                              _fitted(columns, influences)):
        mean = rule @ np.prod(total / plan.trials, axis=0) - (y - residuals).sum() / plan.trials
        residuals -= residuals[0]  # so that equal residuals spread by exactly 0
        # the residuals over 2^scale, below 1: exact, and where the capacity
        # is tiny their squares and the variance then do not underflow
        scale = int(np.frexp(abs(residuals).max())[1])
        variance = np.var(np.ldexp(residuals, -scale), axis=0, ddof=1).sum() \
            if plan.trials > 1 else 0.0
        estimates.append(Estimate(LOG2_E * float(mean), LOG2_E * math.ldexp(
            math.sqrt(variance / plan.trials), scale), plan.trials))
    return estimates[0] if single else estimates


def symmetry_probe(index_a: int, index_b: int, plan: TrialPlan,
                   cfg: SystemConfig, cell: CellConfig,
                   mob: MobilityModel) -> tuple[Estimate, Estimate]:
    """Estimate the interference device ``index_b`` deposits on sub-carrier
    ``index_a`` and vice versa, from independent draws of the two devices.

    The channel law depends on the index pair only through its gap, so the
    two means must agree within Monte Carlo noise.  Each direction fits the
    columns of its own source device (:func:`_device_estimates`), which the
    two share in law and in mean but not in draws.  Swapping the
    arguments returns the same pair of estimates in the other order, bit
    for bit.
    """
    # a's index gaps less b's are b - a at every entry; forming them checks both
    index_gap = abs(subcarrier_gaps(index_a, cfg.half_subcarriers)[0]
                    - subcarrier_gaps(index_b, cfg.half_subcarriers)[0])
    if index_gap == 0.0:
        raise ValueError("symmetry_probe needs two distinct sub-carriers")
    # devices drawn in index order: device 0 is the source on the lower
    # sub-carrier, seen from the higher one, and device 1 the reverse
    pair = _device_estimates(plan, cfg, cell, mob,
                             np.array([-index_gap, index_gap]) * cfg.spacing_symbol_product)
    return tuple(pair if index_a > index_b else pair[::-1])
