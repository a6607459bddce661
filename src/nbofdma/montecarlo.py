"""Seeded Monte Carlo estimators that validate the closed-form analytics.

Randomness policy: trials are grouped in fixed blocks of 256, and block k of
a run draws from ``SeedSequence(entropy=seed, spawn_key=(k,))``.  Each
estimator lays its devices out as draw sets (:func:`_layout`): a set is
what one sampler call draws, its band columns on its rows a block (every
trial, or 32 for a tail, :data:`_TAIL_DRAWS`), and the Exp(1) weights of
the columns that draw one; its parts split its columns, each copying its
own out of the block's shifts into a kernel tile of its own, mirrored or
not, with the builder of its control-variate columns V, one of two (a
device's own path moments, :func:`_near_columns`, or Taylor sums over
devices, :func:`_far_columns`), and its Taylor table.  A mirrored part
also takes each draw's mirror -z, of the same law, from the same sines:
the interference reads each pair's summed power from one kernel pass
(:func:`numerics.sinc_squared_pair`), the capacity the two powers apart.
A block draws its sets in turn, in one fixed array order
that depends on the sub-carrier count, the target and the block alone, so
every scenario of a plan reads the same random numbers: the ICI and
capacity estimators take a group of scenarios sharing the sub-carrier
count and draw each block once for the whole group.  Estimates are
bit-reproducible for a given (plan, configs) and do not depend on the
group a scenario is evaluated in or on how blocks might be spread over
workers.  Every estimator keeps a value per draw and part and reduces its
residuals once the folds' slopes are fitted; the capacity also keeps, per
scenario and part, the fold sums on its rule's nodes from which its part
means are controlled, which do not grow with the trials.  The bytes a
block and a run hold are counted from the same records
(:func:`block_bytes`, :func:`run_bytes`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# bench/spans.py patches sinc (no caller here) and sample_cell_batch on this module
from .analytic import LOG2_E
from .numerics import (HAMDI_MAX_SCALE, SURROGATE_TERMS, _monomial_mean, doppler_power_scale,
                       hamdi_basis, hamdi_factors, hamdi_rule, odd_power_scale, row_tiles, sinc,
                       sinc_squared, sinc_squared_pair, surrogate_mean)
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
    conditional mean mean_m k_m^2, the interference drawing the
    interferers within index gap K_I = 3 of the target on every trial and
    those beyond on 32 trials of a block of 256 (:data:`_TAIL_DRAWS`), and
    the target not at all, each with its mirror -z; the capacity estimator
    averages the fading of the devices within index gap K = 10 exactly,
    draws the tail's beyond K, its coherent powers times one Exp(1) draw
    each, takes R_0 Doppler draws of its target and R of each neighbour at
    index gap +-1 a trial, R / 2 of the latter the mirrors -z of the
    others, R_0 and R a fixed rule in the sub-carrier count
    (:func:`_capacity_draws`; 4 and 24 at N = 199, 1 and 2 up to
    N = 115), mirrors its +-2 neighbours' and mid part's
    draws too (and no other part's), and draws its tail on 32 trials a
    block.  Every estimator subtracts zero-mean
    columns of its draws times slopes fitted on the other folds' draws
    (:func:`_fold_solver`), so it stays exactly unbiased: the power
    estimators' columns are the path moments, the capacity's also their
    products of second order (:func:`_near_columns`,
    :func:`_far_columns`), fitted to each part's factor at every node of
    its rule, after its neighbours at index gap +-1 and +-2 and its mid
    part have subtracted surrogates of exactly known mean
    (:func:`_surrogates`).
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


def _std_error(residuals) -> float:
    """sqrt(sum_i var(r_i) / n_i) over the part records i of
    ``residuals``, a list of arrays, one a part, whose axis 0 runs over the
    n_i draws of each of its part records.  The residuals are first scaled
    by 2^-s, below 1, which is exact and keeps their squares from
    underflowing where the estimate is tiny, and the root by 2^s after; a
    part of one draw adds no variance."""
    scale = int(np.frexp(max((abs(r).max() for r in residuals if r.size), default=0.0))[1])
    variance = sum(np.var(np.ldexp(r, -scale), axis=0, ddof=1).sum() / len(r)
                   for r in residuals if len(r) > 1)
    return math.ldexp(math.sqrt(variance), scale)


def _reduce(values: np.ndarray) -> Estimate:
    return Estimate(mean=float(np.mean(values)), std_error=_std_error([values]),
                    trials=values.size)


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
_FOLDS = 8  # every fit puts trial i in fold i mod 8


# E[z^p] = E[u^p] E[cos^p psi] = C(p, p/2) / (2^p (p + 1)) for even p and 0
# for odd p (:func:`_monomial_mean` of one factor, the same at any path count)
_MOMENT_MEANS = np.array([_monomial_mean((p,), 1) for p in _ORDERS])
# the capacity's near columns: m_2..m_6, then the products of those of low
# order; m_2^3 is left out, since at two paths m_6 = 3 m_2 m_4 - 2 m_2^3
_NEAR_MONOMIALS = tuple((p,) for p in _ORDERS) + ((2, 2), (2, 3), (2, 4), (3, 3))
# the near columns odd in the path shifts, which a mirrored part's pairs cancel
_ODD_NEAR = [row for row, orders in enumerate(_NEAR_MONOMIALS) if sum(orders) % 2]


@functools.cache
def _near_means(paths: int) -> np.ndarray:
    """E of each near column's monomial (:data:`_NEAR_MONOMIALS`) at
    ``paths`` paths: at one path a product is a single moment (m_2^2 =
    m_4), so only m_2..m_6 are kept."""
    kept = _NEAR_MONOMIALS[:len(_ORDERS) if paths == 1 else None]
    means = np.array([_monomial_mean(orders, paths) for orders in kept])
    means.flags.writeable = False  # shared by every caller
    return means


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array of ``shape`` starting on a 64-byte
    boundary: numpy aligns to 16 bytes, and on a 2-core AMD EPYC a kernel
    workspace at 16 mod 32 bytes made a fig4 sweep about 14% slower."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


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


def _path_moments(shift: np.ndarray, tiles, work: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(5, trials, columns): mean_m z_m^p, p = 2..6, of each (trial, column)
    of a part's block ``shift``, in ``work``, tile by tile in ``scratch``,
    so that no block-sized z^p is formed."""
    moments = work.reshape(len(_ORDERS), len(shift), -1)
    for rows in tiles:
        z = shift[rows]
        np.einsum("tdm,tdm->td", z, z, out=moments[0, rows])
        power = np.multiply(z, z, out=scratch[:rows.stop - rows.start, :z.shape[1]])
        for moment in moments[1:]:
            power *= z
            np.einsum("tdm->td", power, out=moment[rows])
    moments /= shift.shape[2]
    return moments


# ===========================================================================
# draw sets and their parts
# ===========================================================================

# Each estimator's far devices, its tail, are drawn on _TAIL_DRAWS trials a
# block, one in L = 8 of a full block, or every trial of a shorter one: 32
# draws a block keep a tail's fit on (which needs 18 or 24 in the other
# folds).
_TAIL_DRAWS = BLOCK_TRIALS // 8

# The interference splits at index gap K_I = _ICI_TAIL_GAP: the interferers
# at 1 <= |n| <= K_I are drawn every trial, the tail (|n| > K_I) on
# _TAIL_DRAWS trials a block.  Once both parts are mirrored and their
# Taylor columns fitted, the tail holds up to about a third of the residual
# variance at fig3's points, so drawing it one trial in 8 leaves the
# variance about 1.4 times that of drawing it every trial, at a third of
# the CPU time, since at N = 24 it is 42 of the 48 interferers (unmirrored,
# it held 0.6% and the factor read 1.04 at K_I = 3, 1.08-1.09 at 2 and
# 1.7-1.8 at 1).
_ICI_TAIL_GAP = 3

# The capacity's far devices split at index gap K = _TAIL_GAP: the mid part
# (3 <= |n| <= K) is drawn every trial, its fading averaged exactly, the
# tail (|n| > K) on _TAIL_DRAWS trials a block, each device at a drawn
# Exp(1) weight.  On fig4's points the tail holds at most 2e-5-5e-5 of the
# fitted variance a draw, yet at N = 199 it is 378 of a trial's 424 columns.
_TAIL_GAP = 10

# The capacity's surrogates (:func:`_surrogates`) are subtracted on the
# rule's nodes t <= 5 alone, c = t SNR x^2 / q^2: beyond t = 5 the rule's
# e^-t leaves a factor little weight.  The neighbours at index gap +-1 and
# the mid part subtract theirs at slope 1 on every such node with 1e-60 <=
# c <= 1e60 (the +-2 neighbours' window is that of c / 4): below, a
# surrogate is 1 - c/6 to rounding; the +-n neighbours' lines take powers
# of v = 1 / c up to v^5, which stays finite, and (m_2 + v)^5 >= v^5 stays
# above the smallest normal double for any m_2 >= 0, one path too; above,
# a factor is at most about 1e-60 / m_2 and leaves the integrand no weight.
# Their treatment of a node depends on c alone, so the rule keeps the
# estimate where the interference dwarfs the noise to 1e-12 at any SNR (a
# hard edge at c = 1 moved it by 4e-8 between 200 and 300 dB).  At 20 dB
# that is 44 of the 53 nodes.
_SURROGATE_NODES = (1e-60, 1e60, 5.0)

# The +-n neighbours' surrogates take the third-order terms of the kernel's
# even part, W and X (:func:`_part_factors`), at spans x <= _EVEN_REACH Q
# alone, Q = n q: beyond, its Taylor polynomial through d^6 leaves the
# kernel, and on fig4's 500 Hz curve at 300 m/s (x = 1.8) the two terms
# raised the squared standard error 2.3-fold, and at x = 3 the standard
# error to 0.68 of the one without variates (0.31 without them).  A reach
# of 0.7 Q read alike (0.95 against 0.99 of the second-order surrogate's
# squared error at x = 1.2).
_EVEN_REACH = 0.5

# The mirrored near parts form their pairs' lines (:func:`_pair_sums`) and
# their surrogates' (:func:`_surrogate_sums`) _LINE_PAIRS pairs at a time,
# so that those lines do not grow with the draws: at fig4's N = 199 each
# +-1 part of 24 pairs is one chunk, and the call makes no more numpy
# calls than one of every pair at once.
_LINE_PAIRS = 32


def _near_devices(target: int, devices: int) -> list[int]:
    """The columns whose fading the capacity averages: the target's, then
    its neighbours' at index gap -2, -1, 1 and 2 that the band holds."""
    return [target] + [c for c in range(target - 2, target + 3) if c != target and 0 <= c < devices]


def _capacity_draws(half_subcarriers: int) -> tuple[int, int]:
    """(R_0, R): the Doppler draws a capacity trial takes of its target and
    of each neighbour at index gap +-1, a fixed rule in N alone that sizes
    each part's draws by Neyman allocation (Glasserman 2003, section 4.3):
    R = 2P, P = max(1, (N - 100) // 8) mirrored pairs, each a draw z and
    its mirror -z, and R_0 = max(1, P // 3) rounds of the target
    (:func:`_layout`).  Those parts hold most of the capacity's residual
    variance at fig4's large spans while being 3 of the 2N + 1 devices a
    block evaluates, and the span grows with N at fig4's points; below
    N = 116 one pair and one round (fig4's N = 99 curve holds 3% of its
    summed variance so, 0.8% with three pairs, for 2-3% less sweep time).
    The +-1
    neighbours' drawn columns, 2P a trial, stay below the tail's,
    (2N - 2K) / 8 a trial (:data:`_TAIL_DRAWS`).  R = 2, 2 and 24 at
    N = 39, 99 and 199, and R_0 = 1, 1 and 4."""
    pairs = max(1, (half_subcarriers - 100) // 8)
    return max(1, pairs // 3), 2 * pairs


@dataclass(eq=False)
class _Part:
    """``count`` parts of a draw set fitted alike on one builder's columns:
    its ``columns`` within the set's (a slice, or for the capacity's target
    and neighbours at index gap +-1 a list, their draws round by round, the
    ``count`` neighbours' draws of a round in turn), which it copies out of
    the block's shifts into a kernel tile of its own; its ``build``, which
    writes a block's columns V, ``width`` a part: :func:`_near_columns`
    for a device's own path moments, :func:`_far_columns` for Taylor sums
    over its devices; the whole-number ``gaps`` its Taylor table is built
    on, 0 at a column it leaves out (none for a table-free part, which the
    near builder builds); ``held``, the doubles a block row its builder
    keeps across blocks; whether it is ``mirrored`` (the capacity's +-1
    and +-2 neighbours and mid part, and both interference parts): the kernel
    also evaluates its columns at the negated shifts, and its columns V
    are the means over its draws and their mirrors; whether it is the
    capacity's ``mid`` part, whose factor is the product of its devices'
    (:func:`_part_factors`); and whether it is
    ``summed`` (both interference parts), its powers each pair's mean, its
    sample being linear in them, so that the kernel forms each pair's sum
    at once (:func:`numerics.sinc_squared_pair`), where a capacity part's
    powers hold its columns' and then their mirrors', its factors the means
    over them.  ``V``, its store over a run, is the design [1, V] every
    fit reads (:func:`_device_powers`); and ``moments``, what a part's
    builder leaves of the block for the capacity's surrogates: a near
    part's m_2..m_6 of each of its columns, and the mid part's m_2 of each
    of its devices."""

    columns: slice | list
    build: Callable
    width: int
    held: int
    gaps: np.ndarray | None = None
    count: int = 1
    mirrored: bool = False
    mid: bool = False
    summed: bool = False
    V: np.ndarray | None = None
    moments: np.ndarray | None = None

    @functools.cached_property
    def table(self) -> np.ndarray | None:
        """Its (terms, columns) Taylor table (:func:`_taylor_table`), built
        on first use, so that counting bytes builds none."""
        return None if self.gaps is None else _taylor_table(self.gaps)


@dataclass(eq=False)
class _DrawSet:
    """Devices drawn by one sampler call: its band ``columns`` (devices,
    then any extra draws of a device), on at most ``rows`` trials a block
    (every trial, or :data:`_TAIL_DRAWS` rows of their own for a tail), an
    Exp(1) weight for each ``weighted`` column, drawn right after the
    shifts, and its ``parts``, which split its columns between them."""

    columns: np.ndarray
    rows: int
    weighted: np.ndarray
    parts: list[_Part]

    def draws(self, trials: int) -> int:
        """Its draws over a run of ``trials`` trials (its rows are at most a block's)."""
        return trials // BLOCK_TRIALS * self.rows + min(trials % BLOCK_TRIALS, self.rows)


def _layout(estimator: str, index_gaps: np.ndarray, paths: int) -> list[_DrawSet]:
    """The draw sets of ``estimator`` over a band of devices at
    whole-number ``index_gaps`` from the target, of ``paths`` paths.

    "devices" (:func:`_device_estimates`): one set of one part, a part
    record for each device, of its own centred path moments m_2..m_6, the
    first 5 near columns (:func:`_near_columns`).  "interference": the
    interferers within index gap K_I of the target on every trial, then the
    tail beyond it on :data:`_TAIL_DRAWS` rows, each set one mirrored and
    summed part of its 9 Taylor sums (:func:`_far_columns`, unweighted), if
    the band holds any; neither draws the target.  "capacity": its
    main draws, the target and its neighbours at index gap +-2, then those
    at +-1, the mid devices at index gap 3..K, P - 1 more rounds of the
    neighbours at +-1 and R_0 - 1 more of the target
    (:func:`_capacity_draws`), in up to four parts: the target's, its R_0
    rounds (:func:`_near_devices`, :func:`_near_columns`), unmirrored;
    the +-2 neighbours', one round of draws, and the +-1 neighbours', their
    P rounds, each mirrored, if the band holds any; and the mid devices'
    (:func:`_far_columns`), mirrored, if the band holds devices beyond
    them, whose fading is averaged exactly like the near devices'; then,
    if the band has devices beyond index gap K, the tail's, one far-style
    part, unmirrored.  Only its tail draws weights, and a far-style part's
    table is built on its own devices' gaps, so that its rows keep their
    rank there."""
    columns, moments = np.arange(index_gaps.size), len(_ORDERS)
    if estimator == "devices":
        return [_DrawSet(columns, BLOCK_TRIALS, columns < 0,
                         [_Part(slice(0, columns.size), _near_columns, moments,
                                moments * columns.size, count=columns.size)])]
    far = abs(index_gaps)
    if estimator == "interference":
        return [_DrawSet(columns[kept], rows, columns[kept] < 0,
                         [_Part(slice(0, count), _far_columns, len(_TERMS), len(_TERMS),
                                index_gaps[kept], mirrored=True, summed=True)])
                for kept, rows in (((far != 0.0) & (far <= _ICI_TAIL_GAP), BLOCK_TRIALS),
                                   (far > _ICI_TAIL_GAP, _TAIL_DRAWS))
                if (count := np.count_nonzero(kept))]
    target, devices = int(np.flatnonzero(far == 0.0)[0]), index_gaps.size
    near = _near_devices(target, devices)
    twos, ones = ([c for c in near if far[c] == gap] for gap in (2, 1))
    mid = np.flatnonzero((far > 2) & (far <= _TAIL_GAP))
    target_rounds, draws = _capacity_draws(devices // 2)
    main = np.array([target] + twos + ones + mid.tolist() + ones * (draws // 2 - 1)
                    + [target] * (target_rounds - 1), dtype=int)
    quadratic = len(_TERMS) + 2  # the Taylor sums, c_0^2 and c_0 c_(4,2) (:func:`_far_columns`)
    start = 1 + len(twos) + len(ones)  # of the mid part
    stop, width = start + mid.size, _near_means(paths).size
    further = main.size - target_rounds + 1  # the target's further rounds, after the +-1's
    parts = [_Part([0] + list(range(further, main.size)), _near_columns, width,
                   moments * target_rounds)]
    if twos:
        parts.append(_Part(slice(1, 1 + len(twos)), _near_columns, width, moments * len(twos),
                           count=len(twos), mirrored=True))
    if ones:
        drawn = list(range(1 + len(twos), start)) + list(range(stop, further))
        parts.append(_Part(drawn, _near_columns, width, moments * len(drawn), count=len(ones),
                           mirrored=True))
    if mid.size:
        parts.append(_Part(slice(start, stop), _far_columns, quadratic, len(_TERMS) + mid.size,
                           index_gaps[mid], mirrored=True, mid=True))
    sets = [_DrawSet(main, BLOCK_TRIALS, main < 0, parts)]
    tail = np.flatnonzero(far > _TAIL_GAP)
    if tail.size:
        sets.append(_DrawSet(tail, _TAIL_DRAWS, tail >= 0,
                             [_Part(slice(0, tail.size), _far_columns, quadratic + 1, len(_TERMS),
                                    index_gaps[tail])]))
    return sets


def _parts(sets: list[_DrawSet]) -> list[tuple[_DrawSet, _Part]]:
    """Each part of the draw ``sets`` with its set, in order."""
    return [(ds, part) for ds in sets for part in ds.parts]


def _tile_shapes(trials: int, sets: list[_DrawSet], paths: int) -> list[tuple[int, int, int]]:
    """Each part's largest kernel tile, (rows, devices, paths), on its set's
    rows of a block of a run of ``trials`` trials (:func:`_device_powers`)."""
    return [(row_tiles(min(trials, ds.rows), size * paths)[0].stop, size, paths)
            for ds, part in _parts(sets) for size in [ds.columns[part.columns].size]]


def _factor_edges(sets: list[_DrawSet], trials: int, nodes: int) -> list[int]:
    """Where the capacity's factor pass lays out its arrays in the block
    buffer (:func:`estimate_ergodic_capacity`), each on a 64-byte boundary:
    the start of each part's (count, rows, ``nodes``) table on its set's
    rows of a block of a run of ``trials`` trials, then of the scratch rows
    (:func:`_scratch_rows`), and last the doubles they take."""
    sizes = [part.count * min(trials, ds.rows) * nodes for ds, part in _parts(sets)] \
        + [_scratch_rows(sets) * min(trials, sets[0].rows) * nodes]
    return np.cumsum([0] + [-(-size // 8) * 8 for size in sizes]).tolist()


def _scratch_rows(sets: list[_DrawSet]) -> int:
    """Rows of scratch the capacity's factor tables take
    (:func:`_part_factors`): six with a mid part, for the running products
    of its draw, its mirror and its surrogate and for a pair of its
    devices' factors of each; else two if a part is mirrored; else one if
    the target takes further rounds of draws; none otherwise.  The target
    forms in them the tables of its further rounds, as many at a time as
    they hold, and a mirrored near part its pairs' quotients and its
    surrogates' on the whole rule, a numerator and a denominator a pair,
    half the rows each."""
    (_, target), *parts = _parts(sets)
    rows = 6 if any(part.mid for _, part in parts) else 2 * any(part.mirrored for _, part in parts)
    return max(rows, int(len(target.columns) > 1))


def _line_doubles(part: _Part, size: int) -> int:
    """Doubles a trial that :func:`_part_factors` holds at most for the
    lines of ``part``, of ``size`` columns: for the mid part's, 9 a pair of
    its devices (its draw, its mirror and its surrogate, (b_i b_j, b_i +
    b_j, 1) each), and 3 a device, its draw's and its mirror's b_j and its
    surrogate's c k m_(2,j) / n_j^2 over the lines' scale
    (:func:`_line_scale`); for a mirrored near part, 15 a drawn column of
    a chunk of at most :data:`_LINE_PAIRS`: its surrogates' lines, (1, v,
    .., v^5) a pair of each of two rows, and three temporaries of the
    pair's m_p (:func:`_surrogate_sums`), after its pairs' lines (s, 2) and
    (p, s, 1), 5 a pair, and their two temporaries have gone
    (:func:`_pair_sums`); 2 a round of the target, (1, 1 / u) scaled, and
    2 for the tail's one line."""
    if part.mid:
        return 9 * -(-size // 2) + 3 * size
    return 15 * min(size, _LINE_PAIRS) if part.mirrored else 2 * size if part.gaps is None else 2


@functools.cache  # the sweep asks at every grid point, mostly with the same arguments
def block_bytes(devices: int, paths: int, snr: float | None = None) -> int:
    """Bytes of the arrays :func:`_device_powers` holds at once for
    ``devices`` devices of ``paths`` paths sharing one gap vector, counted
    from the draw sets of a centred target, which hold the most
    (:func:`_layout`; the capacity's, with ``snr`` its P_T over the noise,
    else the interference's): per part a block's shifts of its columns,
    its powers (a mirrored part's on its columns and their mirrors, unless
    :attr:`_Part.summed`) and what its builder holds across blocks (a near
    part's five path moments a column, a far-style part's nine Taylor sums
    a row and the mid part's m_2 a device), and the tail's weights; the
    interference's kernel workspace, four tiles of the largest part's
    (:func:`_tile_shapes`), five with a summed part, and a gap tile a part
    (:func:`_device_powers`), or the capacity's block buffer, the larger of
    the kernel's four tiles and one gap tile and of the factor pass's
    tables on the rule at that SNR (:func:`numerics.hamdi_rule`) and its
    scratch rows (:func:`_factor_edges`, :func:`_scratch_rows`; the mid
    part's running products); one tile more for the kernel's centre mask
    and the per-device vectors; and the largest of a set's sampler (a slot
    for its speed fractions and two scratch tiles of the set's), the shifts
    of a set of several parts, held while they copy theirs out, and, for
    the capacity, its average.  Either estimator holds across blocks its
    Taylor tables and gaps (11 doubles a device).  A capacity block also
    holds, across blocks, the folds' grams of each part's design [1, V]
    (:func:`_fold_solver`); its average, once the sampler has let go of its
    slot and tiles, holds beside the block buffer the lines of one part,
    the most (:func:`_line_doubles`), 26 more doubles a trial and the
    buffer numpy takes for a broadcast update of a table
    (:func:`numpy.getbufsize` doubles), and one part's fold sums or slopes
    beyond those the run keeps, the largest (:func:`_fold_sums`)."""
    sets = _layout("interference" if snr is None else "capacity",
                   subcarrier_gaps(0, devices // 2), paths)
    parts = [(ds, part, ds.columns[part.columns].size) for ds, part in _parts(sets)]
    tiles = [math.prod(shape) for shape in _tile_shapes(BLOCK_TRIALS, sets, paths)]
    tile = max(tiles, default=0)
    kernel = (4 + any(part.summed for _, part, _ in parts)) * tile + sum(tiles)
    sampler = max((ds.rows * ds.columns.size
                   + 2 * row_tiles(ds.rows, ds.columns.size * paths)[0].stop
                   * ds.columns.size * paths for ds in sets), default=0)
    copied = max((ds.rows * ds.columns.size * paths for ds in sets if len(ds.parts) > 1),
                 default=0)
    draws = sum(ds.rows * size * (paths + 1 + part.mirrored - part.summed)
                for ds, part, size in parts) \
        + sum(ds.rows * ds.columns.size for ds in sets if ds.weighted.any())
    held = (len(_TERMS) + 2) * devices + sum(ds.rows * part.held for ds, part, _ in parts)
    average = 0
    if snr is not None:
        nodes = hamdi_rule(snr)[0].size
        held += _FOLDS * sum(part.count * (part.width + 1) ** 2 for _, part, _ in parts)
        kernel = max(5 * tile, _factor_edges(sets, BLOCK_TRIALS, nodes)[-1])
        average = BLOCK_TRIALS * (26 + max(_line_doubles(part, size) for _, part, size in parts)) \
            + np.getbufsize() \
            + _FOLDS * max(part.count * (part.width + 1) for _, part, _ in parts) * nodes
    return 8 * (draws + kernel + tile + max(sampler, copied, average) + held)


def run_bytes(trials: int, scenarios: int, devices: int, paths: int,
              snr: float | None = None) -> int:
    """Bytes an estimator holds at most for a group of ``scenarios`` over
    ``trials`` trials, counted from the parts of the draw sets as
    :func:`block_bytes` counts them: what the run keeps of each part, its
    store [1, V] (:func:`_device_powers`) and per draw each scenario's
    samples, one a part record, and the larger of two: a block
    (:func:`block_bytes`, the capacity's with ``snr``, its one block
    buffer among them) with, for the capacity, each scenario's node sums
    on its rule, the fold sums of
    [1, V_i]^T F_i (:func:`_fold_sums`) and three vectors a part record,
    which go once the scenario's last block is done, and its surrogates'
    nine vectors on the rule, the near parts' exact means and the mid
    part's mean and three bases, with 1 kB for their records
    (:func:`_surrogates`); or, after the blocks, the fit: 5 doubles a draw
    and part record of one scenario's temporaries (:func:`_residuals`)."""
    sets = _layout("interference" if snr is None else "capacity",
                   subcarrier_gaps(0, devices // 2), paths)
    parts = [(ds.draws(trials), part) for ds, part in _parts(sets)]
    nodes = 0 if snr is None else hamdi_rule(snr)[0].size
    kept = sum(part.count * (-(-draws // _FOLDS) * _FOLDS * (part.width + 1) + draws * scenarios)
               for draws, part in parts)
    node_sums = 0 if snr is None else scenarios * (
        nodes * (9 + sum(part.count * (_FOLDS * (part.width + 1) + 3) for _, part in parts))
        + 128)
    fit = sum(draws * 5 * part.count for draws, part in parts)
    return 8 * (kept + max(block_bytes(devices, paths, snr) // 8 + node_sums, fit))


def _near_columns(part, shift, tiles, weights, space, work, rows):
    """Write the block's (trials, count, width) columns V_i of a near part
    into its store's ``rows``, each of mean exactly 0, scenario-free and of
    device i's draws alone: the first ``part.width`` of m_2..m_6, m_2^2,
    m_2 m_3, m_2 m_4 and m_3^2 less their means (:data:`_NEAR_MONOMIALS`,
    :func:`_near_means`), m_p = mean_m z^p of each of the part's columns,
    averaged over each device's rounds of draws (:func:`_layout`): all 9
    for a capacity near part (the target, the +-2 or the +-1
    neighbours), the first five at one path, and the five path moments
    for each device of a power estimator's.  A mirrored part's columns are
    the means over its pairs: m_p(-z) = (-1)^p m_p(z), so its even
    monomials are those of its draws and its odd ones (m_3, m_5 and m_2
    m_3) exactly 0."""
    moments = _path_moments(shift, tiles, work, space[0])
    part.moments = moments
    means = _near_means(shift.shape[2])
    near = part.V[rows, :, 1:]
    for row, orders in enumerate(_NEAR_MONOMIALS[:part.width]):
        values = moments[orders[0] - 2]
        if len(orders) == 2:
            values = values * moments[orders[1] - 2]
        np.subtract(values.reshape(len(shift), -1, part.count).mean(axis=1), means[row],
                    out=near[..., row])
    if part.mirrored:
        near[..., [row for row in _ODD_NEAR if row < part.width]] = 0.0


def _far_columns(part, shift, tiles, weights, space, work, rows):
    """Write the block's (trials, 1, width) columns V of a far-style part
    (either interference part, or the capacity's mid part or tail) into its
    store's ``rows``, of mean exactly 0: for each term (p, e) of
    :data:`_TERMS`, sum_j n_j^-e (w_j m_(p,j) - E[m_p]), n_j^-e its table
    and w_j its Exp(1) weights, or 1 for a part whose devices draw none
    (the interference's, whose 9 columns are these, and the mid part's);
    then, for the tail, which draws weights, sum_j n_j^-2 (w_j - 1); and,
    for the capacity's, c_0^2 and c_0 c_(4,2) less their means, c_0 the
    term (2, 2): the devices and their weights being independent,
    E[c_0 c] = sum_j n_j^-2 n_j^-e (E[w^2] E[m_2 m_p] - E[m_2] E[m_p]),
    E[w^2] = 2, or 1 without weights.  The sums over the devices are
    formed a tile at a time, z^p in ``space[0]`` and each order's moments
    in ``space[1]``, and reduced at once, so that no block-sized moment is
    held; the mid part also keeps each device's m_2 in ``work`` for its
    surrogate (:attr:`_Part.moments`).  A mirrored part's columns are the
    means over its pairs: those of its odd orders p are exactly 0, and the
    rest those of its drawn draws."""
    table, paths, trials = part.table, np.ones(shift.shape[2]), len(shift)
    orders = [(p, _TERM_ORDERS == p, table[_TERM_ORDERS == p]) for p in _ORDERS]
    far_terms = work[:trials * len(_TERMS)].reshape(trials, len(_TERMS))
    second = work[far_terms.size:].reshape(trials, -1) if part.mid else None
    for tile in tiles:
        z = shift[tile]
        n, devices = z.shape[:2]
        power = np.multiply(z, z, out=space[0, :n, :devices])
        moment = space[1].reshape(-1)[:n * devices].reshape(n, devices)
        for p, terms, weights_of_terms in orders:
            if p > 2:
                power *= z
            if p % 2 and part.mirrored:
                far_terms[tile, terms] = 0.0
                continue
            np.matmul(power, paths, out=moment)  # twice as fast as einsum here
            if second is not None and p == 2:
                second[tile] = moment
            if weights is not None:
                moment *= weights[tile]
            # one product a trial, so that no value depends on the tile
            far_terms[tile, terms] = (weights_of_terms @ moment[..., None])[..., 0]
    far_terms /= paths.size
    if second is not None:
        second /= paths.size
        part.moments = second[None]
    far = part.V[rows, 0, 1:]
    terms = far[:, :len(_TERMS)]
    # a column at a time: a row of means subtracted into the strided store
    # makes numpy buffer both operands at the block's size
    for column, sums, mean in zip(terms.T, far_terms.T,
                                  _MOMENT_MEANS[_TERM_ORDERS - 2] * table.sum(axis=1)):
        np.subtract(sums, mean, out=column)
    if part.width == len(_TERMS):
        return
    if weights is not None:
        far[:, -3] = weights @ table[0] - table[0].sum()
    for column, term in ((-2, 0), (-1, _TERMS.index((4, 2)))):
        p = _TERM_ORDERS[term]
        covariance = (1.0 + (weights is not None)) * _monomial_mean((2, p), paths.size) \
            - _MOMENT_MEANS[0] * _MOMENT_MEANS[p - 2]
        far[:, column] = terms[:, 0] * terms[:, term] - table[0] @ table[term] * covariance


def _device_powers(plan: TrialPlan, cell: CellConfig, scenarios, gaps, sets, lent=None):
    """Yield ``(k, rows, powers, weights)`` for scenario k, each but k a
    list over the parts of the draw ``sets`` (:func:`_layout`), set by set:
    its set's trials ``rows``; its per-(trial, column) power on the target
    sub-carrier, in a buffer the next step overwrites, its columns' and
    then, for a mirrored part, their mirrors'; and its columns' Exp(1)
    weights, or None if none of them draws one.  Each part's ``build``
    writes a block's columns V into ``part.V``, its store allocated here:
    the design [1, V] of the run, zero rows padding the draws to a
    multiple of 8, which :func:`_by_fold` reads as it is.  The arrays held
    at once are those :func:`block_bytes` counts.

    Each block draws its sets in turn, a set's weights right after its
    shifts, the first set on every trial of the block and any after it on
    min(block, 32) rows of their own (:data:`_TAIL_DRAWS`); each part then
    copies its own columns out of its set's shifts, in its order, and the
    set's array is let go, so the sampler, the kernel and the columns see
    a part's devices on its set's rows alone, in a tile of their own; the
    columns do not depend on the scenario.  It then evaluates each scenario
    in turn, so no value depends on the group.  Path m of a device shifts
    by d_m = x z_m, x = V_max f_c T_s / c the scenario's span
    (:meth:`SystemConfig.doppler_span`) and z_m = u cos psi_m the
    scenario-free shift (:func:`sysmodel.sample_cell_batch`, the one place
    that forms it); since |z| < 1 and rounding is monotone, every
    |fl(x z)| is within x.  The mean over paths of sinc(gap + d_m)^2 is a
    device's expected power given its shifts; times its weight it follows
    the law of the squared complex path sum.  ``gaps[k]`` holds scenario
    k's integer sub-carrier distances scaled by T_s * df, so a static
    network cancels exactly.  The kernel is sized to each scenario's own
    span (:func:`numerics.sinc_squared`), a static scenario skips it for
    the exact values it would return, and each row's path sum is taken
    within its tile, so neither the group, the part nor the tile size
    changes a value.  A mirrored part's mirrors are its columns at the
    shifts -z_m, which follow the same law (Glasserman 2003, section 4.2):
    the sampler draws only the columns, and the kernel gives the mirrors
    from the same sines, bit for bit its values at the negated offsets, in
    its last scratch tile.  A summed part (:attr:`_Part.summed`, the
    interference's) keeps each pair's mean alone: where its offsets are
    their own r (a span of at most 1/2, so that every gap is at least twice
    the span) the kernel forms each pair's sum in one pass on (pi g)^2 / 2
    (:func:`numerics.sinc_squared_pair`), and elsewhere adds the two-sided
    kernel's mirror to its values.  The kernel runs in a workspace
    allocated once per call: the offsets, output and scratch tiles, sized
    to the largest part's (:func:`_tile_shapes`), a fifth into which a
    summed part broadcasts its gaps for the two-sided kernel, if a part is
    summed, and one (rows, columns, paths) tile per part and distinct gap
    vector, of its gaps or, for a summed part, of (pi g)^2 / 2; the
    builders form z^p tile by tile in the offsets and output tiles, so no
    block-sized z^p is ever formed.  A caller may instead lend the
    workspace, ``lent``, a 64-byte aligned array of at least five of the
    largest tiles, which it may overwrite between two yields (the
    capacity's factor pass, :func:`estimate_ergodic_capacity`): then no
    part keeps a gap tile, and each broadcasts its gaps into the fifth
    tile for every scenario, so that the kernel reads nothing the caller
    left there.

    Every estimator subtracts its zero-mean columns times cross-fitted
    slopes (Glasserman 2003, section 4.1; :func:`_fold_solver`), part by
    part.
    """
    paths = cell.paths_per_device
    spans = [cfg.doppler_span(mob.max_velocity_mps) for cfg, mob in scenarios]
    parts = _parts(sets)
    rows_of = [min(plan.trials, ds.rows) for ds, _ in parts]  # each part's rows a block, at most
    columns = [ds.columns[part.columns] for ds, part in parts]  # each part's devices
    for ds, part in parts:
        draws = ds.draws(plan.trials)
        part.V = np.zeros((draws - draws % -_FOLDS, part.count, 1 + part.width))
        part.V[:draws, :, 0] = 1.0
    gaps = [[gap[devices] for devices in columns] for gap in gaps]
    # each part's powers; each set's weights, if a column draws one (0 at
    # a column that draws none); and what each part's builder holds across
    # blocks
    buffers = [np.zeros((n, devices.size * (1 + part.mirrored - part.summed)))
               for n, devices, (_, part) in zip(rows_of, columns, parts)]
    set_weights = [np.zeros((min(plan.trials, ds.rows), ds.columns.size))
                   if ds.weighted.any() else None for ds in sets]
    held = [np.empty(part.held * n) for n, (_, part) in zip(rows_of, parts)]
    # the kernel's workspace, sized to the largest tile (the first of the
    # first block): four tiles, and a fifth for the gaps of a part that
    # keeps no gap tile, a summed part's for the two-sided kernel or every
    # part's in a ``lent`` workspace; the gaps come as full tiles because
    # numpy adds a row broadcast over the short path axis about three times
    # slower
    tile_shapes = _tile_shapes(plan.trials, sets, paths)
    count = 4 + (lent is not None or any(part.summed for _, part in parts))
    workspace = _aligned_empty((count * max((math.prod(shape) for shape in tile_shapes),
                                            default=0),)) if lent is None else lent
    workspaces = [workspace[:count * math.prod(shape)].reshape((count,) + shape)
                  for shape in tile_shapes]
    # per scenario and part: whether it takes the pair form, as a summed
    # part does wherever its offsets are their own r (a span of at most 1/2,
    # so that every whole |g| >= 1 is at least twice the span, as the pair
    # form needs), and the gap tile it shares with the scenarios of the same
    # gaps: of (pi g)^2 / 2 for the pair form and of the gaps for a part
    # that is not summed; a summed part that takes the two-sided kernel, and
    # every part of a lent workspace, broadcasts its gaps into the fifth
    # workspace tile instead, scenario by scenario
    gap_tiles, shared = [], {}
    for scenario_gaps, span in zip(gaps, spans):
        gap_tiles.append([])
        for i, (gap, shape) in enumerate(zip(scenario_gaps, tile_shapes)):
            summed = parts[i][1].summed
            paired = summed and span <= 0.5
            key = (i, gap.tobytes())
            sharing = lent is None and span != 0.0 and (paired or not summed)
            if sharing and key not in shared:
                tile = (math.pi * gap) ** 2 / 2.0 if paired else gap
                shared[key] = np.broadcast_to(tile[:, None], shape).copy()
            gap_tiles[-1].append((paired, shared[key] if sharing else None))
    key = shared = None  # the keys copy the gaps
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        draws = []  # per part: its rows, shifts, tiles and weights
        for ds, weights in zip(sets, set_weights):
            n = min(size, ds.rows)
            shift = sample_cell_batch(rng, n, ds.columns.size, cell)
            if weights is not None:
                weights = weights[:n]
                weights[:, ds.weighted] = rng.standard_exponential(
                    (n, np.count_nonzero(ds.weighted)))
            rows = slice(block * ds.rows, block * ds.rows + n)  # every block but the last is full
            for part in ds.parts:
                own = np.ascontiguousarray(shift[:, part.columns])
                draws.append((rows, own, row_tiles(n, own.shape[1] * paths),
                              weights[:, part.columns] if ds.weighted[part.columns].any()
                              else None))
            shift = own = None  # kept only by a part that holds the set's every column
        for (_, part), (rows, shift, tiles, weights), space, work in zip(parts, draws, workspaces,
                                                                          held):
            part.build(part, shift, tiles, weights, space, work[:part.held * len(shift)], rows)
        for k, span in enumerate(spans):
            for i, (_, shift, tiles, _) in enumerate(draws):
                powers, drawn = buffers[i][:len(shift)], shift.shape[1]
                if span == 0.0:
                    # what the kernel gives a static network: 1 on the centre, 0 off it
                    powers.reshape(len(shift), -1, drawn)[:] = gaps[k][i] == 0.0
                    continue
                offsets, kernel, work = workspaces[i][0], workspaces[i][1], workspaces[i][2:4]
                (paired, gap_tile), part = gap_tiles[k][i], parts[i][1]
                if gap_tile is None:  # a summed part's two-sided gaps, or a lent workspace's
                    gap_tile = workspaces[i][4]
                    gap_tile[:] = gaps[k][i][:, None]
                for rows in tiles:
                    n = rows.stop - rows.start
                    offset = np.multiply(shift[rows], span, out=offsets[:n])
                    gap = gap_tile[:n]
                    if paired:
                        values = sinc_squared_pair(gap, offset, span, kernel[:n], work[:, :n])
                    elif part.mirrored:  # the mirrors' powers from the same sines, in work[1]
                        values, mirror = sinc_squared(gap, offset, span, kernel[:n], work[:, :n],
                                                      work[1, :n])
                        if part.summed:
                            values += mirror
                        else:
                            np.einsum("tdm->td", mirror, out=powers[rows, drawn:])
                    else:
                        values = sinc_squared(gap, offset, span, kernel[:n], work[:, :n])
                    np.einsum("tdm->td", values, out=powers[rows, :drawn])
                powers /= paths * (1 + part.summed)
            yield (k, [draw[0] for draw in draws],
                   [buffer[:len(draw[1])] for buffer, draw in zip(buffers, draws)],
                   [draw[3] for draw in draws])
        draws = shift = None  # so that a block's draws never overlap the next one's


# ===========================================================================
# estimators
# ===========================================================================

def _power_residuals(plan: TrialPlan, cell: CellConfig, scenarios, gaps, sets):
    """Yield, for each scenario in turn, the residuals of each part of the
    draw ``sets`` (:func:`_layout`), a (draws, count) array: a draw of a
    part record gives the power its columns deposit on the target
    sub-carrier, times P_T, less its fitted columns (:func:`_fitted`)."""
    parts = _parts(sets)
    samples = [[np.empty((ds.draws(plan.trials), part.count)) for ds, part in parts]
               for _ in scenarios]
    for k, rows, powers, _ in _device_powers(plan, cell, scenarios, gaps, sets):
        for (_, part), sample, r, p in zip(parts, samples[k], rows, powers):
            sample[r] = p.reshape(len(p), part.count, -1).sum(axis=2) \
                * scenarios[k][0].effective_power
    powers = p = None  # let the last block go before the fit
    fits = [_fitted(part.V, [y[i] for y in samples]) for i, (_, part) in enumerate(parts)]
    for _ in scenarios:
        yield [next(fit) for fit in fits]


def estimate_total_ici(plan: TrialPlan, cfg: SystemConfig | list[SystemConfig],
                       cell: CellConfig, mob: MobilityModel | list[MobilityModel]
                       ) -> Estimate | list[Estimate]:
    """Monte Carlo mean of the interference power collected on the target
    sub-carrier from the other 2N devices.

    Converges to :func:`analytic.finite_n_ici` at the same N.  The
    interferers fall in two independent parts (:func:`_layout`): those
    within index gap K_I = 3 of the target, drawn on every trial, and the
    tail beyond, drawn on 32 trials a block of its own
    (:data:`_TAIL_DRAWS`), which after the fit holds at most about a third
    of the variance at fig3's points while being 42 of the 48 interferers
    at N = 24.  Each part is mirrored: the shift z = u cos psi has a law
    symmetric about 0, so a draw's mirror -z is a draw of the same law
    (Glasserman 2003, section 4.2), and each draw of a part takes the mean
    of its interferers' powers at z and -z, which the kernel forms from one
    sine series and one denominator pass (:func:`numerics.sinc_squared_pair`)
    where the span is at most 1/2, and from the two-sided kernel beyond it
    (:func:`_device_powers`).  The mean stays exactly unbiased, and the
    pair cancels every odd order of the kernel's Taylor series in the path
    offsets, which no column can fit: the mean over a pair of sinc^2(g + d)
    is sin^2(pi d) (g^2 + d^2) / (pi^2 (g^2 - d^2)^2), even in d.  Each
    draw of a part sums those pair means less its fitted columns sum_j
    n_j^-e (mean_m z_jm^p - E[z^p]) over its interferers, one per term (p,
    e) of the kernel's Taylor series of even order p, those of odd order
    being exactly 0 (:func:`_far_columns`, as for the capacity's far
    devices but unweighted), the part's own table (:func:`_taylor_table`)
    and folds (:func:`_fitted`); neither needs a quadrature.  The estimate is
    the sum of the two part means, exactly unbiased, and its standard error
    sqrt(sum_i var(r_i) / n_i) over the parts' residuals r_i and draw
    counts n_i (:func:`_std_error`).  A static network, or N = 0, gives
    exactly zero.
    ``cfg`` and ``mob`` may be equal-length sequences of scenarios sharing
    ``half_subcarriers``; they are evaluated on one set of draws, and the
    result is a list of estimates, each equal to the estimate of its
    scenario alone.
    """
    scenarios, single = _group(cfg, mob)
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    sets = _layout("interference", subcarrier_gaps(plan.target_index, n), cell.paths_per_device)
    estimates = [Estimate(math.fsum(r.mean() for r in residuals), _std_error(residuals),
                          plan.trials)
                 for residuals in _power_residuals(plan, cell, scenarios, gaps, sets)]
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
    (:func:`_fitted`), each device a part record of one part
    (:func:`_layout`)."""
    sets = _layout("devices", gaps, cell.paths_per_device)
    [[residuals]] = _power_residuals(plan, cell, [(cfg, mob)], [gaps], sets)
    return [_reduce(np.ascontiguousarray(values)) for values in residuals.T]


def _by_fold(values: np.ndarray) -> np.ndarray:
    """(parts, folds, rows, ...): the (trials, parts, ...) ``values`` by
    fold, trial i in fold i mod :data:`_FOLDS`; zero rows, which add
    nothing to a sum, pad the trials to a multiple of 8 (a part's store
    has them already, and is read as a view)."""
    short = -len(values) % _FOLDS
    if short:
        values = np.concatenate([values, np.zeros((short,) + values.shape[1:])])
    return np.moveaxis(values.reshape((-1, _FOLDS) + values.shape[1:]), (0, 2), (2, 0))


def _fold_sums(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(parts, folds, 1 + variates, nodes): for each part and fold, the sum
    over the fold's trials of A^T F, A = ``design`` (trials, parts, 1 +
    variates) of a block and F = ``values`` (parts, trials, nodes); a
    block starts on a multiple of 8, so its trial i is in fold i mod 8.
    The whole rounds of 8 trials are folded as views, and the trials after
    them added one fold each, so no block-sized array is copied."""
    whole = len(design) - len(design) % _FOLDS
    rounds = (whole // _FOLDS, _FOLDS)
    folded = values[:, :whole].reshape(values.shape[:1] + rounds + values.shape[2:])
    sums = design[:whole].reshape(rounds + design.shape[1:]).transpose(2, 1, 3, 0) \
        @ folded.transpose(0, 2, 1, 3)
    for i in range(whole, len(design)):  # a trial at a time, so that no temporary is large
        sums[:, i - whole] += design[i, :, :, None] @ values[:, i, None]
    return sums


def _fold_solver(gram: np.ndarray):
    """The slopes of each fold from ``gram[i, f]`` = A^T A over fold f,
    A = [1, V_i]: a function of ``cross[i, f, :, k]`` = A^T y, y part i of
    sample k less its first trial's (so a static network gets exactly 0),
    whose slopes[i, f, :, k] are what fold f of part i subtracts per unit
    of its columns V_i: the least-squares slopes, with an intercept, of y
    on V_i over the other folds, which never see fold f's draws of part i
    (cross-fitting; E[V_i] = 0), or 0 if they hold fewer than 2 trials a
    column of V_i.  An all-zero column gets a zero slope, and so does the
    intercept, which is fitted, not subtracted.  The other folds' matrices
    do not depend on the sample: one inverse each, for every sample the
    function is given.  It overwrites ``cross``."""
    size = gram.shape[-1]
    others = gram.sum(axis=1, keepdims=True) - gram
    few = others[..., 0, 0] < 2 * (size - 1)
    pivots = np.arange(size)
    others[..., pivots, pivots] += others[..., pivots, pivots] == 0.0
    others[few] = np.eye(size)
    inverse = np.linalg.inv(others)

    def slopes(cross: np.ndarray) -> np.ndarray:
        fitted = np.subtract(cross.sum(axis=1, keepdims=True), cross, out=cross)
        fitted[few] = 0.0
        beta = inverse @ fitted
        beta[:, :, 0] = 0.0
        return beta
    return slopes


def _residuals(design: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """y - V beta for the (trials, parts) ``y``: V the columns of the
    by-fold ``design``, a part's store read by :func:`_by_fold`, and
    beta[i, f] the slopes of part i's fold f (:func:`_fold_solver`)."""
    # V beta per (part, fold, row), transposed back to trial order
    fit = (design[..., 1:] @ beta[:, :, 1:, None])[..., 0]
    return y - fit.transpose(2, 1, 0).reshape(-1, y.shape[1])[:len(y)]


def _fitted(store: np.ndarray, samples):
    """Yield, for each (trials, parts) array y of ``samples`` in turn, its
    residuals y - V beta: V the zero-mean columns of a part's ``store``
    [1, V] and beta the slopes of the trial's fold and part
    (:func:`_fold_solver`), each part fitted on its own columns.  Each y's
    cross products and residuals are formed alone, so a scenario keeps its
    bits in a group and its temporaries are the size of one sample."""
    design = _by_fold(store)
    solve = _fold_solver(design.swapaxes(2, 3) @ design)
    for y in samples:
        cross = (_by_fold(y - y[0])[..., None, :] @ design)[..., 0, :, None]
        yield _residuals(design, y, solve(cross)[..., 0])


def _part_factors(part, powers, weights, state, surrogate, out, scratch):
    """Capacity part ``part``'s (count, trials, nodes) factor table on
    ``state``'s rule (:func:`numerics.hamdi_factors`) in ``out``, from its
    columns' ``powers``, which it overwrites: a near part's row for each of
    its devices, 1 / (1 + t b), b the device's faded power over the noise,
    but the target's C = 1 / (t + 1 / u), u its SNR, one matmul of its
    lines (1, 1 / u) with the basis (t, 1) and one reciprocal, with no
    broadcast update, its row the mean over its rounds of draws (the first
    alone in a static scenario, which keeps it exact); the mid part's one row, the
    product of its devices' rows; the tail's one row, e^(-t a), a its
    columns' drawn interference over the noise, their powers times their
    ``weights``.  A mirrored part's rows are the means over its draws and
    their mirrors: a near part's sums over each pair of a draw and its
    mirror, one quotient a pair (:func:`_pair_sums`), are formed in
    ``scratch`` a few pairs at a time and added in pair by pair, so no
    table of every draw is held, and the
    mid part's draw and mirror are running products in ``scratch``, one
    matmul of the lines (b_i b_j, b_i + b_j, 1) of two devices i and j
    with the basis (t^2, t, 1) and one multiply a pair (a device left over
    takes (0, b_i, 1)), and one reciprocal; the lines are over the scale
    of :func:`_line_scale` and the nodes times it, which is exact, and
    each line is at least 1.  A
    static scenario forms the target's row alone (``out`` holding one
    row): every other factor is exactly 1.

    With a ``surrogate`` (a moving scenario's, :func:`_surrogates`), a
    mirrored part subtracts, at every node t of its window, twice each of
    its pairs' surrogates less their exact mean, which keeps its row's
    mean.  A neighbour at index gap +-n (n = 1, 2) subtracts at slope 1
    the mean over its pairs of S + r x^2 T + g U - s x^4 W + r^2 x^4 X +
    g^2 Y less its exact mean h_M(c) + r x^2 tau_M(c) + g upsilon_M(c) - s
    x^4 omega_M(c) + r^2 x^4 chi_M(c) + g^2 eta_M(c)
    (:func:`numerics.surrogate_mean` of each term's key), with
    c = t SNR x^2 / Q^2, Q = n q, r = pi^2 / 3 - 3 / Q^2, s = 5 / Q^4 -
    pi^2 / Q^2 + 2 pi^4 / 45, S = 1 / (1 + c m_2), T = c m_4 S^2, U = c^2
    m_3^2 S^3, W = c m_6 S^2, X = c^2 m_4^2 S^3 and Y = c^4 m_3^4 S^5 of
    the pair's path moments m_p, which a draw and its mirror share up to
    the sign of the odd ones: a pair's mean factor is 1 / (1 + E) + O^2 /
    (1 + E)^3 + O^4 / (1 + E)^5 + ..., E and O the even and odd parts of
    its draws' t SNR sinc^2(Q + x z), and to third order in the path
    offsets E = c (m_2 - r x^2 m_4 + s x^4 m_6) and O = -2 c x m_3 / Q, so
    g = 4 x^2 / Q^2 to leading order; g = 4 x^2 kappa(x, Q) / Q^2, kappa
    the Clarke scale of the odd part (:func:`numerics.odd_power_scale`), 1
    at x = 0, keeps U and Y from outgrowing the odd part where x nears Q.
    W and X, the even part's terms of third order, are left out (weight 0)
    at spans x > Q / 2, where its Taylor polynomial leaves the kernel
    (:data:`_EVEN_REACH`).  The
    mid part subtracts at slope 1 prod_j 1 / (1 + c k m_(2,j) / n_j^2)
    less prod_j h_M(c k / n_j^2), a third running product, even in the
    shifts too, with k = k(x) (:func:`numerics.doppler_power_scale`): to
    leading order sinc^2(n q + x z) = sin^2(pi x z) / (pi n q)^2.  Each
    surrogate follows its factor where that factor is far from polynomial
    in the path moments, and the columns then fit what is left."""
    nodes, basis, trials = state.rule[0], state.basis, len(powers)
    if weights is not None:  # the tail: its drawn interference
        powers *= weights
        far = powers.sum(axis=1)
        far *= state.snr
        return hamdi_factors(basis, np.empty((0, trials)), far, out)
    scale = _line_scale(state.snr)
    if part.mid:  # its draw, its mirror and its surrogate
        devices, size = powers.shape[1] // 2, 2 + (surrogate is not None)
        whole, pairs = devices // 2, -(-devices // 2)
        product, factor = scratch[:size], scratch[size:2 * size]
        # two devices i, j a line (b_i b_j, b_i + b_j, 1) of each row, a
        # device left over the line (0, b_i, 1)
        lines = np.zeros((pairs, size, trials, 3))
        lines[..., 2] = 1.0
        powers *= state.snr
        scaled = np.divide(powers, scale)
        rows = [scaled[:, :devices], scaled[:, devices:]]
        if surrogate is not None:
            rows.append(np.multiply(part.moments[0], surrogate.scale / scale))
            basis = surrogate.basis
        else:
            basis = _square_basis(nodes, scale)
        for row, values in enumerate(rows):
            np.multiply(values[:, 0:2 * whole:2], values[:, 1::2], out=lines[:whole, row, :, 0].T)
            np.add(values[:, 0:2 * whole:2], values[:, 1::2], out=lines[:whole, row, :, 1].T)
            if whole < pairs:
                lines[-1, row, :, 1] = values[:, -1]
        # a product past the double range is inf, whose reciprocal 0 is the
        # true one's underflow; each line is at least 1, so none is NaN
        with np.errstate(over="ignore"):
            for pair, line in enumerate(lines):
                np.matmul(line, basis, out=factor if pair else product)
                if pair:
                    product *= factor
        np.reciprocal(product, out=product)
        table = np.add(product[0], product[1], out=out[0])
        table *= 0.5
        if surrogate is not None:  # off its window the surrogate and its mean are both 1
            table -= np.subtract(product[2], surrogate.mean, out=product[2])
        return out
    draws = powers.T  # a row a column: its rounds of draws, then their mirrors
    draws *= state.snr
    if not part.mirrored:  # the target's part: C = 1 / (t + 1 / u), the mean over its rounds
        rounds = draws[:len(draws) if state.moving else 1]
        # the lines (s, s / u); each round's table is then C / s
        lines = np.full((len(rounds), trials, 2), scale)
        with np.errstate(divide="ignore", over="ignore"):  # u = 0 gives C = 0 exactly
            np.divide(scale, rounds, out=lines[..., 1])
        table = np.reciprocal(np.matmul(lines[0], basis, out=out[0]), out=out[0])
        step = max(1, len(scratch))  # as many rounds at a time as fit
        for start in range(1, len(rounds), step):
            chunk = scratch[:min(step, len(rounds) - start)]
            np.reciprocal(np.matmul(lines[start:start + len(chunk)], basis, out=chunk), out=chunk)
            for values in chunk:
                table += values
        table *= scale / len(rounds)
        return out
    drawn, pairs = len(draws) // 2, len(draws) // (2 * len(out))
    if surrogate is not None:
        # each neighbour's surrogates' basis (1, v, .., v^5), v = 1 / c,
        # which off the window is (0, .., 0, 1), so that a pair's numerator
        # is 0 there and the neighbour's whole row, contiguous, takes the
        # quotient (a strided update of the window alone takes two of
        # numpy's buffers), and the mean less 1 it adds back
        window = surrogate.window
        basis = np.zeros((6, nodes.size))
        basis[:, window] = np.reciprocal(nodes[window] * surrogate.scale) \
            ** np.arange(6.0)[:, None]
        basis[5, :window.start] = basis[5, window.stop:] = 1.0
        mean = np.zeros(nodes.size)
        mean[window] = surrogate.mean
    out[:] = 0.0
    for start in range(0, drawn, _LINE_PAIRS):
        stop = min(start + _LINE_PAIRS, drawn)
        _pair_sums(draws[start:stop], draws[drawn + start:drawn + stop], start, nodes, scale,
                   out, scratch)
        if surrogate is not None:
            _surrogate_sums(part.moments, start, stop, surrogate, basis, out, scratch)
    if surrogate is not None:
        out += (2.0 * pairs) * mean
    out /= 2.0 * pairs
    return out


def _pair_sums(drawn, mirrors, first, nodes, scale, out, scratch):
    """Add the sum over each pair of 1 / (1 + t b) + 1 / (1 + t b'), b each
    row of ``drawn`` and b' its mirror's, the same row of ``mirrors``, into
    ``out``, pair ``first`` + i to row (first + i) mod its rows: (2 + t s) /
    (1 + t s + t^2 p), s = b + b' and p = b b', one matmul each of the
    lines (s, 2) of every pair with the basis (t, 1) and of their lines (p,
    s, 1) with (t^2, t, 1), a few pairs at a time in ``scratch``, and one
    divide.  The lines are over ``scale`` and the nodes times it, a power of
    two near the square root of the SNR (:func:`_line_scale`), which is
    exact and keeps s, p, t^2 and t s finite at any SNR up to
    :data:`numerics.HAMDI_MAX_SCALE`; where t^2 p alone passes the double
    range the denominator is inf and the quotient 0, within 5e-7 of the true
    one (t b <= 4.3e301, so t b' > 4.2e6 there), at a node where the other
    factors of a trial, near 1 / (t b) alike, leave the integrand no
    weight."""
    count, trials = drawn.shape
    sums, products = np.empty((count, trials, 2)), np.empty((count, trials, 3))
    scaled = np.divide(drawn, scale)
    mirrored = np.divide(mirrors, scale)
    np.add(scaled, mirrored, out=sums[..., 0])
    sums[..., 1] = 2.0
    np.multiply(scaled, mirrored, out=products[..., 0])
    products[..., 1] = sums[..., 0]
    products[..., 2] = 1.0
    scaled = mirrored = None
    square = _square_basis(nodes, scale)
    step = len(scratch) // 2
    with np.errstate(over="ignore"):
        for start in range(0, count, step):
            stop = min(start + step, count)
            quotient, denominator = scratch[:stop - start], scratch[step:step + stop - start]
            np.matmul(sums[start:stop], square[1:], out=quotient)
            np.matmul(products[start:stop], square, out=denominator)
            quotient /= denominator
            for pair, values in enumerate(quotient, first + start):
                out[pair % len(out)] += values


def _surrogate_sums(moments, first, stop, surrogate, basis, out, scratch):
    """Subtract from ``out`` twice each surrogate less 1 of the pairs
    ``first`` .. ``stop`` - 1 of a mirrored near part, of path moments
    ``moments`` (m_2 .. m_6 of each pair, :func:`_near_columns`), pair i
    from row i mod its rows.  With v = 1 / c, twice a pair's surrogate less
    1 (:func:`_part_factors`) is N / (m_2 + v)^5, N = -2 m_2^5 + (A m_2^3 -
    8 m_2^4 + B m_2^2 + C) v + (3 A m_2^2 - 12 m_2^3 + 2 B m_2) v^2 + (3 A
    m_2 - 8 m_2^2 + B) v^3 + (A - 2 m_2) v^4, A = 2 (r x^2 m_4 - s x^4
    m_6), B = 2 (g m_3^2 + r^2 x^4 m_4^2) and C = 2 g^2 m_3^4: the terms in
    T and W share S^2, and those in U and X share S^3.  N and (m_2 + v)^5
    are each one matmul of a pair's lines with ``basis``, (1, v, .., v^5) on
    the surrogate's window and (0, .., 0, 1) off it, so that N is 0 there;
    the lines of the pairs are formed at once, with three temporaries at
    most, and their quotients a few pairs at a time in the scratch rows.
    On the window v <= 1e60, so that v^5 stays finite, and v >= 1e-60, so
    that (m_2 + v)^5 >= v^5 stays a normal double (:data:`_SURROGATE_NODES`)."""
    second, third, fourth, sixth = (moments[p - 2, :, first:stop].T for p in (2, 3, 4, 6))
    lines = np.empty((2, stop - first, second.shape[1], 6))
    power, numerator = lines[0], lines[1]  # (m_2 + v)^5's lines and N's
    np.multiply(second, 5.0, out=power[..., 4])
    np.multiply(second, second, out=power[..., 3])  # m_2^2, then 10 m_2^2
    np.multiply(power[..., 3], second, out=power[..., 2])  # m_2^3, then 10 m_2^3
    np.multiply(power[..., 2], second, out=power[..., 1])  # m_2^4, then 5 m_2^4
    np.multiply(power[..., 1], second, out=power[..., 0])
    power[..., 5] = 1.0
    np.multiply(power[..., 0], -2.0, out=numerator[..., 0])
    numerator[..., 5] = 0.0
    # C into N's v, then B and A
    work = np.multiply(third, third)
    odd = np.multiply(work, surrogate.odd)
    work *= work
    np.multiply(work, 2.0 * surrogate.quartic, out=numerator[..., 1])
    np.multiply(fourth, fourth, out=work)
    work *= surrogate.square
    odd += work
    odd *= 2.0  # B
    even = np.multiply(fourth, surrogate.even)
    np.multiply(sixth, surrogate.sixth, out=work)
    even += work
    even *= 2.0  # A
    np.multiply(second, 2.0, out=work)
    np.subtract(even, work, out=numerator[..., 4])
    np.multiply(even, second, out=work)
    np.multiply(work, 3.0, out=numerator[..., 3])
    numerator[..., 3] += odd
    numerator[..., 3] -= np.multiply(power[..., 3], 8.0, out=work)
    np.multiply(even, power[..., 3], out=numerator[..., 2])
    numerator[..., 2] *= 3.0
    numerator[..., 2] -= np.multiply(power[..., 2], 12.0, out=work)
    np.multiply(odd, second, out=work)
    work *= 2.0
    numerator[..., 2] += work
    numerator[..., 1] += np.multiply(even, power[..., 2], out=work)
    numerator[..., 1] -= np.multiply(power[..., 1], 8.0, out=work)
    numerator[..., 1] += np.multiply(odd, power[..., 3], out=work)
    work = odd = even = None
    power[..., 1] *= 5.0
    power[..., 2:4] *= 10.0
    step = len(scratch) // 2
    for start in range(0, stop - first, step):
        end = min(start + step, stop - first)
        denominator, quotient = scratch[:end - start], scratch[step:step + end - start]
        np.matmul(power[start:end], basis, out=denominator)
        np.matmul(numerator[start:end], basis, out=quotient)
        quotient /= denominator
        for pair, values in enumerate(quotient, first + start):
            out[pair % len(out)] -= values


def _line_scale(snr: float) -> float:
    """A power of two within a factor 2 of the square root of ``snr``, by
    which the capacity's lines and bases scale exactly, so that neither 1 /
    u of a tiny SNR nor a product of two powers of a large one overflows
    (:func:`_part_factors`)."""
    return math.ldexp(1.0, math.frexp(snr)[1] // 2)


def _square_basis(nodes, scale) -> np.ndarray:
    """The rows (t^2, t, 1) of t = ``nodes`` times ``scale``, a power of two."""
    t = nodes * scale
    return np.array([t * t, t, np.ones(t.size)])


def _surrogates(sets: list[_DrawSet], index_gaps: np.ndarray, scenarios, states,
                paths: int) -> list:
    """Each scenario's surrogates, one a part of the draw ``sets`` (None for
    a part that subtracts none), on the nodes t of its state's rule, c = t
    SNR x^2 / q^2, x its Doppler span and q = T_s df
    (:data:`_SURROGATE_NODES`, :func:`_part_factors`): for the neighbours
    at index gap +-n (n = 1, 2), at Q = n q, their ``window``, the slice of
    the nodes with 1e-60 <= c / n^2 <= 1e60 and t <= 5, their ``scale`` c
    / (n^2 t), the weights ``even`` = r x^2, r = pi^2 / 3 - 3 / Q^2, and
    ``odd`` = g = 4 x^2 kappa(x, Q) / Q^2 (:func:`numerics.odd_power_scale`)
    of their second-order columns, ``sixth`` = -s x^4, s = 5 / Q^4 - pi^2 /
    Q^2 + 2 pi^4 / 45, ``square`` = (r x^2)^2 and ``quartic`` = g^2 of
    their third-order ones, the first two 0 at x > Q / 2
    (:data:`_EVEN_REACH`), and their exact ``mean`` there less 1, h_M(c /
    n^2) - 1 + r x^2 tau_M(c / n^2) + g upsilon_M(c / n^2) - s x^4
    omega_M(c / n^2) + (r x^2)^2 chi_M(c / n^2) + g^2 eta_M(c / n^2)
    (:func:`numerics.surrogate_mean` of each key of
    :data:`numerics.SURROGATE_TERMS`); and for the mid part the window of
    n = 1, its ``scale`` c k / (t n_j^2) of each of its devices,
    its ``mean`` prod_j h_M(c k / n_j^2) there and 1 off it, and the
    ``basis`` its lines take: (t^2, t, 1) of t the nodes times the lines'
    scale (:func:`_line_scale`) for its draw and its mirror, and for its
    surrogate t zeroed off the window, where the surrogate is then exactly
    1.
    None for every part of a static scenario, and for a part whose window
    holds no node.  Each table is read once over the group's windows laid
    end to end, and kappa once a gap Q, each value from its own node and
    scenario alone, so that a scenario keeps its bits in any group."""
    parts = _parts(sets)
    floor, ceiling, reach = _SURROGATE_NODES
    spans = [c.doppler_span(m.max_velocity_mps) for c, m in scenarios]
    scales = [state.snr * (span / c.spacing_symbol_product) ** 2
              for (c, _), state, span in zip(scenarios, states, spans)]
    found = [[None] * len(parts) for _ in scenarios]
    near, mid = [], []  # per record: its scenario, part, nodes and window (and n)
    for k, scale in enumerate(scales):
        if not 0.0 < scale <= HAMDI_MAX_SCALE:
            continue
        t = states[k].rule[0]
        stop = int(np.searchsorted(t, reach, "right"))
        for i, (ds, part) in enumerate(parts):
            if not part.mirrored:
                continue
            gap = 1 if part.mid else round(abs(index_gaps[ds.columns[part.columns][0]]))
            first = int(np.searchsorted(t, floor / (scale / gap ** 2)))
            last = min(stop, int(np.searchsorted(t, ceiling / (scale / gap ** 2), "right")))
            if first < last:
                (mid if part.mid else near).append((k, i, t, slice(first, last), gap))
    if near:
        whole = [gap * scenarios[k][0].spacing_symbol_product for k, *_, gap in near]  # Q
        own = [scales[k] / gap ** 2 for k, *_, gap in near]
        widths = [window.stop - window.start for *_, window, _ in near]
        c = np.concatenate([t[window] for _, _, t, window, _ in near]) * np.repeat(own, widths)
        kappa = np.empty(len(near))
        for q in set(whole):
            kept = [j for j, each in enumerate(whole) if each == q]
            kappa[kept] = odd_power_scale([spans[near[j][0]] for j in kept], q)
        even = np.array([(math.pi ** 2 / 3.0 - 3.0 / q ** 2) * spans[k] ** 2
                         for (k, *_), q in zip(near, whole)])
        odd = np.array([4.0 * scale / states[k].snr * kappa[j]  # 4 x^2 kappa(x, Q) / Q^2
                        for j, ((k, *_), scale) in enumerate(zip(near, own))])
        # W and X only at spans x <= Q / 2 (:data:`_EVEN_REACH`)
        kept = np.array([spans[k] <= _EVEN_REACH * q for (k, *_), q in zip(near, whole)])
        sixth = kept * np.array([-(5.0 / q ** 4 - math.pi ** 2 / q ** 2 + 2.0 * math.pi ** 4 / 45.0)
                                 * spans[k] ** 4 for (k, *_), q in zip(near, whole)])
        square, quartic = kept * even ** 2, odd ** 2
        mean = surrogate_mean(c, paths, *SURROGATE_TERMS[0]) - 1.0  # S, at weight 1
        for weights, key in zip((even, odd, sixth, square, quartic), SURROGATE_TERMS[1:],
                                strict=True):
            mean += np.repeat(weights, widths) * surrogate_mean(c, paths, *key)
        edges = np.cumsum([0] + widths).tolist()
        for j, (k, i, _, window, _) in enumerate(near):
            found[k][i] = SimpleNamespace(window=window, scale=own[j], even=even[j], odd=odd[j],
                                          sixth=sixth[j], square=square[j], quartic=quartic[j],
                                          mean=mean[edges[j]:edges[j + 1]])
    if mid:
        squares = parts[mid[0][1]][1].gaps ** 2
        gaps, counts = np.unique(squares, return_counts=True)
        widths = [window.stop - window.start for *_, window, _ in mid]
        t = np.concatenate([t[window] for _, _, t, window, _ in mid])
        far_scales = np.array([scales[k] for k, *_ in mid]) \
            * doppler_power_scale(np.array([spans[k] for k, *_ in mid]))
        # the mid part's c k / n_j^2, a row for each distinct n_j^2
        far = np.repeat(far_scales, widths) / gaps[:, None] * t
        far_mean = np.prod(np.repeat(surrogate_mean(far, paths), counts, axis=0), axis=0)
        edges = np.cumsum([0] + widths).tolist()
        for j, (k, i, t, window, _) in enumerate(mid):
            basis = np.repeat(_square_basis(t, _line_scale(states[k].snr))[None], 3, axis=0)
            basis[2, :2, :window.start] = basis[2, :2, window.stop:] = 0.0
            mean = np.ones(t.size)
            mean[window] = far_mean[edges[j]:edges[j + 1]]
            found[k][i] = SimpleNamespace(window=window, scale=far_scales[j] / squares,
                                          basis=basis, mean=mean)
    return found


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
    its path shifts, times its own Exp(1) weight.  The weights of the near
    devices (:func:`_near_devices`) and of the mid devices at index gap
    3..K are averaged exactly (Hamdi 2010): with u = k_0 SNR, b_j = k_j SNR
    and a the tail's drawn interference over the noise, a trial's capacity
    is log2(e) int_0^inf e^-t C prod_j B_j A dt, C = u / (1 + t u), B_j =
    1 / (1 + t b_j), A = e^(-t a).  The factors come from independent parts
    of the draws (the target's, each neighbour's, the mid devices' at
    index gap 3..K and the tail's beyond K = 10: seven inside a band of
    N > K), so it integrates the product of their means on a rule fixed by
    the SNR (:func:`numerics.hamdi_rule`): the exactly unbiased average
    over all combinations of the parts' draws.  The parts being
    independent, each may average its own number of draws and stay
    exactly unbiased (Neyman allocation; Glasserman 2003, section 4.3):
    the neighbours at index gap +-1 and the target, which hold most of the
    residual variance at large spans, take R and R_0 draws a trial
    (:func:`_capacity_draws`; R = 24 and R_0 = 4 at N = 199), their factor
    rows and columns the means over them (:func:`_part_factors`,
    :func:`_near_columns`), so no per-trial array grows; and the tail,
    which after the fit holds at most 2e-5-5e-5 of the variance a draw
    while being 378 of the 424 drawn columns of a trial at N = 199, is
    drawn on 32 rows of its own a block of 256 (:data:`_TAIL_DRAWS`), so
    the sampler, the kernel and its Taylor sums see it one trial in 8.

    The shift z = u cos psi has a law symmetric about 0, so its mirror -z
    is a draw of the same law (an antithetic draw; Glasserman 2003,
    section 4.2), and the mean of a draw's factor and its mirror's stays
    exactly unbiased while it cancels the factor's odd part: sinc^2(1 + y)
    is 0.57 at y = -0.6 and 0.036 at y = 0.6, at fig4's 500 Hz curve and
    100 m/s.  Half of each +-1 neighbour's R draws are the mirrors of the
    others, each pair's two factors one quotient (:func:`_pair_sums`),
    each +-2 neighbour is drawn once a trial and mirrored, and the
    mid part is drawn once a trial and mirrored, its factor the mean of
    prod_j B_j(z) and prod_j B_j(-z) (:func:`_layout`); the target and the
    tail are not mirrored, and the
    kernel evaluates each part on a tile of its own columns.  The kernel
    forms each mirror from its source's sines (:func:`numerics.sinc_squared`),
    a mirrored part's columns are the means over its pairs, exactly 0 where
    odd in the shifts (:func:`_near_columns`, :func:`_far_columns`), and
    each pair's near surrogate, even in the shifts, is formed once.

    Before any fit, each neighbour at index gap +-1 and +-2 and the mid
    part of a moving scenario subtract, at the nodes t of a window of the
    rule, a surrogate of their factor less its exact mean
    (:func:`_part_factors`, :func:`_surrogates`; :data:`_SURROGATE_NODES`:
    1e-60 <= c <= 1e60 and t <= 5), c = t SNR x^2 / Q^2 at gap Q = n q.  A
    mirrored pair of a neighbour at +-n sees the kernel's even part in the
    mean of its two factors and, through their difference, the square of
    its odd part: to third order in the path offsets its factor is S + r
    x^2 T + g U - s x^4 W + r^2 x^4 X + g^2 Y, S = 1 / (1 + c m_2), T = c
    m_4 S^2, U = c^2 m_3^2 S^3, W = c m_6 S^2, X = c^2 m_4^2 S^3 and Y =
    c^4 m_3^4 S^5, m_p the pair's path moments, r = pi^2 / 3 - 3 / Q^2 and
    s = 5 / Q^4 - pi^2 / Q^2 + 2 pi^4 / 45 the kernel's coefficients of
    d^4 and d^6, and g = 4 x^2 / Q^2 (times the odd part's Clarke scale,
    :func:`numerics.odd_power_scale`), which the neighbour subtracts at
    slope 1 less its exact mean, each term's a 1-D integral tabulated once
    per path count (:func:`numerics.surrogate_mean`); W and X only at spans x <=
    Q / 2 (:data:`_EVEN_REACH`).  The mid part's factor is to leading order
    prod_j 1 / (1 + c k m_(2,j) / n_j^2), of mean prod_j h_M(c k / n_j^2),
    which it subtracts at slope 1 too.  Where c reaches 10^3, at fig4's 500
    Hz points, those factors are far from polynomial in the path moments,
    which the columns below fit; the surrogates take that part of them, and
    the estimate stays exactly unbiased.  The odd part's square U takes
    most of what S leaves of the near neighbours' variance there.

    Each part's mean is controlled at every node t of the rule: part i
    has zero-mean columns V_i of its own draws (:func:`_near_columns`, the
    path moments and their products of second order; :func:`_far_columns`
    for the mid part and the tail, each with its own Taylor table), and
    fold f of its draws (the tail's numbered over its own) subtracts
    S_(i,f) beta_(i,f)(t), S_(i,f) the fold's column sums and
    beta_(i,f)(t) the least-squares slopes of F_i(t) on V_i over the other
    folds (cross-fitting; :func:`_fold_solver`), which never see fold f's
    draws of part i: the mean is rule @ prod_i (sum_a F_i(a, t) - sum_f
    S_(i,f) beta_(i,f)(t)) / n_i, n_i part i's draws, still exactly
    unbiased, the parts being independent.  The slopes come from the
    sums [1, V_i]^T (F_i(a, t) - F_i(0, t)) over each fold's draws
    (:func:`_fold_sums`), taken block by block and kept per scenario,
    part and fold until the scenario's last block, which do not grow with
    the trials, and from the other folds' grams, summed block by block
    too, which do not depend on the scenario and are inverted once for
    the group; both read the block's rows of part i's store [1, V_i].
    Correcting the product at first order alone,
    rule @ prod_i mean F_i less the mean of each part's fitted influence,
    would leave the cross terms between parts, which dominate once the
    columns cut the first order 10^3-10^9-fold, and an unduly small
    standard error.  To first order the estimate's spread is that of each
    part's influence g_i = int F_i prod_(j != i) mean F_j at the first
    block's means, whose slopes are the node slopes integrated against
    its weights: the standard error is sqrt(sum_i var(g_i - V_i beta_i) /
    n_i), each part's influences taken less its first draw's, which
    keeps the digits of their spread and gives equal ones exactly 0, and
    the residuals scaled by a power of two, so that their squares do not
    underflow; a part of one draw adds no variance.  A static network or
    N = 0 leaves the target's factor alone (the others are exactly 1, or
    there are none), the one-factor integral e^x E1(x), x = 1 / u (Lee
    1990): every trial gives the exact capacity, with a standard error of
    0, and a static scenario forms the target's factor alone, from its
    first round of draws, with no fold sums, slopes or influences.  A
    scenario gives the same bits alone or in
    a group.  The estimate can exceed :func:`analytic.capacity_upper`, the
    capacity at the mean powers, as at one path per device.  Requires
    positive noise and P_T over the noise at most 1e300
    (:func:`capacity_snr`).  ``cfg`` and ``mob`` may be sequences, as for
    :func:`estimate_total_ici`.
    """
    scenarios, single = _group(cfg, mob)
    # per scenario: its SNR, rule and the rule's basis (t, 1), whether it
    # moves and its surrogates; from its first block, per part its factor
    # sums, and if it moves its first factors, node weights, influences and
    # node sums; then its controlled mean and each part's slopes
    states = [SimpleNamespace(snr=(snr := capacity_snr(c)), rule=hamdi_rule(snr),
                              basis=hamdi_basis(snr), sums={}, slopes={},
                              moving=c.doppler_span(m.max_velocity_mps) != 0.0,
                              first=[], node_weights=[], influences=[])
              for c, m in scenarios]
    n = scenarios[0][0].half_subcarriers
    gaps = [subcarrier_gaps(plan.target_index, n, c.spacing_symbol_product) for c, _ in scenarios]
    index_gaps = subcarrier_gaps(plan.target_index, n)
    sets = _layout("capacity", index_gaps, cell.paths_per_device)
    for state, surrogates in zip(states, _surrogates(sets, index_gaps, scenarios, states,
                                                     cell.paths_per_device)):
        state.surrogates = surrogates
    parts = _parts(sets)
    # the part records' means multiply in one fixed order, the near
    # devices' (the target, then index gaps -2, -1, 1 and 2) and then the
    # far parts', whatever the order of the parts
    near = _near_devices(plan.target_index + n, 2 * n + 1)
    devices = [d for ds, part in parts for d in ds.columns[part.columns][:part.count].tolist()]
    order = sorted(range(len(devices)),
                   key=lambda i: near.index(devices[i]) if devices[i] in near else i)
    grams = {part: np.zeros((part.count, _FOLDS, part.width + 1, part.width + 1))
             for _, part in parts}  # keyed by each part, in order
    moving = any(state.moving for state in states)
    scratch_rows, nodes = _scratch_rows(sets), max(state.rule[0].size for state in states)
    # one block buffer, which the kernel takes during its passes
    # (:func:`_device_powers`: four tiles and a gap tile) and the factor
    # pass between two of them: each part's factor table and the scratch rows
    *edges, doubles = _factor_edges(sets, plan.trials, nodes)
    tile = max(math.prod(shape) for shape in _tile_shapes(plan.trials, sets, cell.paths_per_device))
    buffer = _aligned_empty((max(5 * tile, doubles),))
    *tables, scratch = (buffer[start:] for start in edges)
    for k, rows, powers, weights in _device_powers(plan, cell, scenarios, gaps, sets, buffer):
        state, last = states[k], rows[0].stop == plan.trials
        if k == 0:
            for (_, part), r in zip(parts, rows) if moving else ():
                grams[part] += _fold_sums(part.V[r], part.V[r].transpose(1, 0, 2))
            if last and moving:
                solvers = {part: _fold_solver(gram) for part, gram in grams.items()}
        # a static scenario forms the target's row alone: the other factors
        # are exactly 1, and its fold sums, slopes and influences exactly 0
        used, size = (parts if state.moving else parts[:1]), state.rule[0].size
        table = [_part_factors(part, p, w, state, surrogate,
                               out[:part.count * len(p) * size].reshape(part.count, len(p), size)
                               [:part.count if state.moving else 1],
                               scratch[:scratch_rows * len(p) * size]
                               .reshape(scratch_rows, len(p), size))
                 for (_, part), p, w, surrogate, out in zip(used, powers, weights,
                                                            state.surrogates, tables)]
        column_sums = [np.ones(t.shape[1]) @ t for t in table]
        if rows[0].start == 0:
            state.totals = [np.zeros_like(sums) for sums in column_sums]
        if rows[0].start == 0 and state.moving:
            node_weights = _all_but_each(np.concatenate(
                [sums / t.shape[1] for sums, t in zip(column_sums, table)])) * state.rule[1]
            state.node_weights = np.split(node_weights, np.cumsum([len(t) for t in table])[:-1])
            state.first = [t[:, 0].copy() for t in table]
            state.influences = [np.empty((ds.draws(plan.trials), part.count))
                                for ds, part in parts]
        for totals, column_sum in zip(state.totals, column_sums):
            totals += column_sum
        # per part its factors less the first trial's, which leaves the
        # influences and the node sums the digits of their spread and equal
        # factors exactly 0; after the last block, its mean controlled at
        # every node and its influences' slopes
        for (_, part), t, f, totals, node_weights, y, r in zip(
                parts, table, state.first, state.totals, state.node_weights,
                state.influences, rows):
            t -= f[:, None]
            y[r] = (t @ node_weights[..., None])[..., 0].T
            sums = _fold_sums(part.V[r], t)
            if state.sums.setdefault(part, sums) is not sums:  # kept from the first block
                state.sums[part] += sums
            sums = None  # one part's sums or slopes at most besides those kept
            if last:  # per part, fold, column and node, in its node sums' place
                beta = solvers[part](state.sums.pop(part))
                # row 0 of a gram: the fold's draw count and column sums
                totals -= np.einsum("ifs,ifsn->in", grams[part][..., 0, :], beta)
                state.slopes[part] = np.einsum("ifsn,in->ifs", beta, node_weights)
        if last:
            means = np.concatenate([totals / ds.draws(plan.trials)
                                    for totals, (ds, _) in zip(state.totals, used)])
            state.mean = state.rule[1] @ np.prod(means[order[:len(means)]], axis=0)
            beta = None  # the last part's slopes
    # let the last block, its builders' buffers, the block buffer and the
    # grams go before the fit
    powers = weights = grams = solvers = buffer = tables = table = t = scratch = None
    for _, part in parts:
        part.moments = None
    designs = [_by_fold(part.V) for _, part in parts]
    estimates = []
    for state in states:
        residuals = [_residuals(design, y, state.slopes[part])
                     for design, (_, part), y in zip(designs, parts, state.influences)]
        estimates.append(Estimate(LOG2_E * float(state.mean), LOG2_E * _std_error(residuals),
                                  plan.trials))
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
