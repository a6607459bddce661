"""Seeded Monte Carlo estimators that validate the closed-form analytics.

Randomness policy: trials are grouped in fixed blocks of 256, and block k of
a run draws from ``SeedSequence(entropy=seed, spawn_key=(k,))``.  Draws
inside a block happen in one fixed array order and do not depend on the
scenario (the capacity's extra draws of its +-1 neighbours and the rows of
its tail beyond index gap K depend on the sub-carrier count and the block
alone), so every scenario of a plan reads the same random numbers: the
ICI and capacity estimators take a group of scenarios sharing the
sub-carrier count and draw each block once for the whole group.  Estimates
are bit-reproducible for a given (plan, configs) and do not depend on the
group a scenario is evaluated in or on how blocks might be spread over
workers.  Every estimator keeps a value per trial and part and reduces
its residuals once the folds' slopes are fitted; the capacity also keeps,
per scenario, part and fold, the sums on its rule's nodes from which its
part means are controlled, which do not grow with the trials.  The
capacity's parts need not share their draws: each +-1 neighbour takes R
a trial and the tail one in 8 (:func:`estimate_ergodic_capacity`).
"""

from __future__ import annotations

import functools
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
    averages the near devices' weights exactly, takes R Doppler draws of
    each neighbour at index gap +-1 a trial, R a fixed rule in the
    sub-carrier count (:func:`_neighbour_draws`), and draws the devices
    beyond index gap K = 10, the tail, on 32 trials of a block of 256
    (:data:`_TAIL_DRAWS`).  Every estimator subtracts zero-mean columns of
    its draws times slopes fitted on the other folds' draws
    (:func:`_fold_solver`), so it stays exactly unbiased: the power
    estimators' columns are the path moments, the capacity's also their
    products of second order (:func:`_near_columns`, :func:`_far_columns`),
    fitted to each part's factor at every node of its rule.
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
_FOLDS = 8  # every fit puts trial i in fold i mod 8


def _set_partitions(items: list):
    """Every partition of ``items`` into blocks, each a list of lists."""
    if not items:
        yield []
        return
    for partition in _set_partitions(items[1:]):
        yield [[items[0]]] + partition
        for i, block in enumerate(partition):
            yield partition[:i] + [[items[0]] + block] + partition[i + 1:]


@functools.cache
def _monomial_mean(orders: tuple, paths: int) -> float:
    """E[prod_i m_(p_i)], p_i = ``orders`` and m_p = mean_m z_m^p over a
    device's ``paths`` paths, z_m = u c_m, correctly rounded from its exact
    value.  The paths share u, so a product's mean is E[u^P] sum_pi
    (M)_|pi| / M^k prod_(B in pi) E[c^(n_B)], n_B = sum_(i in B) p_i,
    P = sum_i p_i, pi running over the set partitions of the k factors
    (the patterns of equal path indices) and (M)_j the falling factorial:
    E[u^P] = 1 / (P + 1) for u uniform on [0, 1), and E[c^n] = C(n, n/2)
    / 2^n for even n and 0 for odd n, c of the arcsine law.  The n_B sum
    to P, so over the common denominator (P + 1) M^k 2^P the sum is one
    of whole numbers."""
    total = 0
    for partition in _set_partitions(list(orders)):
        sums = [sum(block) for block in partition]
        if all(n % 2 == 0 for n in sums):
            total += math.perm(paths, len(sums)) * math.prod(math.comb(n, n // 2) for n in sums)
    power = sum(orders)
    return total / ((power + 1) * paths ** len(orders) * 2 ** power)


# E[z^p] = E[u^p] E[cos^p psi] = C(p, p/2) / (2^p (p + 1)) for even p and 0
# for odd p (:func:`_monomial_mean` of one factor, at any path count)
_MOMENT_MEANS = np.array([math.comb(p, p // 2) / (2 ** p * (p + 1)) if p % 2 == 0 else 0.0
                          for p in _ORDERS])
# the capacity's near columns: m_2..m_6, then the products of those of low
# order; m_2^3 is left out, since at two paths m_6 = 3 m_2 m_4 - 2 m_2^3
_NEAR_MONOMIALS = tuple((p,) for p in _ORDERS) + ((2, 2), (2, 3), (2, 4), (3, 3))
_FAR_WIDTH = len(_TERMS) + 3  # a far-style part's columns (:func:`_far_columns`)


@functools.cache
def _near_means(paths: int) -> np.ndarray:
    """E of each near column's monomial (:data:`_NEAR_MONOMIALS`) at
    ``paths`` paths: at one path a product is a single moment (m_2^2 =
    m_4), so only m_2..m_6 are kept."""
    kept = _NEAR_MONOMIALS[:len(_ORDERS) if paths == 1 else None]
    means = np.array([_monomial_mean(orders, paths) for orders in kept])
    means.flags.writeable = False  # shared by every caller
    return means


def _block_slots(coherent: bool) -> int:
    """(trials, devices) slots of the buffer of :func:`_device_powers`: the
    powers and the path moments p = 2..6, or for the capacity ("coherent")
    the powers and the Exp(1) weights."""
    return 2 if coherent else 1 + len(_ORDERS)


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float array of ``shape`` starting on a 64-byte
    boundary: numpy aligns to 16 bytes, and on a 2-core AMD EPYC a kernel
    workspace at 16 mod 32 bytes made a fig4 sweep about 14% slower."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


def _capacity_sizes(devices: int, paths: int):
    """[(rows, columns, parts, doubles)] of each draw set of a capacity
    block over ``devices`` devices of ``paths`` paths at a centred target,
    which holds the most (:func:`_capacity_layout`): its rows and columns a
    block, and its parts and the doubles a draw of their designs [1, V].
    The main draws hold the devices within index gap K and the extra draws
    (:func:`_extra_draws`), and their parts are five near parts
    (:func:`_near_devices`) of 9 columns (5 at one path, :func:`_near_means`)
    and the mid part of 12 (:func:`_far_columns`), if the band holds far
    devices; the tail's draws, if it holds devices beyond index gap K,
    hold those on :data:`_TAIL_DRAWS` rows, one part of 12."""
    band = min(devices, 2 * _TAIL_GAP + 1)
    near, mid = min(devices, 5), int(devices > 5)
    sets = [(BLOCK_TRIALS, band + 2 * (_neighbour_draws(devices // 2) - 1), near + mid,
             near * (_near_means(paths).size + 1) + mid * (_FAR_WIDTH + 1))]
    if devices > band:
        sets.append((_TAIL_DRAWS, devices - band, 1, _FAR_WIDTH + 1))
    return sets


def block_bytes(devices: int, paths: int, snr: float | None = None) -> int:
    """Bytes of the arrays :func:`_device_powers` holds at once for
    ``devices`` devices of ``paths`` paths sharing one gap vector, draw set
    by draw set (a capacity ("coherent") block's main draws and tail, with
    ``snr`` its P_T over the noise, :func:`_capacity_sizes`; else one set
    of the devices): a block's draws and the (rows, columns) slots of its
    buffer; the kernel's four workspace tiles and one more for its centre
    mask and the per-device vectors, of the larger set's tile, and a gap
    tile a set; and the larger set's sampler: a slot for its speed
    fractions, which the capacity's Exp(1) weights take as drawn, and two
    scratch tiles.  A capacity block also holds, across blocks, the near
    draws' moments (5 doubles a trial and draw), the sets' far terms (9 a
    draw), the Taylor tables (11 doubles a device) and the folds' grams of
    each part's design [1, V] (:func:`_fold_solver`), and while sampling
    the last block's columns V; once the sampler has let go of its slot
    and tiles, what its average holds: the parts' factor tables on the
    rule at that SNR (:func:`numerics.hamdi_rule`) with two scratch rows
    for the extra draws' factors, the block's columns V and designs
    [1, V], the faded powers of the near draws and 26 more doubles a
    trial, and the near parts' fold sums of one scenario
    (:func:`_fold_sums`)."""
    coherent = snr is not None
    sets = _capacity_sizes(devices, paths) if coherent else [(BLOCK_TRIALS, devices, 0, 0)]
    tiles = [row_tiles(rows, columns * paths)[0].stop * columns * paths
             for rows, columns, _, _ in sets]
    sampler = max(rows * columns + 2 * tile for (rows, columns, _, _), tile in zip(sets, tiles))
    held = average = 0
    if coherent:
        near = min(devices, 5)
        extra = sets[0][1] - min(devices, 2 * _TAIL_GAP + 1)
        nodes = hamdi_rule(snr)[0].size
        width = _near_means(paths).size + 1
        grams = _FOLDS * (near * width ** 2 + (sum(p for _, _, p, _ in sets) - near)
                          * (_FAR_WIDTH + 1) ** 2)
        held = sum(rows * len(_TERMS) for rows, _, _, _ in sets) \
            + BLOCK_TRIALS * len(_ORDERS) * (near + extra) + (len(_TERMS) + 2) * devices + grams
        sampler += sum(rows * (design - parts) for rows, _, parts, design in sets)
        # the main draws' table has two scratch rows for the extra draws
        average = sum(rows * (parts * nodes + 2 * design) for rows, _, parts, design in sets) \
            + BLOCK_TRIALS * (min(2, extra) * nodes + near + extra + 26) \
            + _FOLDS * near * width * nodes
    draws = sum(rows * columns * (paths + _block_slots(coherent)) for rows, columns, _, _ in sets)
    return 8 * (draws + 5 * max(tiles) + sum(tiles) + max(sampler, average) + held)


def run_bytes(trials: int, scenarios: int, devices: int, paths: int,
              snr: float | None = None) -> int:
    """Bytes an estimator holds at most for a group of ``scenarios`` over
    ``trials`` trials: what the run keeps per draw, its columns V and each
    scenario's samples, one a part (the interference's one part of 9
    columns; the capacity's parts, :func:`_capacity_sizes`, the tail's on
    its own draws, :func:`_tail_draws`), and the larger of two: a block
    (:func:`block_bytes`, the capacity's with ``snr``) with, for the
    capacity, each scenario's node sums on its rule, the fold sums of
    [1, V_i]^T F_i (:func:`_fold_sums`) and three vectors a part, which go
    once the scenario's last block is done; or, after the blocks, the fit:
    the designs [1, V] and 5 doubles a draw and part of one scenario's
    temporaries (:func:`_residuals`)."""
    if snr is None:
        sets, nodes = [(trials, 1, len(_TERMS) + 1)], 0
    else:
        sets = [(trials if rows == BLOCK_TRIALS else _tail_draws(trials), parts, design)
                for rows, _, parts, design in _capacity_sizes(devices, paths)]
        nodes = hamdi_rule(snr)[0].size
    kept = sum(draws * (design - parts + parts * scenarios) for draws, parts, design in sets)
    node_sums = scenarios * nodes * sum(_FOLDS * design + 3 * parts for _, parts, design in sets)
    fit = sum(draws * (design + 5 * parts) for draws, parts, design in sets)
    return 8 * (kept + max(block_bytes(devices, paths, snr) // 8 + node_sums, fit))


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


def _path_moments(shift: np.ndarray, tiles, moments: np.ndarray, scratch: np.ndarray):
    """moments[p - 2] = mean_m z_m^p, p = 2..6, of each (trial, device) of
    the block ``shift``, tile by tile in ``scratch``, so that no
    block-sized z^p is formed."""
    for rows in tiles:
        z = shift[rows]
        np.einsum("tdm,tdm->td", z, z, out=moments[0, rows])
        power = np.multiply(z, z, out=scratch[:rows.stop - rows.start, :z.shape[1]])
        for moment in moments[1:]:
            power *= z
            np.einsum("tdm->td", power, out=moment[rows])
    moments /= shift.shape[2]


def _far_terms(shift: np.ndarray, tiles, weights: np.ndarray, table: np.ndarray,
               scratch: np.ndarray, out: np.ndarray):
    """out[t, (p, e)] = sum_j table[(p, e), j] w_tj mean_m z_tjm^p for each
    term (p, e) of :data:`_TERMS`, w the block's Exp(1) ``weights``, from
    the block ``shift``: each order's moments are formed a tile at a time
    in ``scratch[1]`` (z^p in ``scratch[0]``) and reduced at once, so that
    no block-sized moment is held."""
    paths = np.ones(shift.shape[2])
    orders = [(p, _TERM_ORDERS == p, table[_TERM_ORDERS == p]) for p in _ORDERS]
    for rows in tiles:
        z = shift[rows]
        n, devices = z.shape[:2]
        power = np.multiply(z, z, out=scratch[0, :n, :devices])
        moment = scratch[1].reshape(-1)[:n * devices].reshape(n, devices)
        for p, terms, weights_of_terms in orders:
            if p > 2:
                power *= z
            np.matmul(power, paths, out=moment)  # twice as fast as einsum here
            moment *= weights[rows]
            # one product a trial, so that no value depends on the tile
            out[rows, terms] = (weights_of_terms @ moment[..., None])[..., 0]
    out /= paths.size


def _device_powers(plan: TrialPlan, cell: CellConfig, scenarios, gaps, coherent: bool):
    """Yield ``(k, rows, powers, moments, weights)``: the per-(trial,
    column) power on the target sub-carrier of scenario k for the trials
    ``rows``, in a buffer the next step overwrites; the block's per-device
    path moments mean_m z_m^p, p = 2..6 in ``moments[p - 2]``, or for the
    capacity ("coherent") the block's columns V of its control variates,
    a list of the near parts', the mid part's and the tail's
    (:func:`_near_columns`, :func:`_far_columns`); and the block's Exp(1)
    weights ("coherent"; 0 for the near devices, :func:`_near_devices`,
    whose fading the capacity averages and which draw none) or None.

    For the capacity, ``rows``, ``powers`` and ``weights`` are lists over
    the block's draw sets (:func:`_capacity_layout`): its main draws, a
    column for each device within index gap K of the target and then each
    extra draw of a neighbour at index gap +-1 (:func:`_extra_draws`: that
    neighbour's gap and no weight), and, if the band has devices beyond
    index gap K, the tail's draws, a column for each tail device on
    min(block, 32) rows of their own (:data:`_TAIL_DRAWS`), drawn after the
    main draws and their weights, so the sampler, the kernel and
    :func:`_far_terms` see the tail devices on those rows alone.  The
    arrays held at once are those :func:`block_bytes` counts.

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
    offsets, output and scratch tiles, sized to the larger draw set's, and
    one (rows, columns, paths) gap tile per draw set and distinct gap
    vector.  The moments are taken tile by tile in the offsets tile, so no
    block-sized z^p is ever formed.

    Every estimator subtracts zero-mean columns of these moments (centred
    by :data:`_MOMENT_MEANS`) times cross-fitted slopes (Glasserman 2003,
    section 4.1; :func:`_fold_solver`), part by part (:func:`_fitted`).
    """
    devices = len(gaps[0])
    paths = cell.paths_per_device
    spans = [cfg.doppler_span(mob.max_velocity_mps) for cfg, mob in scenarios]
    rows_of = [min(plan.trials, BLOCK_TRIALS)]  # each draw set's rows a block, at most
    if coherent:
        columns, near, owners, tail = _capacity_layout(plan.target_index, devices // 2)
        index_gaps = subcarrier_gaps(plan.target_index, devices // 2)
        sets = [columns] + [tail] * bool(tail.size)
        rows_of += [min(plan.trials, _TAIL_DRAWS)] * bool(tail.size)
        quiet = near + list(range(columns.size - len(owners), columns.size))  # no weight drawn
        # the columns that draw a weight and, before the extra draws, each
        # set's Taylor table, built on its own far gaps, so that its rows
        # keep their rank there
        weighted = [abs(index_gaps[s]) > 2 for s in sets]
        bands = [columns.size - len(owners), tail.size]
        tables = [np.zeros((len(_TERMS), band)) for band in bands[:len(sets)]]
        for table, s, far in zip(tables, sets, weighted):
            table[:, far[:table.shape[1]]] = _taylor_table(index_gaps[s][far])
        near_moments = np.empty((len(_ORDERS), rows_of[0], len(quiet)))
        terms = [np.empty((n, len(_TERMS))) for n in rows_of]
        gaps = [[gap[s] for s in sets] for gap in gaps]
    else:
        gaps = [[gap] for gap in gaps]
    buffers = [np.empty((_block_slots(coherent), n, len(gap))) for n, gap in zip(rows_of, gaps[0])]
    # the kernel's workspace, sized to the largest tile (the first of the
    # first block); the gaps come as full tiles because numpy adds a row
    # broadcast over the short path axis about three times slower
    tile_shapes = [(row_tiles(n, len(gap) * paths)[0].stop, len(gap), paths)
                   for n, gap in zip(rows_of, gaps[0])]
    workspace = _aligned_empty((4 * max(math.prod(shape) for shape in tile_shapes),))
    workspaces = [workspace[:4 * math.prod(shape)].reshape((4,) + shape) for shape in tile_shapes]
    gap_tiles, shared = [], {}
    for scenario_gaps, span in zip(gaps, spans):
        gap_tiles.append([])
        for s, (gap, shape) in enumerate(zip(scenario_gaps, tile_shapes)):
            key = (s, gap.tobytes())
            if span != 0.0 and key not in shared:
                shared[key] = np.broadcast_to(gap[:, None], shape).copy()
            gap_tiles[-1].append(shared.get(key))
    del key, shared  # the keys copy the gaps
    starts = [0] * len(buffers)
    for block, size in enumerate(_block_sizes(plan.trials)):
        rng = _block_rng(plan.seed, block)
        draws, variates = [], []
        for s, (buffer, space) in enumerate(zip(buffers, workspaces)):
            n = min(size, buffer.shape[1])
            shift = sample_cell_batch(rng, n, buffer.shape[2], cell)
            powers, moments, weights = buffer[0, :n], buffer[1:, :n], None
            tiles = row_tiles(n, buffer.shape[2] * paths)
            if coherent:
                weights = moments[0]
                drawn = weighted[s]
                weights[:, drawn] = rng.standard_exponential((n, np.count_nonzero(drawn)))
                weights[:, ~drawn] = 0.0
                if s == 0:
                    _path_moments(shift[:, quiet], tiles, near_moments[:, :n], space[0])
                    variates.append(_near_columns(near_moments[:, :n], owners, paths))
                band = bands[s]
                if tables[s].any():
                    _far_terms(shift[:, :band], tiles, weights[:, :band], tables[s], space[:2],
                               terms[s][:n])
                    variates.append(_far_columns(terms[s][:n], weights[:, :band], tables[s],
                                                 paths))
            else:
                _path_moments(shift, tiles, moments, space[0])
                variates = moments
            draws.append((slice(starts[s], starts[s] + n), shift, tiles, powers, weights))
            starts[s] += n
        for k, span in enumerate(spans):
            for s, (_, shift, tiles, powers, _) in enumerate(draws):
                if span == 0.0:
                    # what the kernel gives a static network: 1 on the centre, 0 off it
                    powers[:] = gaps[k][s] == 0.0
                    continue
                offsets, kernel, work = workspaces[s][0], workspaces[s][1], workspaces[s][2:]
                for rows in tiles:
                    n = rows.stop - rows.start
                    offset = np.multiply(shift[rows], span, out=offsets[:n])
                    values = sinc_squared(gap_tiles[k][s][:n], offset, span, kernel[:n],
                                          work[:, :n])
                    np.einsum("tdm->td", values, out=powers[rows])
                powers /= paths
            if coherent:
                rows, powers, weights = ([draw[i] for draw in draws] for i in (0, 3, 4))
                yield k, rows, powers, variates, weights
            else:
                rows, _, _, powers, _ = draws[0]
                yield k, rows, powers, variates, None
        del draws, shift  # so that a block's draws never overlap the next one's


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
    powers = moments = None  # let the last block go before the fit
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


# The capacity's far devices split at index gap K = _TAIL_GAP: the mid part
# (3 <= |n| <= K) is drawn every trial, the tail (|n| > K) on _TAIL_DRAWS
# trials a block, one in L = 8 of a full block, or every trial of a shorter
# one.  On fig4's points the tail holds at most 2e-5-5e-5 of the fitted
# variance a draw, yet at N = 199 it is 378 of a trial's 419 columns; 32
# draws a block keep its fit on (which needs 24 in the other folds).
_TAIL_GAP = 10
_TAIL_DRAWS = BLOCK_TRIALS // 8


def _tail_draws(trials: int) -> int:
    """The capacity tail's draws over a run of ``trials`` trials."""
    return sum(min(size, _TAIL_DRAWS) for size in _block_sizes(trials))


def _capacity_layout(target_index: int, half_subcarriers: int):
    """(columns, near, owners, tail) of a capacity block: the device of
    each column of its main draws, those within index gap K of the target
    (the whole band if none is beyond it) and then the extra draws
    (:func:`_extra_draws`); the near devices' columns (:func:`_near_devices`);
    the near part each extra draw belongs to; and the tail devices, beyond
    index gap K, which the block draws on rows of their own."""
    index_gaps = subcarrier_gaps(target_index, half_subcarriers)
    target, devices = target_index + half_subcarriers, index_gaps.size
    band = np.flatnonzero(abs(index_gaps) <= _TAIL_GAP)
    near = _near_devices(target, devices)
    extra = _extra_draws(target, devices)
    columns = np.concatenate([band, np.array(extra, dtype=band.dtype)])
    return (columns, [c - band[0] for c in near], [near.index(c) for c in extra],
            np.flatnonzero(abs(index_gaps) > _TAIL_GAP))


def _near_columns(near_moments, owners, paths: int) -> np.ndarray:
    """The block's (trials, near, 9) columns V_i of the capacity's near
    parts, each of mean exactly 0, scenario-free and of part i's draws
    alone: m_2..m_6, m_2^2, m_2 m_3, m_2 m_4 and m_3^2 less their means
    (:data:`_NEAR_MONOMIALS`, :func:`_near_means`; the first five at one
    path), m_p = mean_m z^p of ``near_moments``, formed per draw and
    averaged over the part's draws (its extra draws follow the near
    devices, draw i of part owners[i], :func:`_extra_draws`)."""
    means = _near_means(paths)
    draws, parts = near_moments.shape[2], near_moments.shape[2] - len(owners)
    # the mean over each part's draws, as a (draws, parts) matrix
    average = np.zeros((draws, parts))
    average[range(draws), list(range(parts)) + owners] = 1.0
    average /= average.sum(axis=0)
    near = np.empty((near_moments.shape[1], parts, means.size))
    for row, orders in enumerate(_NEAR_MONOMIALS[:means.size]):
        values = near_moments[orders[0] - 2]
        if len(orders) == 2:
            values = values * near_moments[orders[1] - 2]
        np.subtract(values @ average, means[row], out=near[..., row])
    return near


def _far_columns(far_terms, weights, table, paths: int) -> np.ndarray:
    """The (trials, 1, 12) columns V of a far-style part (the mid part or
    the tail), of mean exactly 0: for each term (p, e) of :data:`_TERMS`,
    sum_j n_j^-e (w_j m_(p,j) - E[m_p]) (``far_terms``, ``table`` the
    weights n_j^-e of :func:`_device_powers`), then sum_j n_j^-2 (w_j - 1),
    and c_0^2 and c_0 c_(4,2) less their means, c_0 the term (2, 2): the
    devices and their Exp(1) weights w_j being independent, with E[w^2] =
    2, E[c_0 c] = sum_j n_j^-2 n_j^-e (2 E[m_2 m_p] - E[m_2] E[m_p])."""
    far = np.empty((len(far_terms), 1, _FAR_WIDTH))
    terms = far[:, 0, :len(_TERMS)]
    np.subtract(far_terms, _MOMENT_MEANS[_TERM_ORDERS - 2] * table.sum(axis=1), out=terms)
    far[:, 0, -3] = weights @ table[0] - table[0].sum()
    for column, term in ((-2, 0), (-1, _TERMS.index((4, 2)))):
        p = _TERM_ORDERS[term]
        covariance = 2.0 * _monomial_mean((2, p), paths) \
            - _MOMENT_MEANS[0] * _MOMENT_MEANS[p - 2]
        far[:, 0, column] = terms[:, 0] * terms[:, term] - table[0] @ table[term] * covariance
    return far


def _by_fold(values: np.ndarray) -> np.ndarray:
    """(parts, folds, rows, ...): the (trials, parts, ...) ``values`` by
    fold, trial i in fold i mod :data:`_FOLDS`; zero rows, which add
    nothing to a sum, pad the trials to a multiple of 8."""
    short = -len(values) % _FOLDS
    if short:
        values = np.concatenate([values, np.zeros((short,) + values.shape[1:])])
    return np.moveaxis(values.reshape((-1, _FOLDS) + values.shape[1:]), (0, 2), (2, 0))


def _fold_design(columns: np.ndarray) -> np.ndarray:
    """(parts, folds, rows, 1 + variates): the design [1, V] of the
    (trials, parts, variates) ``columns`` by fold (:func:`_by_fold`)."""
    trials, parts, variates = columns.shape
    design = np.zeros((trials - trials % -_FOLDS, parts, 1 + variates))  # padded once
    design[:trials, :, 0] = 1.0
    design[:trials, :, 1:] = columns
    return _by_fold(design)


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
    rest = len(design) - whole
    if rest:
        sums[:, :rest] += design[whole:].swapaxes(0, 1)[..., None] @ values[:, whole:, None]
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
    by-fold ``design`` (:func:`_fold_design`) and beta[i, f] the slopes of
    part i's fold f (:func:`_fold_solver`)."""
    # V beta per (part, fold, row), transposed back to trial order
    fit = (design[..., 1:] @ beta[:, :, 1:, None])[..., 0]
    return y - fit.transpose(2, 1, 0).reshape(-1, y.shape[1])[:len(y)]


def _fitted(columns: np.ndarray, samples):
    """Yield, for each (trials, parts) array y of ``samples`` in turn, its
    residuals y - V beta: V the (trials, parts, variates) zero-mean
    ``columns`` and beta the slopes of the trial's fold and part
    (:func:`_fold_solver`), each part fitted on its own columns.  Each y's
    cross products and residuals are formed alone, so a scenario keeps its
    bits in a group and its temporaries are the size of one sample."""
    design = _fold_design(columns)
    solve = _fold_solver(design.swapaxes(2, 3) @ design)
    for y in samples:
        cross = (_by_fold(y - y[0])[..., None, :] @ design)[..., 0, :, None]
        yield _residuals(design, y, solve(cross)[..., 0])


def _part_factors(nodes, faded, far, owners, out, scratch):
    """The capacity's (parts, trials, nodes) factor table at ``nodes``
    (:func:`numerics.hamdi_factors`) in ``out``: a row for each near
    device from its own draw, a row of ``faded``, and with ``far`` one for
    the far devices of a draw set (the mid part's or the tail's).  Row i
    of ``faded`` after the near devices' is an extra draw of part
    owners[i], whose row becomes the mean of its draws' factors: their
    tables are formed len(``scratch``) rows at a time, a round of the
    extra draws (:func:`_extra_draws`), and added into the parts' rows, so
    no table of every draw is held."""
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
    u = k_0 SNR, b_j = k_j SNR and a = a_mid + a_tail the far devices'
    drawn interference over the noise, a trial's capacity is log2(e)
    int_0^inf e^-t C prod_j B_j A_mid A_tail dt, C = u / (1 + t u), B_j =
    1 / (1 + t b_j), A = e^(-t a).  The factors come from independent parts
    of the draws (the target's, each neighbour's, the mid devices' at
    index gap 3..K and the tail's beyond K = 10: seven inside a band of
    N > K), so it integrates the product of their means on a rule fixed by
    the SNR (:func:`numerics.hamdi_rule`): the exactly unbiased average
    over all combinations of the parts' draws.  The parts being
    independent, each may average its own number of draws and stay
    exactly unbiased (Neyman allocation; Glasserman 2003, section 4.3):
    the neighbours at index gap +-1, which hold most of the residual
    variance, take R draws a trial (:func:`_neighbour_draws`; R = 11 at
    N = 199), their factor rows and columns the means over them
    (:func:`_part_factors`), so no per-trial array grows; and the tail,
    which after the fit holds at most 2e-5-5e-5 of the variance a draw
    while being 378 of the 419 columns of a trial at N = 199, is drawn on
    32 rows of its own a block of 256 (:data:`_TAIL_DRAWS`), so the
    sampler, the kernel and its Taylor sums see it one trial in 8.

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
    the group.  Correcting the product at first order alone,
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
    0.  A scenario gives the same bits alone or in
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
    columns_of, near, owners, tail = _capacity_layout(plan.target_index, n)
    band = columns_of.size - len(owners)  # the main draws' devices, before the extra draws
    # the near devices' columns, then the extra draws', which a static
    # scenario skips: their factors would equal its main draws', exactly 1
    moving = [c.doppler_span(m.max_velocity_mps) != 0.0 for c, m in scenarios]
    drawn = near + list(range(band, columns_of.size))
    parts = len(near) + (band > len(near))  # the main draws' parts: near, then mid
    # each draw set's parts and draws: the main draws', then the tail's
    sets = [(slice(0, parts), plan.trials)] \
        + [(slice(parts, parts + 1), _tail_draws(plan.trials))] * bool(tail.size)
    draws = np.concatenate([np.full(p.stop - p.start, d) for p, d in sets])[:, None]
    rules = [hamdi_rule(snr) for snr in snrs]
    # the parts' table, then a scratch for a round of the extra draws', then the tail's
    table_rows = parts + len(set(owners))
    table_size = (table_rows * min(plan.trials, BLOCK_TRIALS) + bool(tail.size)
                  * min(plan.trials, _TAIL_DRAWS)) * max(nodes.size for nodes, _ in rules)
    # the near parts, the mid part and the tail: each group its own columns,
    # as (draw set, its parts in the set's table, its parts)
    groups = [(0, slice(0, len(near)), slice(0, len(near)))] \
        + [(0, slice(len(near), parts), slice(len(near), parts))] * (parts > len(near)) \
        + [(1, slice(0, 1), slice(parts, parts + 1))] * bool(tail.size)
    widths = [_near_means(cell.paths_per_device).size] + [_FAR_WIDTH] * (len(groups) - 1)
    columns = [np.empty((sets[s][1], g.stop - g.start, w)) for (s, g, _), w in zip(groups, widths)]
    grams = [np.zeros((g.stop - g.start, _FOLDS, w + 1, w + 1))
             for (_, g, _), w in zip(groups, widths)]
    influences = [[np.empty((d, p.stop - p.start)) for p, d in sets] for _ in scenarios]
    # per scenario, while its blocks run: the sums of its factors, its first
    # trial's, the node weights of its influences and its node sums; then
    # its controlled mean and the slopes of its influences
    totals, first, node_weights, node_sums, means, slopes = ([None] * len(scenarios)
                                                             for _ in range(6))
    for k, rows, powers, variates, weights in _device_powers(plan, cell, scenarios, gaps, True):
        last = rows[0].stop == plan.trials
        if k == 0:
            designs = []
            for (s, _, _), stored, gram, block in zip(groups, columns, grams, variates):
                stored[rows[s]] = block
                designs.append(np.concatenate([np.ones(block.shape[:2] + (1,)), block], axis=2))
                gram += _fold_sums(designs[-1], designs[-1].transpose(1, 0, 2))
            if last:
                solvers = [_fold_solver(gram) for gram in grams]
            tables = _aligned_empty((table_size,))  # let go with the block
        nodes, rule = rules[k]
        size = len(powers[0])
        faded = powers[0][:, drawn if moving[k] else near]
        faded *= snrs[k]
        faded = faded.T  # u, the b_j, extras
        powers[0] *= weights[0]  # 0 at the near devices and the extra draws
        far = powers[0][:, :band].sum(axis=1) * snrs[k] if parts > len(near) else None
        held = tables[:table_rows * size * nodes.size].reshape(table_rows, size, -1)
        table = [_part_factors(nodes, faded, far, owners if moving[k] else [], held[:parts],
                               held[parts:])]
        table[0][0] *= faded[0][:, None]  # C is u times its row
        faded = None  # let go before the next scenario forms its own
        if tail.size:
            # the tail's one row, e^(-t a) of its drawn interference a
            powers[1] *= weights[1]
            rest = tables[held.size:held.size + len(powers[1]) * nodes.size]
            table.append(_part_factors(nodes, np.empty((0, len(powers[1]))),
                                       powers[1].sum(axis=1) * snrs[k], [],
                                       rest.reshape(1, len(powers[1]), -1), held[:0]))
        column_sums = np.concatenate([np.ones(t.shape[1]) @ t for t in table])
        totals[k] = column_sums + (totals[k] if rows[0].start else 0.0)
        if rows[0].start == 0:
            counts = np.concatenate([np.full(len(t), t.shape[1]) for t in table])
            node_weights[k] = _all_but_each(column_sums / counts[:, None]) * rule
            first[k] = [t[:, 0].copy() for t in table]
            node_sums[k] = []
        # less the first trial's factors, which leaves the influences and the
        # node sums the digits of their spread, and equal factors exactly 0
        for (part, _), factors, f, y, r in zip(sets, table, first[k], influences[k], rows):
            factors -= f[:, None]
            y[r] = (factors @ node_weights[k][part][..., None])[..., 0].T
        for i, ((s, local, _), design) in enumerate(zip(groups, designs)):
            sums = _fold_sums(design, table[s][local])
            if rows[0].start:
                node_sums[k][i] += sums
            else:
                node_sums[k].append(sums)
        sums = None
        if last:
            # the part means controlled at every node, and the slopes of the
            # influences; the node sums go as soon as they are used
            slopes[k] = []
            for (_, _, part), gram, solve, sums in zip(groups, grams, solvers, node_sums[k]):
                beta = solve(sums)  # per part, fold, column and node
                # row 0 of a gram: the fold's draw count and column sums
                totals[k][part] -= np.einsum("ifs,ifsn->in", gram[..., 0, :], beta)
                slopes[k].append(np.einsum("ifsn,in->ifs", beta, node_weights[k][part]))
            means[k] = rule @ np.prod(totals[k] / draws, axis=0)
            node_sums[k] = sums = beta = None
        if k == len(scenarios) - 1:
            tables = held = rest = table = factors = designs = None
    powers = variates = weights = None  # let the last block go before the fit
    designs = [_fold_design(stored) for stored in columns]
    estimates = []
    for mean, ys, betas in zip(means, influences, slopes):
        residuals = [np.empty_like(y) for y in ys]
        for (s, local, _), design, beta in zip(groups, designs, betas):
            residuals[s][:, local] = _residuals(design, ys[s][:, local], beta)
        # the residuals over 2^scale, below 1: exact, and where the capacity
        # is tiny their squares and the variance then do not underflow; a
        # draw set of one draw gives no variance
        scale = int(np.frexp(max(abs(r).max() for r in residuals))[1])
        variance = sum(np.var(np.ldexp(r, -scale), axis=0, ddof=1).sum() / len(r)
                       for r in residuals if len(r) > 1)
        estimates.append(Estimate(LOG2_E * float(mean), LOG2_E * math.ldexp(
            math.sqrt(variance), scale), plan.trials))
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
