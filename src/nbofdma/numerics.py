"""Deterministic numerical kernels: sin(pi r), normalized sinc, sine integral,
Hamdi's capacity rule, the exact means of the capacity Monte Carlo's
surrogates, quadrature, and the row tiles of the Monte Carlo block
arithmetic.

Everything in this module is pure floating-point arithmetic with no hidden
state and no randomness, so repeated calls with identical inputs return
bit-identical results.  The sine integral calls no quadrature, so the
adaptive integrator, the workhorse behind the leakage, useful-power and
capacity quadratures elsewhere in the package, is never nested; it calls
its integrand once a panel split, on an array of nodes.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "sin_pi",
    "sinc",
    "sinc_squared",
    "sinc_squared_pair",
    "row_tiles",
    "sine_integral",
    "HAMDI_MAX_SCALE",
    "hamdi_rule",
    "hamdi_basis",
    "hamdi_factors",
    "SURROGATE_TERMS",
    "surrogate_mean",
    "doppler_power_scale",
    "odd_power_scale",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Convergence policy for :func:`integrate`.

    A panel of the adaptive subdivision is accepted once its error estimate
    drops below the tolerance budget assigned to its share of the interval,
    where the budget for the whole interval is
    ``max(absolute_tolerance, relative_tolerance * scale)`` with ``scale``
    the magnitude of the running integral estimate.
    """

    relative_tolerance: float = 1e-9
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 16384

    def __post_init__(self):
        if not self.relative_tolerance > 0.0:
            raise ValueError("relative_tolerance must be positive")
        if not self.absolute_tolerance > 0.0:
            raise ValueError("absolute_tolerance must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureError(RuntimeError):
    """Adaptive integration failed to meet its tolerance.

    Carries the best available estimate and a bound on its error so a caller
    can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def sinc(x):
    """Normalized sinc, sin(pi x) / (pi x), with sinc(0) = 1.

    Accepts a scalar or a numpy array.  Nonzero integer arguments return
    exactly 0.0 (not a rounding residue) so that tones landing precisely on
    another sub-carrier cancel identically downstream.
    """
    if isinstance(x, np.ndarray):
        out = np.sinc(x)
        out[(x == np.round(x)) & (x != 0.0)] = 0.0
        return out
    x = float(x)
    if x == 0.0:
        return 1.0
    if x == math.floor(x):
        return 0.0
    px = math.pi * x
    return math.sin(px) / px


# odd Taylor series sin(pi r) = r * sum_k (-1)^k pi^(2k+1) / (2k+1)! r^(2k);
# for |r| <= 1/2 the first dropped term, k = 12, is below 1e-20
_SIN_PI_COEFFS = tuple((-1) ** k * math.pi ** (2 * k + 1) / math.factorial(2 * k + 1)
                       for k in range(12))
# _SIN_PI_REACH[K - 2]: the largest |r| up to which the first K terms leave
# a relative remainder (pi r)^(2K) / (2K+1)! below 2^-60, for K = 2 .. 11:
# from 3.2e-5 to 0.502.  One term, pi r, would reach only 7e-10, so a cut
# series keeps at least two.
_SIN_PI_REACH = tuple((2.0 ** -60 * math.factorial(2 * k + 1)) ** (0.5 / k) / math.pi
                      for k in range(2, len(_SIN_PI_COEFFS)))


def _sin_pi_terms(span) -> int:
    """Terms of the sine series for |r| <= min(span, 1/2); all of them
    without a span."""
    if span is None:
        return len(_SIN_PI_COEFFS)
    return 2 + bisect.bisect_right(_SIN_PI_REACH, min(span, 0.5))


# spans up to which the cut series of sin_pi stays below 1 without a clamp:
# sin(0.49 pi) = 0.99951, and the series is within a few ulp of it there
_CLAMP_FREE_SPAN = 0.49


def sin_pi(r, out=None, span=None, work=None):
    """sin(pi r) for |r| <= 1/2 from a power series in numpy arithmetic
    alone; returns an array of the shape of ``r``, written to ``out`` if
    given (which may be ``r`` itself).

    Accurate to rounding on that range and odd bit for bit (the series is r
    times a polynomial in r^2), so +0 and -0 map to themselves.  Outside
    |r| <= 1/2 the result is not sin(pi r).  ``span``, a bound on |r|, cuts
    the series to the fewest terms whose remainder stays below 2^-60
    relative up to min(span, 1/2): 5 terms at 0.012, 8 at 0.12 and 11 at
    1/2.  Without it the series keeps all 12.  The result is clamped to
    [-1, 1], where near r = +-1/2 the unclamped series can round one ulp
    above 1, unless a span of at most 0.49 keeps it below 0.9996.

    ``work``, an array of the shape of ``r`` the caller owns, takes r^2;
    with it and an ``out`` that shares no memory with ``r`` the call
    allocates nothing.
    """
    coeffs = _SIN_PI_COEFFS[:_sin_pi_terms(span)]
    r = np.asarray(r, dtype=float)
    r2 = np.multiply(r, r, out=work)
    if out is None or np.may_share_memory(out, r):
        p = np.empty_like(r)
    else:
        p = out
    np.multiply(r2, coeffs[-1], out=p)
    for c in coeffs[-2:0:-1]:
        p += c
        p *= r2
    p += coeffs[0]
    p = np.multiply(p, r, out=p if out is None else out)
    if span is None or span > _CLAMP_FREE_SPAN:
        np.clip(p, -1.0, 1.0, out=p)
    return p


def _over_squared_distance(s, x):
    """s / (pi x)^2 in ``s``, x = gap +- offset, which it overwrites, and
    exactly 1 where x is 0."""
    x *= math.pi
    x *= x
    # x == 0 needs |gap| <= |offset|: rare, so test before writing
    centre = x == 0.0
    if centre.any():
        x[centre] = 1.0
        s[centre] = 1.0
    s /= x
    return s


def sinc_squared(gap, offset, span=None, out=None, work=None, mirror=None):
    """sinc(gap + offset)**2 for a whole-number ``gap`` and a real
    ``offset``; the result has the broadcast shape of the two.

    For whole-number gaps sin(pi (gap + offset))^2 = sin(pi r)^2 with
    r = offset - rint(offset), so the sine never sees a large argument and
    the result keeps full relative precision hundreds of sub-carriers away,
    where ``np.sinc`` does not.  Returns exactly 1.0 where
    gap + offset == 0 and exactly 0.0 where ``offset`` is a whole number and
    gap + offset != 0.

    ``span``, a bound on |offset|, sizes the work to it: the sine gets the
    terms of :func:`sin_pi` at that span, and up to a span of 1/2 the offset
    is its own r, so the ``rint`` reduction is skipped.  Without it the
    kernel serves any offset.

    ``out``, an array of the result's shape, receives the result, and
    ``work``, of shape ``(2,) + out.shape``, is scratch: ``work[0]`` holds
    r^2 and then (pi (gap + offset))^2, ``work[1]`` r where the offset is
    reduced.  Neither may share memory with ``gap`` or ``offset``.  With
    both the call allocates no float array, so a caller that evaluates many
    tiles reuses the same memory; the values are those of the allocating
    call, bit for bit.

    ``mirror``, an array of the result's shape sharing no memory with the
    rest but ``work[1]``, which it may be, also receives sinc(gap -
    offset)**2, and the call returns the pair (result, mirror).  It costs
    only the mirror's denominators: ``rint`` is symmetric and
    :func:`sin_pi` odd bit for bit, so sin^2 of the negated offset is the
    same s^2, and the mirror equals, bit for bit, what the call gives on
    the negated offsets.
    """
    offset = np.asarray(offset, dtype=float)
    shape = np.broadcast_shapes(np.shape(gap), offset.shape) if out is None else out.shape
    if offset.shape != shape:
        offset = np.broadcast_to(offset, shape)
    if work is None:
        work = np.empty((2,) + shape)
    if span is not None and span <= 0.5:
        r = offset
    else:
        r = np.rint(offset, out=work[1])
        np.subtract(offset, r, out=r)
    s = sin_pi(r, out, span, work[0])
    s *= s
    if mirror is None:
        return _over_squared_distance(s, np.add(gap, offset, out=work[0]))
    np.copyto(mirror, s)
    _over_squared_distance(mirror, np.subtract(gap, offset, out=work[0]))
    return _over_squared_distance(s, np.add(gap, offset, out=work[0])), mirror


def sinc_squared_pair(halves, offset, span, out=None, work=None):
    """sinc(g + o)**2 + sinc(g - o)**2, the summed power of an offset o and
    its mirror -o, for whole-number gaps g given as ``halves`` = (pi g)^2 / 2
    and offsets with |o| <= ``span`` <= 1/2 and every |g| >= 2 ``span``.

    The two share the sine: sin^2(pi (g +- o)) = s^2, s = sin(pi o), so the
    sum is s^2 (1 / (a + b)^2 + 1 / (a - b)^2) = s^2 2 (a^2 + b^2) / (a^2 -
    b^2)^2 with a = pi g and b = pi o, which is (s / (h - c))^2 (h + c) with
    h = a^2 / 2 and c = b^2 / 2; c comes from the o^2 that :func:`sin_pi`
    forms.  There h - c >= 3 h / 4, so the subtraction costs at most a
    factor 4/3 in relative precision and no centre is possible; an offset
    of 0 gives exactly 0.  It takes the place of :func:`sinc_squared`'s
    ``mirror`` and the sum of the two, with one denominator pass and no
    second output.  ``out`` and ``work`` are as for :func:`sinc_squared`,
    and with both the call allocates nothing.
    """
    offset = np.asarray(offset, dtype=float)
    shape = np.broadcast_shapes(np.shape(halves), offset.shape) if out is None else out.shape
    if offset.shape != shape:
        offset = np.broadcast_to(offset, shape)
    if work is None:
        work = np.empty((2,) + shape)
    s = sin_pi(offset, out, span, work[0])  # o^2 in work[0]
    c = np.multiply(work[0], math.pi ** 2 / 2.0, out=work[0])
    distance = np.subtract(halves, c, out=work[1])
    s /= distance
    s *= s
    s *= np.add(halves, c, out=c)
    return s


# elements per tile of the Monte Carlo block arithmetic: small enough for a
# tile and its temporaries to stay in cache, large enough that numpy's
# per-call overhead is amortized
_TILE_ELEMENTS = 1 << 15


def row_tiles(rows: int, row_size: int):
    """Slices covering ``rows`` consecutive rows of ``row_size`` elements in
    tiles of about :data:`_TILE_ELEMENTS` elements, at least one row each."""
    step = max(1, _TILE_ELEMENTS // row_size)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


# Si(x) / x = sum_k (-1)^k x^2k / ((2k + 1) (2k + 1)!), which is at least
# Si(4) / 4 = 0.44 up to x = 4: _SI_REACH[K - 1] is the largest x up to which
# the first K terms leave a dropped term below 2^-60 of it, from 2e-5 at
# K = 1 to 4.3 at 17.  Horner's form in x^2 stays within 6e-16 of mpmath.
_SI_SERIES = tuple((-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(17))
_SI_REACH = tuple((2.0 ** -60 * 0.44 / abs(c)) ** (0.5 / k)
                  for k, c in enumerate(_SI_SERIES[1:], start=1))


def _si_series(x: np.ndarray, top: float) -> np.ndarray:
    """Si(x) for 0 <= x <= ``top`` <= 4, from the fewest terms that reach ``top``."""
    coefficients = _SI_SERIES[:1 + bisect.bisect_left(_SI_REACH, top)]
    x2 = x * x
    total = np.full(x.shape, coefficients[-1])
    for coefficient in coefficients[-2::-1]:
        total *= x2
        total += coefficient
    return total * x


# e^z E1(z) from the even form of the continued fraction of Abramowitz &
# Stegun 5.1.22, 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - 9 / ...))), which
# converges everywhere off the negative real axis
def _exp1_fraction(z, depth: int):
    """e^z E1(z) from ``depth`` levels of the fraction, evaluated bottom up,
    for a complex ``z``."""
    fraction = 2.0 * depth + 1.0
    for k in range(depth, 0, -1):
        fraction = (2.0 * k - 1.0) - k * k / (fraction + z)
    return 1.0 / (fraction + z)


_SI_CUTOFF = 4.0


def sine_integral(x):
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x, for x >= 0:
    a float for a float, or for an array ``x`` an array of its shape,
    element by element, so that a quadrature takes a panel in one call.

    Power series up to x = 4, of as many terms as the call's largest
    argument there needs.  Above it Si(x) = pi/2 + Im(e^(-ix) F(ix))
    with F(z) = e^z E1(z) (A&S 5.2.23), from the continued fraction at a
    depth of 3 + 170 / x levels, x the smallest argument above 4 of the
    call: at z = ix the fraction needs about 170 / x levels to converge to
    rounding, and more levels change nothing.  Within 6e-16 relative of
    mpmath from x = 1e-3 to 1e8, and Si(x) approaches pi/2 for large x.
    There is no quadrature, so no x >= 0 raises :class:`QuadratureError`.
    """
    values = np.asarray(x, dtype=float)
    top = values.max(initial=0.0)
    if not (top < math.inf and values.min(initial=0.0) >= 0.0):
        raise ValueError("sine_integral requires a finite x >= 0")
    if top <= _SI_CUTOFF:
        out = _si_series(values, top)
    else:
        series = values <= _SI_CUTOFF
        out = np.empty(values.shape)
        if series.any():
            out[series] = _si_series(values[series], _SI_CUTOFF)
        beyond = values[~series]
        f = _exp1_fraction(1j * beyond, 3 + int(170.0 / beyond.min()))
        # Im((cos x - i sin x) f)
        out[~series] = math.pi / 2.0 + np.cos(beyond) * f.imag - np.sin(beyond) * f.real
    return out if out.ndim else float(out)


# Hamdi's lemma (K. A. Hamdi, IEEE Trans. Commun. 58(2), 2010): an ergodic
# capacity in nats is int_0^inf e^-t prod_i F_i(t) dt, one factor per
# independent power (:func:`hamdi_factors`).  The rule is a trapezoid in
# s = ln t of step 1/4 up to s = 3.75, analytic in |Im s| < pi / 2 (error
# e^(-pi^2 / h) = 7e-18; e^-t < 4e-19 beyond).  Below its first node t_0
# its own tail, sum_(k>=1) h t_k f(t_k) at t_k = t_0 e^(-kh), is the
# 4-point Gauss rule of that discrete measure (nodes and weights over t_0),
# exact for f of degree 7 in t: to rounding while t_0 times each scale < 0.03.
_HAMDI_STEP, _HAMDI_LAST, _HAMDI_REACH = 0.25, 15, 0.03
_HAMDI_TAIL = np.array([[0.05527439166615992, 0.2628462816345436, 0.535545282269054,
                         0.7733615219325921],
                        [0.13847315233216273, 0.2599782296869281, 0.2656795399705815,
                         0.21607199405727728]])


@functools.lru_cache(maxsize=None)
def _hamdi_rule(first: int):
    t = np.exp(np.arange(first, _HAMDI_LAST + 1) * _HAMDI_STEP)
    nodes, weights = np.concatenate([t[0] * _HAMDI_TAIL, [t, _HAMDI_STEP * t]], axis=1)
    weights[-1] /= 2.0
    weights *= np.exp(-nodes)
    basis = np.ones((2, nodes.size))
    basis[0] = nodes
    for array in (nodes, weights, basis):
        array.flags.writeable = False
    return nodes, weights, basis


HAMDI_MAX_SCALE = 1e300  # the largest scale the rule is sized to


def _hamdi_first(scale: float) -> int:
    """The lattice point the rule at ``scale`` starts from (:func:`hamdi_rule`)."""
    scale = min(max(scale, 1.0), HAMDI_MAX_SCALE)
    return math.floor(math.log(_HAMDI_REACH / scale) / _HAMDI_STEP)


def hamdi_rule(scale: float):
    """(nodes t_n, weights) of the package's one rule for Hamdi's integral,
    sum_n weights_n prod_i F_i(t_n), e^-t in the weights, for factors
    (:func:`hamdi_factors`) of scales u, b and a up to ``scale``, clamped
    to [1, :data:`HAMDI_MAX_SCALE`]: within 5e-16 relative of mpmath up to
    1e30, 2e-15 at 1e300.  The trapezoid starts at the lattice point below
    ln(0.03 / scale): 53 nodes at a scale of 100, 311 at 1e30 and 2798 at
    1e300.  The arrays are shared and read-only."""
    return _hamdi_rule(_hamdi_first(scale))[:2]


def hamdi_basis(scale: float) -> np.ndarray:
    """The (2, nodes) rows t_n and 1 of the rule at ``scale``
    (:func:`hamdi_rule`), which :func:`hamdi_factors` takes in place of its
    nodes; shared and read-only, so that a call forms no basis."""
    return _hamdi_rule(_hamdi_first(scale))[2]


def hamdi_factors(nodes, faded, far=None, out=None):
    """(factors, trials, nodes) table at ``nodes`` of 1 / (1 + t b) for
    each row b of ``faded`` (Rayleigh interferers) and with ``far`` of
    e^(-t a), a = ``far`` (fixed ones), one value a trial in each row; into
    ``out`` if given.  A Rayleigh signal at SNR u has the factor
    u / (1 + t u), u times its row at b = u, so u = 0 gives exactly 0.  The
    arguments are one ``matmul`` of per-trial (slope, intercept) with
    (t, 1): a broadcast pass over the short node axis is slower and
    allocates numpy's 128 kB iterator buffer.  ``nodes`` are the nodes t,
    or those rows (t, 1) of them, a rule's (:func:`hamdi_basis`) or
    columns of it, which are read in place."""
    faded = np.asarray(faded, dtype=float)
    lines = np.zeros((len(faded) + (far is not None), faded.shape[1], 2))
    lines[:len(faded), :, 0] = faded
    lines[:len(faded), :, 1] = 1.0
    if far is not None:
        np.negative(far, out=lines[-1, :, 0])
    basis = nodes
    if np.ndim(nodes) == 1:
        basis = np.ones((2, nodes.size))
        basis[0] = nodes
    out = np.matmul(lines, basis, out=out)
    np.reciprocal(out[:len(faded)], out=out[:len(faded)])
    if far is not None:
        np.exp(out[-1], out=out[-1])
    return out


# The capacity's surrogates (:func:`montecarlo._part_factors`) are each
# c^(j-1) X S^j, S = 1 / (1 + c m_2), X = prod_i m_(p_i) a product of path
# moments m_p = u^p mean_m cos^p psi_m of a device of M paths (u uniform on
# [0, 1), the psi_m uniform and independent) and j its power of S, keyed by
# (p_i, j) in :data:`SURROGATE_TERMS`: S itself, T = c m_4 S^2 and U = c^2
# m_3^2 S^3 of second order, W = c m_6 S^2, X = c^2 m_4^2 S^3 and Y = c^4
# m_3^4 S^5 of third.  Their exact means h_M(c) = E[S], tau_M(c) = E[T],
# upsilon_M(c) = E[U], omega_M(c) = E[W], chi_M(c) = E[X] and eta_M(c) =
# E[Y] share one route.  With 1 / (1 + y)^j = int w^(j-1) e^(-w (1 + y)) dw
# / (j - 1)! and lam = w u^2, each is
#     c^(j-1) / (j - 1)! int_0^inf lam^(j-1) H(c lam) rho_i(lam) dlam,
# rho_i(lam) = int_0^1 u^(2i) e^(-lam / u^2) du for the u^(2i) that X
# leaves over S^j, 2i = P - 2j, P = sum_i p_i: i = -1 for S, rho_-1(lam) =
# (sqrt(pi) / 2) erfc(sqrt lam) / sqrt lam, and by parts rho_i = (e^-lam -
# 2 lam rho_(i-1)) / (2i + 1), i = 0 for T and U and 1 for W, X and Y.
# H(mu) = E[prod_i mean_m cos^(p_i) psi_m e^(-(mu / M) sum_m cos^2 psi_m)]
# sums over the patterns of equal path indices among the factors, as
# :func:`_monomial_mean` does, with Psi_k(s) = E[cos^2k psi e^(-s cos^2
# psi)] (Psi_0(s) = e^(-s/2) I0(s/2), Psi_2(s) = (1/4) e^(-s/2) (3/2 I0 - 2
# I1 + 1/2 I2)(s/2)) and Phi = Psi_0 at s = mu / M; a pattern whose block
# holds an odd sum of orders has mean 0, since E[cos^(2k+1) psi e^(-s cos^2
# psi)] = 0: H = Phi^M for S, Psi_2 Phi^(M-1) for T, Psi_3 Phi^(M-1) / M
# for U, Psi_3 Phi^(M-1) for W, [M Psi_4 Phi^(M-1) + M (M-1) Psi_2^2
# Phi^(M-2)] / M^2 for X and [M Psi_6 Phi^(M-1) + 3 M (M-1) Psi_3^2
# Phi^(M-2)] / M^4 for Y.  In mu = c lam, the mean is sum_s rho_i(e^s) L(ln
# c + s) h / (c (j - 1)!), L(y) = e^(jy) H(e^y), a trapezoid of step h =
# 1/8 in s = ln lam from s = -40 - 716 to 4, so that mu reaches down to
# e^-40 at the table's last c, e^716 (L falls as e^(jy) below, and h_M's
# tail there is below 4e-17 of it up to c = 1e300; at j = 5 a step of 1/4
# left 6e-13, its error growing with j).  A table holds it on a lattice of
# step 1/16 in ln c, where the trapezoid's nodes fall on one finer lattice,
# so that the table is a correlation of L's values with the weights;
# 10-point Lagrange interpolation reads it within about 1e-14.  The table
# holds (1 + 1/c)^j times the sum, bounded in ln c: at c = 0, (j - 1)!
# E[X], and at infinity, (j - 1)! E[X / m_2^j] (finite for i >= 0: X /
# m_2^j is u^(2i) times a bounded function of the angles).  1 / m_2 has no
# mean, and h_M(c) falls as ln(c) / sqrt(c) (asinh(sqrt c) / sqrt c at one
# path), so its table holds sqrt(1 + c) h_M(c) instead, whose slope in ln
# c stays small (held as (1 + c) h_M, the rounding of ln c would cost 3e-14
# near c = 1e300).  The Bessel combinations cancel their leading orders
# (Psi_2's first two), so they are not formed: up to s = 80, Psi_k is the
# midpoint rule of 64 nodes on psi in [0, pi/2] (periodic and entire, so
# its error, about e^(-s/2) I_(128-k)(s/2), is below 1e-40), and beyond it
# the asymptotic series of Laplace's method (for k = 2 the combined A&S
# 9.7.1 series), s^k Psi_k(s) = Gamma(k + 1/2) / (pi sqrt(s)) sum_n d_n
# s^-n, d_0 = 1, d_n = d_(n-1) (2n - 1) (2n + 2k - 1) / 4n: 24 terms reach
# rounding from s = 80 (4e-18 of the sum at k = 6).
SURROGATE_TERMS = (((), 1), ((4,), 2), ((3, 3), 3),  # S, T and U: (p_i, j)
                   ((6,), 2), ((4, 4), 3), ((3, 3, 3, 3), 5))  # W, X and Y
_MOMENT_STEP = 0.125  # h, the step in ln lam of the tables' trapezoid
_REC_GRID, _REC_ORDER = 1.0 / 16.0, 9
_REC_LOW, _REC_HIGH = -40.0, 716.0  # ln c of the tables' ends; c^(j-1) E[X] below
# the interpolation's nodes i = 0.._REC_ORDER, and 1 / prod_(j != i) (i - j)
_REC_NODES = np.arange(_REC_ORDER + 1)[:, None]
_REC_NODE_WEIGHTS = np.array([[(-1) ** (_REC_ORDER - i)
                               / (math.factorial(i) * math.factorial(_REC_ORDER - i))]
                              for i in range(_REC_ORDER + 1)])
_PSI_NODES = np.cos((np.arange(64) + 0.5) * (math.pi / 128.0)) ** 2  # cos^2 of the midpoints
_PSI_REACH, _PSI_SERIES = 80.0, 24


def _interpolated(table: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """A table on the lattice ln c = _REC_LOW + j _REC_GRID read at each c
    of ``scales``, all above e^_REC_LOW, by 10-point Lagrange
    interpolation; the last entry past the table's end.  Each value is
    the same bits alone as in an array."""
    position = np.minimum((np.log(scales) - _REC_LOW) / _REC_GRID, table.size - 1.0)
    start = np.clip(position.astype(int) - _REC_ORDER // 2, 0, table.size - _REC_ORDER - 1)
    offsets = (position - start) - _REC_NODES
    # Lagrange's basis, prod_(j != i) (t - j) / (i - j), as the product of
    # all offsets over the node's own; on a node its own is made tiny,
    # which leaves that basis 1 and the others 0 to rounding
    offsets[offsets == 0.0] = 1e-280
    # a row at a time, so that each value takes the same operations alone
    # as in an array of any length
    product = offsets[0].copy()
    for row in offsets[1:]:
        product *= row
    total = np.zeros(product.shape)
    for node, (row, weight) in enumerate(zip(offsets, _REC_NODE_WEIGHTS[:, 0])):
        total += product / row * weight * table[start + node]
    return total


def _correlated(first: int, weights: np.ndarray, values) -> np.ndarray:
    """sum_i weights_i values(y + s_i) at each y = ln c = _REC_LOW + j
    _REC_GRID of the table, s_i = (first + i) h the trapezoid's nodes in ln
    lam, h = _MOMENT_STEP a whole number of the table's steps: one
    correlation a phase of the finer lattice on which both fall, ``values``
    taking that lattice's ln (c lam)."""
    ratio = round(_MOMENT_STEP / _REC_GRID)
    size = round((_REC_HIGH - _REC_LOW) / _REC_GRID) + 1
    lattice = _REC_LOW + (np.arange(size + ratio * (weights.size - 1)) + ratio * first) * _REC_GRID
    laplace = values(lattice)
    table = np.empty(size)
    for r in range(ratio):
        rows = table[r::ratio]
        rows[:] = np.correlate(laplace[r::ratio], weights, "valid")[:rows.size]
    return table


def _cosine_power_laplace(log_s: np.ndarray, order: int, power: int | None = None) -> np.ndarray:
    """s^a Psi_k(s), Psi_k(s) = E[cos^2k psi e^(-s cos^2 psi)], k =
    ``order`` and a = ``power`` (k unless given; k - i for the block that
    takes a table's u^(2i), :func:`_moment_table`), for s = e^``log_s``:
    the midpoint rule in psi up to s = 80, the asymptotic series of s^k
    Psi_k beyond, times s^(a - k), formed as one power of s where a > k, so
    that e^-``log_s``, which may underflow, never meets a negative power.
    Order 0 is Psi_0(s) = e^(-s/2) I0(s/2), whose M-th power at s = c / M
    is Phi_M(c), the Laplace transform of every table's H."""
    power = order if power is None else power
    out = np.empty(log_s.shape)
    small = log_s <= math.log(_PSI_REACH)
    s = np.exp(log_s[small])
    total = np.zeros(s.shape)
    for node in _PSI_NODES:  # a node at a time, so that no (values, nodes) array is held
        total += node ** order * np.exp(-node * s)
    out[small] = total * s ** power / _PSI_NODES.size
    inverse = np.exp(-log_s[~small])
    series = np.zeros(inverse.shape)
    for n in range(_PSI_SERIES - 1, 0, -1):  # Horner
        series = (series + 1.0) * inverse * ((2 * n - 1) * (2 * n + 2 * order - 1) / (4.0 * n))
    if power > order:  # s^(a - k - 1/2)
        scale = np.exp((power - order - 0.5) * log_s[~small])
    else:
        scale = np.sqrt(inverse) * inverse ** (order - power)
    out[~small] = (series + 1.0) * (math.gamma(order + 0.5) / math.pi) * scale
    return out


def _set_partitions(items: list):
    """Every partition of ``items`` into blocks, each a list of lists."""
    if not items:
        yield []
        return
    for partition in _set_partitions(items[1:]):
        yield [[items[0]]] + partition
        for i, block in enumerate(partition):
            yield partition[:i] + [[items[0]] + block] + partition[i + 1:]


def _even_patterns(orders: tuple, paths: int):
    """(count, halves) for each pattern of equal path indices among the k
    factors m_(p_i), p_i = ``orders``, of M = ``paths`` paths whose mean is
    not 0: a set partition pi of the factors whose every block B holds an
    even sum n_B of orders, its count (M)_|pi| of distinct index tuples (the
    falling factorial, 0 where pi has more blocks than M) and its blocks'
    n_B / 2."""
    for partition in _set_partitions(list(orders)):
        sums = [sum(block) for block in partition]
        count = math.perm(paths, len(sums))
        if count and all(n % 2 == 0 for n in sums):
            yield count, [n // 2 for n in sums]


@functools.cache
def _monomial_mean(orders: tuple, paths: int) -> float:
    """E[prod_i m_(p_i)], p_i = ``orders`` and m_p = mean_m z_m^p over a
    device's ``paths`` paths, z_m = u c_m, correctly rounded from its exact
    value.  The paths share u, so a product's mean is E[u^P] sum_pi
    (M)_|pi| / M^k prod_(B in pi) E[c^(n_B)], n_B = sum_(i in B) p_i,
    P = sum_i p_i, pi running over the set partitions of the k factors
    (the patterns of equal path indices, :func:`_even_patterns`) and (M)_j
    the falling factorial: E[u^P] = 1 / (P + 1) for u uniform on [0, 1), and
    E[c^n] = C(n, n/2) / 2^n for even n and 0 for odd n, c of the arcsine
    law.  The n_B sum to P, so over the common denominator (P + 1) M^k 2^P
    the sum is one of whole numbers."""
    total = sum(count * math.prod(math.comb(2 * half, half) for half in halves)
                for count, halves in _even_patterns(orders, paths))
    power = sum(orders)
    return total / ((power + 1) * paths ** len(orders) * 2 ** power)


@functools.cache
def _moment_table(paths: int, orders: tuple, power: int) -> np.ndarray:
    """(1 + 1/c)^j sum_s rho_i(e^s) L(ln c + s) h at ln c = _REC_LOW + k
    _REC_GRID for the mean of c^(j-1) X S^j, X = prod_i m_(p_i) of M =
    ``paths`` paths, p_i = ``orders`` and j = ``power``, or at j = 1,
    sqrt(1 + c) h_M(c); built on first use, read-only."""
    first = math.floor((-40.0 - _REC_HIGH) / _MOMENT_STEP)
    nodes = np.arange(first, round(4.0 / _MOMENT_STEP) + 1) * _MOMENT_STEP  # s = ln lam
    lam, root = np.exp(nodes), np.exp(nodes / 2.0)  # lam underflows below e^-745, its root not
    rho = (math.sqrt(math.pi) / 2.0) * np.array([math.erfc(r) for r in root]) / root  # rho_-1
    spare = sum(orders) // 2 - power  # i: the u^(2i) that X leaves over S^j, -1, 0 or 1
    for i in range(spare + 1):
        rho = (np.exp(-lam) - 2.0 * lam * rho) / (2 * i + 1)
    patterns = [(count * paths ** power / paths ** len(orders), halves)
                for count, halves in _even_patterns(orders, paths)]

    def values(lattice):  # L(y) = e^(jy) H(e^y) = M^j s^j H, s = e^y / M
        log_s = lattice - math.log(paths)
        phi = _cosine_power_laplace(log_s, 0)
        total = np.zeros(lattice.shape)
        for weight, halves in patterns:
            head, *rest = halves or [0]  # S's empty monomial: s Psi_0 Psi_0^(M-1)
            term = _cosine_power_laplace(log_s, head, head - spare) * weight
            for half in rest:
                term *= _cosine_power_laplace(log_s, half)
            total += term * phi ** (paths - 1 - len(rest))
        return total
    table = _correlated(first, _MOMENT_STEP * rho, values)
    log_c = _REC_LOW + np.arange(table.size) * _REC_GRID
    if power == 1:  # sqrt(1 + c) / c, which no c past the double range forms
        table *= np.exp(-log_c / 2.0) * np.sqrt(1.0 + np.exp(-log_c))
    else:
        table *= (1.0 + np.exp(-log_c)) ** power  # (1 + 1/c)^j
    table.flags.writeable = False
    return table


def surrogate_mean(c, paths: int, orders: tuple = (), power: int = 1):
    """The exact mean of c^(j-1) X S^j, S = 1 / (1 + c m_2) and X =
    prod_i m_(p_i), p_i = ``orders`` and j = ``power``, m_p = mean_m z_m^p
    the path moments of a device of M = ``paths`` paths, z_m = u cos psi_m
    as :func:`sysmodel.sample_cell_batch` draws it, for each c >= 0 of
    ``c``: a float for a float, or an array of the shape of an array (inf
    gives 0), each value the same bits as alone.  With the defaults it is
    h_M(c) = E[S]; :data:`SURROGATE_TERMS` keys the capacity's six
    surrogates.  Interpolated from a table of each key and path count,
    built on first use (:func:`_moment_table`), for c up to 1e300: at one
    path within 1e-13 relative of h_1(c) = asinh(sqrt c) / sqrt c, 1e-14 of
    the closed forms tau_1(c) = (1 - 3/2 asinh(sqrt c) / sqrt c + 1/2 /
    sqrt(1 + c)) / c and upsilon_1(c) = 1 / c - 15/8 asinh(sqrt c) /
    c^(3/2) + 7/8 / (c sqrt(1 + c)) + 1/8 / (1 + c)^(3/2), and 1e-13 of
    mpmath for the third-order means.  Below c = e^-40, c^(j-1) E[X]
    (:func:`_monomial_mean`: 1 for h_M, 3c/40 for tau_M), exact to
    rounding."""
    c = np.asarray(c, dtype=float)
    out = np.empty(c.shape)
    inside = c > math.exp(_REC_LOW)
    out[~inside] = c[~inside] ** (power - 1) * _monomial_mean(orders, paths)
    if inside.any():
        scales = c[inside]
        if power == 1:
            held = np.sqrt(1.0 + scales)
        else:
            held = (1.0 + 1.0 / scales) ** (power - 1) * (1.0 + scales) \
                * math.factorial(power - 1)
        out[inside] = _interpolated(_moment_table(paths, orders, power), scales) / held
    return out if out.ndim else float(out)


@functools.cache
def _power_scale_rule():
    """24-point Gauss-Legendre nodes in u on [0, 1) times the midpoints of
    24 equal steps of psi on [0, pi/2], and their weights."""
    u, weights = np.polynomial.legendre.leggauss(24)
    z = np.outer((u + 1.0) / 2.0, np.cos((np.arange(24) + 0.5) * (math.pi / 48.0)))
    return z, np.outer(weights / 2.0, np.full(24, 1.0 / 24.0))


def doppler_power_scale(span):
    """k(x) = E[sin^2(pi x z)] / (pi^2 x^2 E[z^2]) = 6 E[z^2 sinc^2(x z)]
    for z = u cos psi at each span x of ``span``: the Clarke average of the
    kernel's leading term at a whole-number gap g, sinc^2(g + x z) ~
    sin^2(pi x z) / (pi g)^2, over its own leading order, x^2 z^2 / g^2; 1
    at x = 0.  A float for a float, or an array of the shape of an array,
    each value the same bits as alone.  On a fixed 24 x 24 product rule,
    within 1e-15 of mpmath up to x = 4 and degrading beyond; the
    capacity's mid-part surrogate is unbiased for any scale."""
    z, weights = _power_scale_rule()
    span = np.asarray(span, dtype=float)
    terms = weights * (z * np.sinc(span.reshape(-1, 1, 1) * z)) ** 2
    # each span's terms summed as one contiguous row, as np.sum sums them alone
    out = 6.0 * terms.reshape(span.size, -1).sum(axis=1).reshape(span.shape)
    return out if out.ndim else float(out)


def odd_power_scale(span, q: int):
    """kappa(x) = E[o(x z)^2] / E[(2 (x z)^3 / q^3)^2] for z = u cos psi at
    each span x of ``span``: the Clarke average of the square of the
    kernel's odd part at the whole-number gap q, o(y) = (sinc^2(q + y) -
    sinc^2(q - y)) / 2, over that of its leading term, -2 y^3 / q^3; 1 at x
    = 0, and 0.54 at x = 0.6, q = 1.  With o(y) / (-2 y^3 / q^3) = q^4
    sinc^2(y) / (q^2 - y^2)^2 (1/4 at y = +-q), kappa(x) = E[z^6 (that
    ratio)^2] / E[z^6], which takes no difference of nearby values.  A float
    for a float, or an array of the shape of an array, each value the same
    bits as alone, on the rule of :func:`doppler_power_scale`; the
    capacity's +-1 surrogate is unbiased for any scale."""
    z, weights = _power_scale_rule()
    span = np.asarray(span, dtype=float)
    y = span.reshape(-1, 1, 1) * z
    gap = q * q - y * y
    ratio = np.divide(q ** 4 * sinc_squared(0.0, y), gap * gap, out=np.full(y.shape, 0.25),
                      where=gap != 0.0)
    terms = weights * z ** 6 * ratio * ratio
    out = terms.reshape(span.size, -1).sum(axis=1).reshape(span.shape) / (weights * z ** 6).sum()
    return out if out.ndim else float(out)


# 15-point Gauss-Legendre rule, exact for polynomials through degree 29
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panels(f, *edges: float) -> list:
    """The rule on each panel between consecutive ``edges``, from one call
    of ``f`` at all their nodes; TypeError unless it returns a value for
    each node."""
    edges = np.array(edges)
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _GL_NODES
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.size != x.size:
        raise TypeError(f"the integrand returned {y.size} values for {x.size} nodes; "
                        f"it must take an array of nodes and return one value each")
    return [h * float(_GL_WEIGHTS @ row) for h, row in zip(half, y.reshape(x.shape))]


def integrate(f, lower: float, upper: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptive Gauss-Legendre integral of ``f`` over [lower, upper].

    The integrand takes a numpy array of nodes and returns one value for
    each (the two halves of a panel are evaluated in one call); one that
    takes only scalars, or returns a value of another size, raises
    TypeError.  Subdivision is recursive bisection with a fixed 15-point
    rule per panel; the error estimate on a panel is the difference between
    its one-panel value and the sum over its two halves.  Raises
    :class:`QuadratureError` when ``spec.max_subdivisions`` splits are not
    enough, with the best estimate attached.
    """
    if spec is None:
        spec = QuadratureSpec()
    lower = float(lower)
    upper = float(upper)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("integration limits must be finite")
    if lower > upper:
        raise ValueError("lower integration limit exceeds upper limit")
    if lower == upper:
        return 0.0

    width = upper - lower
    [whole] = _gl_panels(f, lower, upper)
    scale = max(abs(whole), spec.absolute_tolerance)

    total = 0.0
    total_error = 0.0
    splits = 0
    exhausted = False
    stack = [(lower, upper, whole)]
    while stack:
        a, b, est = stack.pop()
        mid = 0.5 * (a + b)
        left, right = _gl_panels(f, a, mid, b)
        better = left + right
        err = abs(better - est)
        budget = max(spec.absolute_tolerance, spec.relative_tolerance * scale)
        tol = budget * ((b - a) / width)
        # floor at the rounding noise of the panel itself
        tol = max(tol, 1e-15 * abs(better))
        if err <= tol or exhausted:
            total += better
            total_error += err
            continue
        if splits >= spec.max_subdivisions:
            # stop refining, drain the stack at current resolution
            exhausted = True
            total += better
            total_error += err
            continue
        splits += 1
        stack.append((a, mid, left))
        stack.append((mid, b, right))
        scale = max(scale, abs(total))

    if exhausted:
        raise QuadratureError(
            f"quadrature over [{lower}, {upper}] did not converge within "
            f"{spec.max_subdivisions} subdivisions (error bound {total_error:.3e})",
            estimate=total,
            error_bound=total_error,
        )
    return total
