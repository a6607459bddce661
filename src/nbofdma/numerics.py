"""Deterministic numerical kernels: sin(pi r), normalized sinc, sine integral,
the scaled exponential integral, quadrature, and the row tiles of the Monte
Carlo block arithmetic.

Everything in this module is pure floating-point arithmetic with no hidden
state and no randomness, so repeated calls with identical inputs return
bit-identical results.  The sine integral and the scaled exponential
integral share one continued fraction and call no quadrature, so the
adaptive integrator, the workhorse behind the leakage, useful-power and
capacity quadratures elsewhere in the package, is never nested.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "sin_pi",
    "sinc",
    "sinc_squared",
    "row_tiles",
    "sine_integral",
    "exp1_scaled",
    "exp1_scaled_faded",
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


def sinc_squared(gap, offset, span=None, out=None, work=None):
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
    x = np.add(gap, offset, out=work[0])
    x *= math.pi
    x *= x
    # gap + offset == 0 needs |gap| <= |offset|: rare, so test before writing
    centre = x == 0.0
    if centre.any():
        x[centre] = 1.0
        s[centre] = 1.0
    s /= x
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


def _si_series(x: float) -> float:
    # Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1)(2k+1)!), fast for x <= 4
    x2 = x * x
    numerator = x  # (-1)^k x^(2k+1) / (2k+1)!
    total = x
    k = 0
    while True:
        k += 1
        numerator *= -x2 / ((2 * k) * (2 * k + 1))
        term = numerator / (2 * k + 1)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total


# e^z E1(z) from the even form of the continued fraction of Abramowitz &
# Stegun 5.1.22, 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - 9 / ...))), which
# converges everywhere off the negative real axis
def _exp1_fraction(z, depth: int):
    """e^z E1(z) from ``depth`` levels of the fraction, evaluated bottom up
    in plain operators, so ``z`` may be a real numpy array or a complex
    scalar."""
    fraction = 2.0 * depth + 1.0
    for k in range(depth, 0, -1):
        fraction = (2.0 * k - 1.0) - k * k / (fraction + z)
    return 1.0 / (fraction + z)


_SI_CUTOFF = 4.0


def sine_integral(x: float) -> float:
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x, for x >= 0.

    Power series up to x = 4.  Above it Si(x) = pi/2 + Im(e^(-ix) F(ix))
    with F(z) = e^z E1(z) (A&S 5.2.23), from the continued fraction at a
    depth of 3 + 170 / x levels: at z = ix the fraction needs about 170 / x
    levels to converge to rounding.  Within 2e-16 relative of mpmath from
    x = 4 to 1e8, and Si(x) approaches pi/2 for large x.  There is no
    quadrature, so no x >= 0 raises :class:`QuadratureError`.
    """
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError("sine_integral requires a finite x >= 0")
    if x == 0.0:
        return 0.0
    if x <= _SI_CUTOFF:
        return _si_series(x)
    f = _exp1_fraction(complex(0.0, x), 3 + int(170.0 / x))
    # Im((cos x - i sin x) f)
    return math.pi / 2.0 + math.cos(x) * f.imag - math.sin(x) * f.real


# e^x E1(x) from the series E1(x) = -gamma - ln x - sum_k (-x)^k / (k k!)
# (A&S 5.1.11) below the seam and from _EXP1_DEPTH levels of the continued
# fraction above it.  At the seam the first dropped series term is below
# 5e-18, the series loses about one digit to cancellation, and the truncated
# fraction falls short by 1.2e-15 relative, less further up.  The fraction
# side of the seam therefore lies below the series side, which keeps the
# function non-increasing.
_EXP1_SEAM = 1.5
_EXP1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 21))
_EXP1_DEPTH = 60
_EULER_GAMMA = 0.57721566490153286


def exp1_scaled(x):
    """e^x E1(x), the exponential integral scaled by e^x, for x > 0 in numpy
    arithmetic alone; returns an array of the shape of ``x``.

    A 20-term series below x = 1.5 and the continued fraction shared with
    :func:`sine_integral`, 60 levels deep, above it.  Within 2e-15 relative
    of its mpmath value from x = 1e-6 to 1e6.  It falls from +inf at 0
    (like -ln x) to 0 at +inf (like 1/x) and is exactly 0.0 at x = inf.
    E[log2(1 + w a)] = log2(e) exp1_scaled(1/a) for an Exp(1) weight w
    (Lee 1990, the ergodic capacity of a Rayleigh channel).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x < _EXP1_SEAM
    if low.any():
        s = x[low]
        series = np.full_like(s, _EXP1_SERIES[-1])
        for c in _EXP1_SERIES[-2::-1]:
            series *= s
            series += c
        series *= s
        series -= _EULER_GAMMA
        series -= np.log(s)
        series *= np.exp(s)
        out[low] = series
    high = ~low
    if high.any():
        out[high] = _exp1_fraction(x[high], _EXP1_DEPTH)
    return out


# Trapezoid rule in s = ln t, step 1/4 over s in [-45, 4]: the integrand
# t e^-t / ((t + x) prod_j (1 + t b_j)) decays double-exponentially above
# and like t / x below, and it is analytic in the strip |Im s| < pi / 2,
# so the rule's error is about e^(-pi^2 / h) = 7e-18.  Nodes t_i and
# weights h t_i e^-t_i, the two end weights halved.
_FADED_STEP = 0.25
_FADED_NODES = np.exp(np.arange(-45.0, 4.0 + _FADED_STEP / 2, _FADED_STEP))
_FADED_WEIGHTS = _FADED_STEP * _FADED_NODES * np.exp(-_FADED_NODES)
_FADED_WEIGHTS[[0, -1]] /= 2.0


def exp1_scaled_faded(x, faded):
    """int_0^inf e^-t / ((t + x) prod_j (1 + t b_j)) dt for x > 0 and
    b_j = ``faded[..., j]`` >= 0 in numpy arithmetic alone, one value per
    entry of ``x``; with no b_j it is e^x E1(x) = :func:`exp1_scaled`.

    For Exp(1) weights w_0 and w_j, E[ln(1 + w_0 / (x (1 + sum_j w_j b_j)))]
    is this integral (K. A. Hamdi, IEEE Trans. Commun. 58(2), 2010, with
    the transforms (1 + t b)^-1 of the exponentials): the ergodic capacity,
    in nats, of a Rayleigh link at SNR 1/x against Rayleigh interferers
    of mean powers b_j relative to the noise.

    A fixed trapezoid rule of 197 nodes in s = ln t plus the head
    ln(1 + t_min / x) below its first node, with no quadrature: within
    5e-16 relative of mpmath for 1/x in [1e-3, 1e6] and b_j in [0, 1e4],
    about 6e-12 at 1/x = 1e12, where the head's first-order form shows.
    Where every b_j is 0 the value is that of :func:`exp1_scaled`, bit for
    bit, and x = inf gives exactly 0.0.  The call holds two arrays of
    x.size x 197 doubles.
    """
    x = np.asarray(x, dtype=float)
    faded = np.asarray(faded, dtype=float)
    if not faded.any():
        return exp1_scaled(x)
    work = np.empty((2, x.size, _FADED_NODES.size))
    denominator = np.add.outer(x.ravel(), _FADED_NODES, out=work[0])
    for b in faded.reshape(x.size, -1).T:
        factor = np.multiply.outer(b, _FADED_NODES, out=work[1])
        factor += 1.0
        denominator *= factor
    np.divide(_FADED_WEIGHTS, denominator, out=denominator)
    out = np.einsum("tn->t", denominator)
    with np.errstate(divide="ignore"):
        out += np.log1p(_FADED_NODES[0] / x.ravel())
    return out.reshape(x.shape)


# 15-point Gauss-Legendre rule, exact for polynomials through degree 29
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _GL_NODES
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise TypeError
    except TypeError:
        # integrand only takes scalars
        y = np.array([float(f(xi)) for xi in x])
    return half * float(_GL_WEIGHTS @ y)


def integrate(f, lower: float, upper: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptive Gauss-Legendre integral of ``f`` over [lower, upper].

    The integrand may accept numpy arrays (preferred, evaluated per panel in
    one call) or plain scalars.  Subdivision is recursive bisection with a
    fixed 15-point rule per panel; the error estimate on a panel is the
    difference between its one-panel value and the sum over its two halves.
    Raises :class:`QuadratureError` when ``spec.max_subdivisions`` splits are
    not enough, with the best estimate attached.
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
    whole = _gl_panel(f, lower, upper)
    scale = max(abs(whole), spec.absolute_tolerance)

    total = 0.0
    total_error = 0.0
    splits = 0
    exhausted = False
    stack = [(lower, upper, whole)]
    while stack:
        a, b, est = stack.pop()
        mid = 0.5 * (a + b)
        left = _gl_panel(f, a, mid)
        right = _gl_panel(f, mid, b)
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
