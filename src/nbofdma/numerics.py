"""Deterministic numerical kernels: sin(pi r), normalized sinc, sine integral,
the scaled exponential integral, quadrature, and the row tiles of the Monte
Carlo block arithmetic.

Everything in this module is pure floating-point arithmetic with no hidden
state and no randomness, so repeated calls with identical inputs return
bit-identical results.  The adaptive integrator is the workhorse behind the
leakage and capacity quadratures elsewhere in the package.
"""

from __future__ import annotations

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


def sin_pi(r, out=None):
    """sin(pi r) for |r| <= 1/2 from a power series in numpy arithmetic
    alone; returns an array of the shape of ``r``, written to ``out`` if
    given (which may be ``r`` itself).

    Accurate to rounding on that range and odd bit for bit (the series is r
    times a polynomial in r^2), so +0 and -0 map to themselves.  Clamped to
    [-1, 1]: near r = +-1/2 the unclamped series can round one ulp above 1.
    Outside |r| <= 1/2 the result is not sin(pi r).
    """
    r = np.asarray(r, dtype=float)
    r2 = r * r
    p = np.multiply(r2, _SIN_PI_COEFFS[-1], out=np.empty_like(r))
    for c in _SIN_PI_COEFFS[-2:0:-1]:
        p += c
        p *= r2
    p += _SIN_PI_COEFFS[0]
    p = np.multiply(p, r, out=p if out is None else out)
    return np.clip(p, -1.0, 1.0, out=p)


def sinc_squared(gap, offset):
    """sinc(gap + offset)**2 for a whole-number ``gap`` broadcast against a
    real ``offset`` array; the result has the shape of ``offset``.

    For whole-number gaps sin(pi (gap + offset))^2 = sin(pi r)^2 with
    r = offset - rint(offset), so the sine never sees a large argument and
    the result keeps full relative precision hundreds of sub-carriers away,
    where ``np.sinc`` does not.  Returns exactly 1.0 where
    gap + offset == 0 and exactly 0.0 where ``offset`` is a whole number and
    gap + offset != 0.
    """
    offset = np.asarray(offset, dtype=float)
    x = np.add(gap, offset)
    x *= math.pi
    x *= x
    r = np.rint(offset)
    np.subtract(offset, r, out=r)
    s = sin_pi(r)
    s *= s
    centre = x == 0.0
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


def _si_asymptotic(x: float) -> float:
    # Si(x) = pi/2 - f(x) cos(x) - g(x) sin(x) with the asymptotic series
    # f ~ sum_k (-1)^k (2k)! / x^(2k+1), g ~ sum_k (-1)^k (2k+1)! / x^(2k+2)
    # (Abramowitz & Stegun 5.2.8, 5.2.9, 5.2.34, 5.2.35); each remainder is
    # below its first dropped term, and for x >= 40 the terms fall under
    # 1e-17 before they start to grow
    x2 = x * x
    term_f = 1.0 / x
    term_g = 1.0 / x2
    f = g = 0.0
    k = 0
    while abs(term_f) > 1e-17:
        f += term_f
        g += term_g
        term_f *= -(2 * k + 1) * (2 * k + 2) / x2
        term_g *= -(2 * k + 2) * (2 * k + 3) / x2
        k += 1
    return math.pi / 2.0 - f * math.cos(x) - g * math.sin(x)


_SI_CUTOFF = 4.0
_SI_AT_CUTOFF = _si_series(_SI_CUTOFF)
# Past this the tail quadrature cannot meet its tolerance: sin(t) at large t
# carries rounding noise of the node positions, about 1e-16 t, which no
# subdivision averages away, so the asymptotic series takes over
_SI_ASYMPTOTIC_CUTOFF = 40.0
# tail integrand sin(t)/t is smooth away from zero; tight spec keeps the
# documented 1e-12 absolute error with plenty of margin
_SI_TAIL_SPEC = QuadratureSpec(relative_tolerance=1e-13, absolute_tolerance=1e-14)


def sine_integral(x: float) -> float:
    """Sine integral Si(x) = integral of sin(t)/t from 0 to x, for x >= 0.

    Power series below x = 4, series value at 4 plus adaptive quadrature of
    sin(t)/t up to x = 40, and the asymptotic expansion beyond.  Absolute
    error stays below 1e-12 over the tested range and Si(x) approaches pi/2
    for large x.
    """
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError("sine_integral requires a finite x >= 0")
    if x == 0.0:
        return 0.0
    if x <= _SI_CUTOFF:
        return _si_series(x)
    if x > _SI_ASYMPTOTIC_CUTOFF:
        return _si_asymptotic(x)
    tail = integrate(lambda t: np.sin(t) / t, _SI_CUTOFF, x, _SI_TAIL_SPEC)
    return _SI_AT_CUTOFF + tail


# e^x E1(x) from the series E1(x) = -gamma - ln x - sum_k (-x)^k / (k k!)
# (Abramowitz & Stegun 5.1.11) below the seam and from the even form of the
# continued fraction of A&S 5.1.22,
# 1 / (x + 1 - 1 / (x + 3 - 4 / (x + 5 - 9 / ...))), above it.  At the seam
# the first dropped series term is below 5e-18, the series loses about one
# digit to cancellation, and the truncated fraction falls short by 1.2e-15
# relative, less further up.  The fraction side of the seam therefore lies
# below the series side, which keeps the function non-increasing.
_EXP1_SEAM = 1.5
_EXP1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 21))
_EXP1_DEPTH = 60
_EULER_GAMMA = 0.57721566490153286


def exp1_scaled(x):
    """e^x E1(x), the exponential integral scaled by e^x, for x > 0 in numpy
    arithmetic alone; returns an array of the shape of ``x``.

    Within 2e-15 relative of its mpmath value from x = 1e-6 to 1e6.  It
    falls from +inf at 0 (like -ln x) to 0 at +inf (like 1/x) and is exactly
    0.0 at x = inf.  E[log2(1 + w a)] = log2(e) exp1_scaled(1/a) for an
    Exp(1) weight w (Lee 1990, the ergodic capacity of a Rayleigh channel).
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
        s = x[high]
        fraction = np.full_like(s, 2.0 * _EXP1_DEPTH + 1.0)
        for k in range(_EXP1_DEPTH, 0, -1):
            fraction += s
            np.divide(float(k * k), fraction, out=fraction)
            np.subtract(2.0 * k - 1.0, fraction, out=fraction)
        fraction += s
        out[high] = np.divide(1.0, fraction, out=fraction)
    return out


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
