"""Deterministic interference and capacity analytics.

The one mobility parameter is the Doppler span

    x = V_max * f_c * T_s / c

the largest Doppler shift of a path in sub-carrier cycles per symbol, which
:meth:`SystemConfig.doppler_span` alone forms.  The paper's normalized
Doppler b = pi * V_max * f_c / (c * df) is the same quantity, b = pi x / q
with q = T_s * df, and :class:`NormalizedDoppler` derives it that way; the
useful power reads pi x, the leakage x itself.

Two independent evaluation routes are kept on purpose: :func:`leakage`
averages the sinc^2 spreading kernel over the closed-form density of the
normalized Doppler shift (one quadrature), while
:func:`effective_useful_power` uses the sine-integral reduction of the same
average.  Their agreement is a built-in regression check on the quadrature
machinery.

The interference of the finite system, :func:`finite_n_ici`, is the power
series of the paper's b^2/18 to all orders while x is below a measured
cut-off (:data:`_SERIES_MAX_SPAN`): a dot product through the power sums
Z_p = sum_j g_j^-p of the whole-number gaps.  Above it, the leakage
quadrature is the exact route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureError, QuadratureSpec, integrate, sinc_squared, sine_integral
from .sysmodel import SystemConfig, subcarrier_gaps

__all__ = [
    "NormalizedDoppler",
    "IciBounds",
    "leakage",
    "leakage_sum",
    "finite_n_ici",
    "effective_useful_power",
    "total_ici_power",
    "ici_bounds",
    "ici_approx",
    "approx_validity_threshold",
    "approx_is_valid",
    "capacity_upper",
    "capacity_upper_approx",
    "sum_rate_upper",
]

LOG2_E = math.log2(math.e)

# Internal quadrature policies.  These are tighter than the public defaults
# because the bound checks downstream (sandwich inclusion at small b, power
# conservation at 1e-12 and 1e-13) need more headroom than the documented 1e-9.
_USEFUL_SPEC = QuadratureSpec(relative_tolerance=1e-12, absolute_tolerance=1e-13)
# The useful power's integrand sweeps about x lobes over the arrival angle,
# x the Doppler span, and near x = 1e6 its quadrature takes about 0.013
# panel splits per unit of x: the 16384 splits of _USEFUL_SPEC last up to x
# = 1.262e6 (32598 of the 32770 integrand calls they allow) and run out
# from x = 1.265e6 (every span scanned from 2e5 to 1.262e6 converged, and
# every one from 1.265e6 to 1.4e6 failed).  It refuses x above 1.26e6
# before any work, where it took about 3 s to fail.
_USEFUL_MAX_SPAN = 1.26e6
_LEAKAGE_SPEC = QuadratureSpec(relative_tolerance=1e-12, absolute_tolerance=1e-14)
# fixed panels of the leakage integral over t, each integrated adaptively
_LEAKAGE_PANELS = (0.0, 1.0, 2.0, 4.0, 8.0, 40.0)
# orders of the interference's power series in x, and the largest span x at
# which finite_n_ici takes it.  Near the cut-off the truncation error falls
# about 35-fold an order (2.8e-14 at 15 orders), so 24 leave it far below
# rounding, which more orders only add to (90 read 9.7e-15 at x = 0.98, 24
# read 6.8e-15).  The series stayed within 1e-14 of a 30-digit mpmath value
# up to x = 0.998 and read 1.0e-14 at 1.0, for q = 1 and 2, N from 1 to
# 1000 and targets from the centre to the edge; the cut-off keeps a margin
# below that (worst below it 8.4e-15, at q = 1)
_SERIES_ORDERS = 24
_SERIES_MAX_SPAN = 0.99


@dataclass(frozen=True)
class NormalizedDoppler:
    """Dimensionless mobility severity b = pi * V_max * f_c / (c * df),
    formed as pi x / (T_s df) from the span x of
    :meth:`SystemConfig.doppler_span`."""

    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError("b must be finite and non-negative")

    @classmethod
    def from_configs(cls, max_velocity_mps: float, cfg: SystemConfig) -> "NormalizedDoppler":
        return cls(b=math.pi * cfg.doppler_span(max_velocity_mps) / cfg.spacing_symbol_product)


@dataclass(frozen=True)
class IciBounds:
    """Closed-form sandwich around the exact interference power."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError("bounds must satisfy 0 <= lower <= upper")


def _check_velocity(max_velocity_mps: float):
    if not (math.isfinite(max_velocity_mps) and max_velocity_mps >= 0.0):
        raise ValueError("max_velocity_mps must be finite and non-negative")


def _useful_kernel(u):
    """Si(2u)/u - sin(u)^2/u^2, the useful-power fraction at Doppler depth u
    >= 0: a float for a float, an array for an array, element by element.

    The series branch keeps absolute error below 1e-14 for u < 0.05; going
    through the sine integral there would amplify its error by 1/u.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    small = u < 0.05
    u2 = u[small] * u[small]
    out[small] = 1.0 - u2 / 9.0 + u2 * u2 * (2.0 / 225.0) - u2 * u2 * u2 / 2205.0
    large = u[~small]
    s = np.sin(large) / large
    out[~small] = sine_integral(2.0 * large) / large - s * s
    return out if out.ndim else float(out)


def effective_useful_power(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Mean power a device keeps on its own sub-carrier despite Doppler.

    Averages the per-direction fraction Si(2u)/u - sin^2(u)/u^2, with
    u = pi x cos psi and x the span of :meth:`SystemConfig.doppler_span`,
    over a uniform quarter circle of arrival directions and scales by the
    common received power.  That average is the only quadrature: Si itself
    needs none.  V_max = 0 returns cfg.effective_power exactly.  A span x
    above 1.26e6, beyond the quadrature's subdivision budget, raises
    :class:`QuadratureError` before any evaluation.
    """
    _check_velocity(max_velocity_mps)
    if max_velocity_mps == 0.0:
        return cfg.effective_power
    span = cfg.doppler_span(max_velocity_mps)
    if span > _USEFUL_MAX_SPAN:
        raise QuadratureError(
            f"integrand sweeps {span:.3g} oscillations, beyond the "
            f"subdivision budget of {_USEFUL_SPEC.max_subdivisions}",
            estimate=math.nan, error_bound=math.inf)
    depth = math.pi * span
    value = integrate(lambda p: _useful_kernel(depth * np.cos(p)),
                      0.0, math.pi / 2.0, _USEFUL_SPEC)
    return cfg.effective_power * (2.0 / math.pi) * value


def _leakage_multi(gaps_ts, max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Average of sum_g sinc(g + beta s)^2 over the Doppler shift fraction s.

    ``gaps_ts`` holds the dimensionless sub-carrier gaps (frequency gap times
    T_s) and beta is the span x = V_max f_c T_s / c of
    :meth:`SystemConfig.doppler_span`.  With the speed uniform on
    [0, V_max] and the direction uniform on the circle, s = (v / V_max)
    cos(psi) has the density arccosh(1/|s|) / pi on (-1, 1) (Clarke 1968).
    Folding s to |s| and substituting s = sech(t) turns the average into
    one smooth integral over t >= 0 with weight (t / pi) sech(t) tanh(t)
    against sum_g [sinc(g + beta sech t)^2 + sinc(g - beta sech t)^2].
    Each term is even in its gap, so gaps are folded to their magnitudes
    first; exchanging the roles of any two sub-carriers therefore reproduces
    the same value bit for bit.
    """
    gaps = np.sort(np.abs(np.asarray(gaps_ts, dtype=float)))[:, None]
    if gaps.size == 0:
        return 0.0
    # sinc_squared wants a whole-number gap: split off the fractional part
    whole = np.rint(gaps)
    frac = gaps - whole
    span = float(np.max(np.abs(frac)))  # bounds the kernel's offsets at rest
    if max_velocity_mps == 0.0:
        return float(np.sum(sinc_squared(whole, frac, span)))
    beta = cfg.doppler_span(max_velocity_mps)
    # The integrand sweeps about beta sinc^2 lobes, most of them for t < 4.
    # The busiest panel, [1, 2], took 0.16 splits per unit of beta (measured
    # up to beta = 65536), so a panel's budget runs out near beta = 1e5;
    # refuse beta above 4 * max_subdivisions = 65536 before any work.
    budget = _LEAKAGE_SPEC.max_subdivisions
    if beta > 4.0 * budget:
        raise QuadratureError(
            f"integrand sweeps {beta:.3g} oscillations, beyond the "
            f"subdivision budget of {budget}",
            estimate=math.nan, error_bound=math.inf)
    span += beta  # |frac +- beta sech t| never exceeds it

    buffers = {}

    def integrand(t):
        sech = 1.0 / np.cosh(t)
        y = beta * sech
        shape = (2, whole.size, y.size)
        if shape not in buffers:
            buffers[shape] = (np.empty(shape), np.empty(shape), np.empty((2,) + shape))
        offsets, kernel, work = buffers[shape]
        # both signs in one kernel call; the halves add as two calls' would
        np.add(frac, y, out=offsets[0])
        np.subtract(frac, y, out=offsets[1])
        sinc_squared(whole, offsets, span, kernel, work)
        return (t / math.pi) * sech * np.tanh(t) * np.sum(kernel[0] + kernel[1], axis=0)

    # Tail past the last panel, T = 40: sech(t) tanh(t) <= 2 e^-t, so the
    # weight integrates to at most 2 (T + 1) e^-T / pi there.  The summed
    # kernel never exceeds 2: each sign contributes at most sinc^2 <= 1 for
    # a single gap, and at most sum_k sinc(k + y)^2 = 1 for distinct
    # whole-number gaps.  The dropped tail, 4 (T + 1) e^-T / pi = 2.2e-16,
    # is below the absolute tolerance of every panel.
    panels = _LEAKAGE_PANELS
    return sum(integrate(integrand, a, b, _LEAKAGE_SPEC)
               for a, b in zip(panels, panels[1:]))


@functools.cache
def _series_table() -> np.ndarray:
    """Lower-triangular T with T[k - 1, j] = m_k c_(k-j) (2j + 1) / pi^2.

    m_k = C(2k, k) / (4^k (2k + 1)) = E[s^2k] are the Clarke moments and
    c_a = (-1)^(a+1) 2^(2a-1) pi^(2a) / (2a)! the coefficients of
    sin^2(pi y) = sum_a c_a y^2a; each rational factor is rounded once, by
    Python's correctly rounded division of integers.
    """
    orders = _SERIES_ORDERS
    moments = np.array([math.comb(2 * k, k) / (4 ** k * (2 * k + 1))
                        for k in range(1, orders + 1)])
    sine = np.array([(-1) ** (a + 1) * (2 ** (2 * a - 1) / math.factorial(2 * a))
                     * math.pi ** (2 * a - 2) for a in range(1, orders + 1)])
    k, j = np.indices((orders, orders))
    return np.where(j <= k, moments[k] * sine[np.maximum(k - j, 0)] * (2.0 * j + 1.0), 0.0)


def _ici_series(sums, span: float) -> float:
    """E[sum_j sinc^2(g_j + x s)] over the Clarke law of s, as its power series

        sum_k x^2k (m_k / pi^2) sum_(a=1..k) c_a (2(k-a) + 1) Z_(2(k-a)+2)

    in the span x, truncated after :data:`_SERIES_ORDERS` orders, given the
    ``sums`` Z_2, ..., Z_2K of Z_p = sum_j g_j^-p over the whole-number gaps
    g_j != 0.  Each term sinc^2(g + y) = sin^2(pi y) / (pi (g + y))^2 expands
    in y / g; the alternating sums of those terms, which grow like (x /
    |g|)^2k, lose to rounding, not to truncation, as x nears the smallest |g|.
    """
    powers = np.cumprod(np.full(_SERIES_ORDERS, span * span))  # x^2, x^4, ..., x^2K
    return float(powers @ _series_table() @ sums)


def _ici_tail(half_subcarriers: int, span: float) -> float:
    """E[sum_(|g| > N) sinc^2(g + x s)], the centre's leakage beyond its band
    at T_s df = 1: :func:`_ici_series` on Z_2k = 2 zeta(2k, N + 1), Hurwitz's
    zeta as 16 direct terms and its Euler-Maclaurin remainder to B_12.
    Raises ValueError for x beyond :data:`_SERIES_MAX_SPAN`."""
    if not span <= _SERIES_MAX_SPAN:
        raise ValueError(f"span {span!r} is beyond the series' cut-off {_SERIES_MAX_SPAN}")
    s = 2.0 * np.arange(1, _SERIES_ORDERS + 1)  # the exponents 2k
    terms = half_subcarriers + 1.0 + np.arange(17.0)[:, None]  # N+1..N+16 summed, N+17 on
    end = terms[-1]
    zeta = np.sum(terms[:-1] ** -s, axis=0) + end ** (1.0 - s) / (s - 1.0) + 0.5 * end ** -s
    term = s * end ** (-s - 1.0)  # s (s+1) ... (s+2j-2) end^(1-s-2j)
    for j, bernoulli in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730), 1):
        zeta += bernoulli / math.factorial(2 * j) * term
        term = term * (s + 2 * j - 1) * (s + 2 * j) / (end * end)
    return _ici_series(2.0 * zeta, span)


def leakage(frequency_offset_hz: float, max_velocity_mps: float,
            cfg: SystemConfig) -> float:
    """Fraction of a device's power landing ``frequency_offset_hz`` away
    from its own sub-carrier, averaged over the speed and direction laws.

    Evaluated as one integral of the sinc^2 spreading kernel against the
    density of the normalized Doppler shift; a static network (V_max = 0)
    degenerates to sinc(offset * T_s)^2.  The result is even in the offset,
    bit for bit.
    """
    _check_velocity(max_velocity_mps)
    gap_ts = -frequency_offset_hz * cfg.symbol_period_s  # gap from tone to observer
    if not math.isfinite(gap_ts):
        raise ValueError(f"frequency_offset_hz = {frequency_offset_hz!r} times T_s is not finite")
    return _leakage_multi(np.array([gap_ts]), max_velocity_mps, cfg)


def leakage_sum(subcarrier_index: int, half_subcarriers: int,
                max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Total leakage collected on one sub-carrier from every slot j in
    [-N, N], the self term included.

    At the critical spacing it climbs to exactly 1 as N grows: ``nbofdma
    check``'s quadrature route tests leakage_sum(0, N) + _ici_tail(N, x) = 1.
    For T_s * df >= 2 the grid skips most of the spread spectrum and the
    limit stays strictly below 1.
    """
    _check_velocity(max_velocity_mps)
    gaps = subcarrier_gaps(subcarrier_index, half_subcarriers, cfg.spacing_symbol_product)
    return _leakage_multi(gaps, max_velocity_mps, cfg)


def finite_n_ici(subcarrier_index: int, max_velocity_mps: float,
                 cfg: SystemConfig) -> float:
    """Interference power on one sub-carrier from the 2N actual interferers.

    This is the exact expectation for the finite system the Monte Carlo
    module simulates; it converges to :func:`total_ici_power` from below as
    N grows (the missing tail shrinks like 1/N).  Up to the span
    x = :data:`_SERIES_MAX_SPAN` it is the power series of
    :func:`_ici_series`, above it the leakage quadrature.  V_max = 0 and
    N = 0 return exactly 0.0.
    """
    _check_velocity(max_velocity_mps)
    gaps = subcarrier_gaps(subcarrier_index, cfg.half_subcarriers, cfg.spacing_symbol_product)
    gaps = np.sort(np.abs(gaps[gaps != 0]))  # a mirrored target keeps the bits
    span = cfg.doppler_span(max_velocity_mps)
    if span == 0.0 or gaps.size == 0:
        return 0.0
    if span <= _SERIES_MAX_SPAN:
        weights = 1.0 / (gaps * gaps)
        sums = np.zeros(_SERIES_ORDERS)  # Z_2, Z_4, ..., Z_2K of the band
        for start in range(0, weights.size, 4096):  # bounds the (gaps, K) power table
            part = weights[start:start + 4096]
            sums += part @ np.vander(part, _SERIES_ORDERS, increasing=True)
        return cfg.effective_power * _ici_series(sums, span)
    return cfg.effective_power * _leakage_multi(gaps, max_velocity_mps, cfg)


def total_ici_power(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Interference floor with unbounded sub-carriers: P_T minus the useful
    power.  At the critical spacing T_s * df = 1 the whole leaked budget lands
    on active sub-carriers, so it is P_T _ici_tail(0, x): ``nbofdma check``'s
    Si route tests useful / P_T + _ici_tail(0, x) = 1."""
    return cfg.effective_power - effective_useful_power(max_velocity_mps, cfg)


def ici_bounds(max_velocity_mps: float, cfg: SystemConfig) -> IciBounds:
    """Closed-form sandwich (b^2/18 - b^4/50) P_T <= ici <= (b^2/18 + b^4/60) P_T.

    The lower bound is clamped at zero where the quartic term would push it
    negative (b > sqrt(50/18), far outside the regime the sandwich targets).
    """
    _check_velocity(max_velocity_mps)
    nd = NormalizedDoppler.from_configs(max_velocity_mps, cfg)
    b2 = nd.b * nd.b
    b4 = b2 * b2
    p = cfg.effective_power
    return IciBounds(lower=max(0.0, (b2 / 18.0 - b4 / 50.0)) * p,
                     upper=(b2 / 18.0 + b4 / 60.0) * p)


def ici_approx(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Leading-order interference estimate (b^2 / 18) * P_T.

    Trust it only below :func:`approx_validity_threshold`, i.e. for b < 1/2.
    """
    _check_velocity(max_velocity_mps)
    nd = NormalizedDoppler.from_configs(max_velocity_mps, cfg)
    return nd.b * nd.b / 18.0 * cfg.effective_power


def approx_validity_threshold(cfg: SystemConfig) -> float:
    """Largest V_max (m/s) for which the quadratic estimate is rated:
    c * df / (2 * pi * f_c), equivalently the speed where b reaches 1/2."""
    return cfg.wave_speed_mps * cfg.subcarrier_spacing_hz \
        / (2.0 * math.pi * cfg.carrier_frequency_hz)


def approx_is_valid(max_velocity_mps: float, cfg: SystemConfig) -> bool:
    """True when ici_approx and capacity_upper_approx are inside their
    rated small-b regime."""
    _check_velocity(max_velocity_mps)
    return max_velocity_mps < approx_validity_threshold(cfg)


def capacity_upper(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Per-device capacity at the mean powers,
    log2(1 + P_U / (P_ICI + noise)), in bit/s/Hz.

    Not a bound on the ergodic capacity: log2(1 + X / (Y + n)) is concave
    in the useful power X but convex in the interference Y, so Jensen's
    inequality pulls both ways.  At 8 paths per device the simulated
    capacity stays below this value; at one path per device it can lie
    above it (500 Hz spacing, N = 199, 100 m/s and 40 dB SNR: 2.7068 bit/s/Hz
    simulated against 2.6338).

    Raises ValueError when both the interference and the noise are zero
    (static, noiseless network), where the SINR is unbounded.
    """
    useful = effective_useful_power(max_velocity_mps, cfg)
    ici = cfg.effective_power - useful
    denominator = ici + cfg.noise_variance
    if denominator <= 0.0:
        raise ValueError("zero interference and zero noise: SINR is unbounded")
    return math.log2(1.0 + useful / denominator)


def capacity_upper_approx(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Small-b capacity estimate, (-ln(b^2/18 + noise/P_T) + noise/P_T) * log2(e).

    Shares the validity predicate of :func:`ici_approx`; the predicate is
    advisory and not enforced here.  When the noise ratio is negligible
    against b^2/18 the estimate is log-linear in velocity with slope
    -2*log2(e) bits per e-fold of V.
    """
    _check_velocity(max_velocity_mps)
    nd = NormalizedDoppler.from_configs(max_velocity_mps, cfg)
    noise_ratio = cfg.noise_variance / cfg.effective_power
    argument = nd.b * nd.b / 18.0 + noise_ratio
    if argument <= 0.0:
        raise ValueError("zero interference and zero noise: SINR is unbounded")
    return (-math.log(argument) + noise_ratio) * LOG2_E


def sum_rate_upper(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Aggregate uplink rate in bit/s at the mean powers: bandwidth times
    :func:`capacity_upper`, which is not a bound on the ergodic capacity.
    Zero bandwidth gives zero."""
    if cfg.bandwidth_hz == 0.0:
        return 0.0
    return cfg.bandwidth_hz * capacity_upper(max_velocity_mps, cfg)
