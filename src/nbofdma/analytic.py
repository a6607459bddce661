"""Deterministic interference and capacity analytics.

The central dimensionless parameter is

    b = pi * V_max * f_c * T_s / c

the largest Doppler phase (times pi) a path can accumulate across one symbol.
At the critical spacing T_s * df = 1 this is b = pi * V_max * f_c / (c * df),
which is how :class:`NormalizedDoppler` reports it.

Two independent evaluation routes are kept on purpose: :func:`leakage`
averages the sinc^2 spreading kernel over the closed-form density of the
normalized Doppler shift (one quadrature), while
:func:`effective_useful_power` uses the sine-integral reduction of the same
average.  Their agreement is a built-in regression check on the quadrature
machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureError, QuadratureSpec, integrate, sinc_squared, sine_integral
from .sysmodel import SystemConfig

__all__ = [
    "NormalizedDoppler",
    "IciBounds",
    "PowerBudget",
    "leakage",
    "leakage_sum",
    "finite_n_ici",
    "effective_useful_power",
    "total_ici_power",
    "power_budget",
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
# conservation at 1e-12) need more headroom than the documented 1e-9.
_USEFUL_SPEC = QuadratureSpec(relative_tolerance=1e-12, absolute_tolerance=1e-13)
_LEAKAGE_SPEC = QuadratureSpec(relative_tolerance=1e-12, absolute_tolerance=1e-14)
# fixed panels of the leakage integral over t, each integrated adaptively
_LEAKAGE_PANELS = (0.0, 1.0, 2.0, 4.0, 8.0, 40.0)


@dataclass(frozen=True)
class NormalizedDoppler:
    """Dimensionless mobility severity b = pi * V_max * f_c / (c * df)."""

    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError("b must be finite and non-negative")

    @classmethod
    def from_configs(cls, max_velocity_mps: float, cfg: SystemConfig) -> "NormalizedDoppler":
        b = math.pi * max_velocity_mps * cfg.carrier_frequency_hz \
            / (cfg.wave_speed_mps * cfg.subcarrier_spacing_hz)
        return cls(b=b)


@dataclass(frozen=True)
class IciBounds:
    """Closed-form sandwich around the exact interference power."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError("bounds must satisfy 0 <= lower <= upper")


@dataclass(frozen=True)
class PowerBudget:
    """Where one device's effective power goes: useful + leaked = P_T.

    At the critical spacing and with the full doubly infinite sub-carrier
    grid, every leaked watt lands on some other sub-carrier, so ici equals
    leaked.
    """

    useful: float
    leaked: float
    ici: float


def _check_velocity(max_velocity_mps: float):
    if not (math.isfinite(max_velocity_mps) and max_velocity_mps >= 0.0):
        raise ValueError("max_velocity_mps must be finite and non-negative")


def _symbol_doppler_span(max_velocity_mps: float, cfg: SystemConfig) -> float:
    # b of the actual symbol window, pi * V * f_c * T_s / c; identical to
    # NormalizedDoppler.b when T_s * df = 1
    return math.pi * max_velocity_mps * cfg.carrier_frequency_hz \
        * cfg.symbol_period_s / cfg.wave_speed_mps


def _useful_kernel(u: float) -> float:
    """Si(2u)/u - sin(u)^2/u^2, the useful-power fraction at Doppler depth u.

    The series branch keeps absolute error below 1e-14 for u < 0.05; going
    through the sine integral there would amplify its error by 1/u.
    """
    if u < 0.05:
        u2 = u * u
        return 1.0 - u2 / 9.0 + u2 * u2 * (2.0 / 225.0) - u2 * u2 * u2 / 2205.0
    s = math.sin(u) / u
    return sine_integral(2.0 * u) / u - s * s


def effective_useful_power(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Mean power a device keeps on its own sub-carrier despite Doppler.

    Averages the per-direction fraction Si(2 b cos psi)/(b cos psi) -
    sin^2(b cos psi)/(b cos psi)^2 over a uniform quarter circle of arrival
    directions and scales by the common received power.  That average is
    the only quadrature: Si itself needs none.  V_max = 0 returns
    cfg.effective_power exactly.
    """
    _check_velocity(max_velocity_mps)
    if max_velocity_mps == 0.0:
        return cfg.effective_power
    b = _symbol_doppler_span(max_velocity_mps, cfg)
    value = integrate(lambda p: _useful_kernel(b * math.cos(p)),
                      0.0, math.pi / 2.0, _USEFUL_SPEC)
    return cfg.effective_power * (2.0 / math.pi) * value


def _leakage_multi(gaps_ts, max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Average of sum_g sinc(g + beta x)^2 over the normalized Doppler shift x.

    ``gaps_ts`` holds the dimensionless sub-carrier gaps (frequency gap times
    T_s) and beta = V_max f_c T_s / c.  With the speed uniform on
    [0, V_max] and the direction uniform on the circle, x = (v / V_max)
    cos(psi) has the density arccosh(1/|x|) / pi on (-1, 1) (Clarke 1968).
    Folding x to |x| and substituting x = sech(t) turns the average into
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
    beta = max_velocity_mps * cfg.carrier_frequency_hz * cfg.symbol_period_s \
        / cfg.wave_speed_mps
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
    return _leakage_multi(np.array([gap_ts]), max_velocity_mps, cfg)


def leakage_sum(subcarrier_index: int, half_subcarriers: int,
                max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Total leakage collected on one sub-carrier from every slot j in
    [-N, N], the self term included.

    At the critical spacing this climbs to exactly 1 as N grows (all power
    is accounted for on the grid); for T_s * df >= 2 the grid skips most of
    the spread spectrum and the limit stays strictly below 1.
    """
    _check_velocity(max_velocity_mps)
    n = half_subcarriers
    if n < 0:
        raise ValueError("half_subcarriers must be non-negative")
    i = subcarrier_index
    if not -n <= i <= n:
        raise ValueError(f"sub-carrier index {i} outside [-{n}, {n}]")
    q = cfg.spacing_symbol_product
    gaps = (i - np.arange(-n, n + 1, dtype=float)) * q
    return _leakage_multi(gaps, max_velocity_mps, cfg)


def finite_n_ici(subcarrier_index: int, max_velocity_mps: float,
                 cfg: SystemConfig) -> float:
    """Interference power on one sub-carrier from the 2N actual interferers.

    This is the exact expectation for the finite system the Monte Carlo
    module simulates; it converges to :func:`total_ici_power` from below as
    N grows (the missing tail shrinks like 1/N).
    """
    _check_velocity(max_velocity_mps)
    n = cfg.half_subcarriers
    i = subcarrier_index
    if not -n <= i <= n:
        raise ValueError(f"sub-carrier index {i} outside [-{n}, {n}]")
    if n == 0:
        return 0.0
    q = cfg.spacing_symbol_product
    others = np.array([j for j in range(-n, n + 1) if j != i], dtype=float)
    gaps = (i - others) * q
    return cfg.effective_power * _leakage_multi(gaps, max_velocity_mps, cfg)


def total_ici_power(max_velocity_mps: float, cfg: SystemConfig) -> float:
    """Interference floor with unbounded sub-carriers: P_T minus the useful
    power.  Meaningful as interference at the critical spacing T_s * df = 1,
    where the whole leaked budget lands on active sub-carriers."""
    return cfg.effective_power - effective_useful_power(max_velocity_mps, cfg)


def power_budget(max_velocity_mps: float, cfg: SystemConfig) -> PowerBudget:
    """Split of one device's power into useful and leaked shares."""
    useful = effective_useful_power(max_velocity_mps, cfg)
    leaked = cfg.effective_power - useful
    return PowerBudget(useful=useful, leaked=leaked, ici=leaked)


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
    above it (500 Hz spacing, N = 199, 100 m/s and 40 dB SNR: 2.7016 bit/s/Hz
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
