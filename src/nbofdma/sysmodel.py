"""Uplink configuration and Monte Carlo mobility sampling.

Layout: 2N+1 devices on 2N+1 sub-carriers (one device per sub-carrier, fully
loaded).  Power control gives every device the same effective power at the
base station, so the interference statistics depend on each device's speed
and path arrival angles alone.

The Monte Carlo sampler :func:`sample_cell_batch` draws only those, and only
what does not depend on the scenario: per path, the scenario-free Doppler
shift z = u cos(psi), with u the device's speed as a fraction of V_max and
psi the path's arrival angle.  A scenario of span x
(:meth:`SystemConfig.doppler_span`) shifts the path by x z sub-carrier cycles
per symbol; the estimators scale one draw to each scenario they evaluate,
and draw the fading given those shifts.  Nothing else forms z.  For an angle
psi uniform on [0, 2*pi), cos(psi) has the arcsine law, CDF
1/2 + arcsin(s)/pi on [-1, 1] (Clarke 1968), and so has sin(pi (w - 1/2))
for w uniform on [0, 1): the sampler forms the cosine that way, without a
full-circle angle or a library trigonometric call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import row_tiles, sin_pi

__all__ = [
    "SystemConfig",
    "CellConfig",
    "MobilityModel",
    "sample_cell_batch",
    "subcarrier_gaps",
]


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def _whole_number(value, name: str) -> int:
    """``value`` as an int; refuses a value that is not a whole number."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    _require(whole is not None and whole == value,
             f"{name} must be a whole number (got {value!r})")
    return whole


def subcarrier_gaps(index, half_subcarriers: int, spacing_symbol_product: int = 1) -> np.ndarray:
    """Floats (j - index) q, q = T_s df, for the sub-carriers j in [-N, N] in
    index order: each device's gap, times T_s, from sub-carrier ``index``, 0
    at ``index`` itself, which must be a whole number in [-N, N], N >= 0."""
    n = _whole_number(half_subcarriers, "half_subcarriers")
    _require(n >= 0, "half_subcarriers must be non-negative")
    index = _whole_number(index, "sub-carrier index")
    _require(-n <= index <= n, f"sub-carrier index {index} outside [-{n}, {n}]")
    return (np.arange(-n, n + 1, dtype=float) - index) * spacing_symbol_product


@dataclass(frozen=True)
class SystemConfig:
    """Air-interface constants shared by every analysis entry point."""

    carrier_frequency_hz: float = 900e6
    subcarrier_spacing_hz: float = 2500.0
    symbol_period_s: float | None = None  # defaults to 1 / subcarrier_spacing_hz
    half_subcarriers: int = 24            # the system carries 2N + 1 sub-carriers
    bandwidth_hz: float = 200e3           # 0 disables the sum-rate output
    effective_power: float = 1.0          # common received power target P_T
    noise_variance: float = 0.01          # receiver noise power (20 dB SNR at P_T = 1)
    wave_speed_mps: float = 3e8

    def __post_init__(self):
        for name in ("carrier_frequency_hz", "subcarrier_spacing_hz", "symbol_period_s",
                     "bandwidth_hz", "effective_power", "noise_variance", "wave_speed_mps"):
            value = getattr(self, name)
            _require(value is None or math.isfinite(value),
                     f"{name} must be finite (got {value!r})")
        if self.symbol_period_s is None:
            _require(self.subcarrier_spacing_hz > 0.0,
                     "subcarrier_spacing_hz must be positive")
            object.__setattr__(self, "symbol_period_s", 1.0 / self.subcarrier_spacing_hz)
        _require(self.carrier_frequency_hz > 0.0, "carrier_frequency_hz must be positive")
        _require(self.subcarrier_spacing_hz > 0.0, "subcarrier_spacing_hz must be positive")
        _require(math.isfinite(self.symbol_period_s) and self.symbol_period_s > 0.0,
                 "symbol_period_s must be finite and positive "
                 "(it defaults to 1 / subcarrier_spacing_hz)")
        object.__setattr__(self, "half_subcarriers",
                           _whole_number(self.half_subcarriers, "half_subcarriers"))
        _require(self.half_subcarriers >= 0, "half_subcarriers must be a non-negative integer")
        _require(self.bandwidth_hz >= 0.0, "bandwidth_hz must be non-negative")
        _require(self.effective_power > 0.0, "effective_power must be positive")
        _require(self.noise_variance >= 0.0, "noise_variance must be non-negative")
        _require(self.wave_speed_mps > 0.0, "wave_speed_mps must be positive")
        product = self.symbol_period_s * self.subcarrier_spacing_hz
        _require(math.isfinite(product),
                 f"symbol_period_s * subcarrier_spacing_hz overflows (got {product!r})")
        q = round(product)
        _require(q >= 1 and abs(product - q) <= 1e-9 * q,
                 "symbol_period_s * subcarrier_spacing_hz must be a positive integer "
                 f"(got {product!r}); orthogonality needs an integer number of "
                 "sub-carrier cycles per symbol")
        if self.bandwidth_hz > 0.0:
            # an int compares exactly with a float, where (2N + 1) * df can overflow
            fits = self.bandwidth_hz * (1.0 + 1e-12) / self.subcarrier_spacing_hz
            _require(2 * self.half_subcarriers + 1 <= fits,
                     f"bandwidth_hz = {self.bandwidth_hz!r} cannot fit the "
                     f"2 half_subcarriers + 1 = {2 * self.half_subcarriers + 1} "
                     f"sub-carriers spaced subcarrier_spacing_hz = "
                     f"{self.subcarrier_spacing_hz!r} Hz apart")

    @property
    def spacing_symbol_product(self) -> int:
        """T_s * df as the exact small integer it is constrained to be."""
        return round(self.symbol_period_s * self.subcarrier_spacing_hz)

    def doppler_span(self, max_velocity_mps: float) -> float:
        """x = V_max f_c T_s / c, the largest Doppler shift in sub-carrier
        cycles per symbol; the normalized Doppler b is pi x / (T_s df).
        Every Doppler quantity of the package is formed from this one
        operation order; inf where it overflows."""
        return max_velocity_mps / self.wave_speed_mps * self.carrier_frequency_hz \
            * self.symbol_period_s


@dataclass(frozen=True)
class CellConfig:
    """Multipath profile shared by every device of the cell."""

    paths_per_device: int = 8

    def __post_init__(self):
        object.__setattr__(self, "paths_per_device",
                           _whole_number(self.paths_per_device, "paths_per_device"))
        _require(self.paths_per_device >= 1, "paths_per_device must be a positive integer")


@dataclass(frozen=True)
class MobilityModel:
    """Uniform speed on [0, V_max] with uniform heading; V_max = 0 is static."""

    max_velocity_mps: float = 100.0

    def __post_init__(self):
        _require(math.isfinite(self.max_velocity_mps) and self.max_velocity_mps >= 0.0,
                 "max_velocity_mps must be finite and non-negative")


def sample_cell_batch(rng, n_trials: int, n_devices: int, cell: CellConfig) -> np.ndarray:
    """Scenario-free Doppler shifts z = u cos(psi) of ``n_trials`` x
    ``n_devices`` devices for Monte Carlo inner loops: a (trials, devices,
    paths) array, ``cell.paths_per_device`` paths per device, with |z| < 1.

    Draws the speed fractions u, uniform on [0, 1), then one uniform w on
    [0, 1) per path; the path's cos(psi) is sin(pi (w - 1/2)) = -cos(pi w),
    which has the arcsine law of the cosine of an angle uniform on
    [0, 2*pi), and the paths of a device share its u.  A scenario of span x
    shifts path m by x z[..., m] sub-carrier cycles per symbol.  Nothing
    here depends on V_max, the carrier or the spacing, so one batch serves
    every scenario with the same device and path counts.  Position and
    heading are not drawn: power control cancels the position and the
    Doppler shift depends on the speed and arrival angle alone.  The
    per-path arithmetic runs on tiles of trial rows
    (:func:`numerics.row_tiles`), which changes no value.
    """
    if n_trials < 1 or n_devices < 1:
        raise ValueError("n_trials and n_devices must be at least 1")
    flat = (n_trials, n_devices)
    speed_fraction = rng.random(flat)
    shift = rng.random(flat + (cell.paths_per_device,))
    for rows in row_tiles(n_trials, n_devices * cell.paths_per_device):
        tile = shift[rows]
        tile -= 0.5
        sin_pi(tile, out=tile)
        tile *= speed_fraction[rows, :, None]
    return shift
