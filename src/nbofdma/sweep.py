"""Config-driven sweeps over mobility or SNR with CSV/JSON emission.

Config format: flat ``key = value`` lines, ``#`` comments, comma-separated
lists.  Keys are dotted and unit-suffixed (``system.carrier_frequency_hz``,
``mobility.max_velocity_mps``).  A family of curves over one scenario knob
is declared with ``curve.<name>.<scenario key> = value`` lines; each curve
is swept over the same grid and labelled in the output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

from .analytic import (
    NormalizedDoppler,
    capacity_upper,
    capacity_upper_approx,
    finite_n_ici,
    ici_approx,
    ici_bounds,
    sum_rate_upper,
    total_ici_power,
)
from .montecarlo import (BLOCK_TRIALS, TrialPlan, block_bytes, capacity_snr,
                         estimate_ergodic_capacity, estimate_total_ici, run_bytes)
from .numerics import QuadratureError
from .sysmodel import CellConfig, MobilityModel, SystemConfig

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepRow",
    "parse_config",
    "to_text",
    "run_sweep",
    "emit",
    "preset_path",
]


class ConfigError(ValueError):
    """A sweep config is malformed; the message names the offending key."""


# ===========================================================================
# schema
# ===========================================================================

AXES = ("v_max", "snr_db")
_AXIS_COLUMN = {"v_max": "v_max_mps", "snr_db": "snr_db"}

# canonical output order; requested subsets keep this order in the emission
OUTPUT_ORDER = (
    "ici_exact",
    "ici_bounds",
    "ici_approx",
    "ici_mc",
    "capacity_exact",
    "capacity_approx",
    "capacity_mc",
    "sum_rate",
)
_MC_OUTPUTS = ("ici_mc", "capacity_mc")
_OUTPUT_COLUMNS = {
    "ici_exact": ("ici_exact",),
    "ici_bounds": ("ici_lower", "ici_upper"),
    "ici_approx": ("ici_approx",),
    "ici_mc": ("ici_mc", "ici_mc_std_error"),
    "capacity_exact": ("capacity_exact",),
    "capacity_approx": ("capacity_approx",),
    "capacity_mc": ("capacity_mc", "capacity_mc_std_error"),
    "sum_rate": ("sum_rate",),
}


def _to_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _to_int(raw: str, key: str) -> int:
    value = _to_float(raw, key)
    if value != int(value):
        raise ConfigError(f"{key}: expected an integer, got {raw!r}")
    return int(value)


# config key -> (section, dataclass field, converter) of every key a curve
# may override; system.snr_db sets the noise power against the scenario's
# own effective power
_SCENARIO_KEYS = {
    "system.carrier_frequency_hz": ("system", "carrier_frequency_hz", _to_float),
    "system.subcarrier_spacing_hz": ("system", "subcarrier_spacing_hz", _to_float),
    "system.symbol_period_s": ("system", "symbol_period_s", _to_float),
    "system.half_subcarriers": ("system", "half_subcarriers", _to_int),
    "system.bandwidth_hz": ("system", "bandwidth_hz", _to_float),
    "system.effective_power": ("system", "effective_power", _to_float),
    "system.noise_variance": ("system", "noise_variance", _to_float),
    "system.snr_db": ("system", "snr_db", _to_float),
    "system.wave_speed_mps": ("system", "wave_speed_mps", _to_float),
    "cell.paths_per_device": ("cell", "paths_per_device", _to_int),
    "mobility.max_velocity_mps": ("mobility", "max_velocity_mps", _to_float),
}
_MC_KEYS = {
    "mc.trials": ("trials", _to_int),
    "mc.seed": ("seed", _to_int),
    "mc.target_index": ("target_index", _to_int),
}
# the two keys that set one value, the noise power
_NOISE_KEYS = ("system.snr_db", "system.noise_variance")
# the scenario keys each axis sets at every grid point
_AXIS_KEYS = {"v_max": ("mobility.max_velocity_mps",), "snr_db": _NOISE_KEYS}
# dataclass field (and snr_db) -> the config keys that set it, as
# :func:`_setter` takes them
_FIELD_KEYS = {field: _NOISE_KEYS if key in _NOISE_KEYS else (key,)
               for key, (_, field, _) in _SCENARIO_KEYS.items()}

# largest set of arrays a Monte Carlo estimator may hold, in one block
# (:func:`montecarlo.block_bytes`) or over a whole run
# (:func:`montecarlo.run_bytes`)
_MAX_MC_BYTES = 7 << 28

_CURVE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class SweepSpec:
    """A fully validated sweep: axis, grid, outputs, trial plan, scenario.

    ``settings`` holds the top-level (config key, value) pairs of the
    scenario as given.  ``curves`` holds (name, overrides) pairs in
    declaration order, each override a (config key, value) pair applied on
    top of the settings; empty means a single unlabelled curve.
    :func:`_scenario` builds the configs of each (curve, grid point).
    """

    axis: str
    grid: tuple[float, ...]
    outputs: tuple[str, ...]
    plan: TrialPlan
    settings: tuple[tuple[str, float], ...] = ()
    curves: tuple[tuple[str, tuple[tuple[str, float], ...]], ...] = ()


@dataclass
class SweepRow:
    """One evaluated grid point: column values plus an optional failure note."""

    curve: str
    axis_value: float
    values: dict
    error: str | None = None


# ===========================================================================
# parsing and canonical emission
# ===========================================================================

def _read_pairs(text: str):
    pairs = {}
    order = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}")
        pairs[key] = raw_value
        order.append(key)
    return pairs, order


def _snr_to_noise(snr_db: float, effective_power: float) -> float:
    try:
        noise = effective_power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        noise = math.inf
    if not math.isfinite(noise):
        raise ValueError(f"snr_db = {snr_db!r} puts the noise power out of range")
    return noise


def parse_config(text: str) -> SweepSpec:
    """Parse and validate a sweep config, applying the documented defaults
    (900 MHz carrier, 2.5 kHz spacing, T_s = 1/spacing, unit power, c = 3e8).

    Raises :class:`ConfigError` naming the offending key for unknown keys,
    malformed values, violated constraints and scenario keys that change
    nothing (see :func:`_refuse_idle_keys`).
    """
    pairs, order = _read_pairs(text)

    settings = []
    mc_kwargs = {}
    axis = None
    grid = None
    outputs = None
    curves: dict[str, list] = {}

    for key in order:
        raw = pairs[key]
        if key in _SCENARIO_KEYS:
            settings.append((key, _SCENARIO_KEYS[key][2](raw, key)))
        elif key in _MC_KEYS:
            field, convert = _MC_KEYS[key]
            mc_kwargs[field] = convert(raw, key)
        elif key == "sweep.axis":
            axis = raw
        elif key == "sweep.grid":
            grid = raw
        elif key == "sweep.outputs":
            outputs = raw
        elif key.startswith("curve."):
            parts = key.split(".", 2)
            if len(parts) != 3:
                raise ConfigError(f"curve key {key!r} must look like curve.<name>.<scenario key>")
            _, name, inner = parts
            if not _CURVE_NAME.match(name):
                raise ConfigError(f"curve name {name!r} is not a valid identifier")
            if inner not in _SCENARIO_KEYS:
                raise ConfigError(f"curve key {key!r} does not override a known scenario key")
            curves.setdefault(name, []).append((inner, _SCENARIO_KEYS[inner][2](raw, key)))
        else:
            raise ConfigError(f"unknown key {key!r}")

    if axis is None:
        raise ConfigError("sweep.axis is required")
    if axis not in AXES:
        raise ConfigError(f"sweep.axis must be one of {AXES}, got {axis!r}")

    if grid is None:
        raise ConfigError("sweep.grid is required")
    grid_values = tuple(_to_float(tok.strip(), "sweep.grid")
                        for tok in grid.split(",") if tok.strip())
    if not grid_values:
        raise ConfigError("sweep.grid must list at least one value")
    if any(b <= a for a, b in zip(grid_values, grid_values[1:])):
        raise ConfigError("sweep.grid must be strictly increasing")
    if axis == "v_max" and grid_values[0] < 0.0:
        raise ConfigError("sweep.grid velocities must be non-negative")

    if outputs is None:
        raise ConfigError("sweep.outputs is required")
    requested = [tok.strip() for tok in outputs.split(",") if tok.strip()]
    for token in requested:
        if token not in OUTPUT_ORDER:
            raise ConfigError(f"unknown output {token!r}; choose from {OUTPUT_ORDER}")
    canonical = tuple(name for name in OUTPUT_ORDER if name in requested)
    if not canonical:
        raise ConfigError("sweep.outputs must list at least one output")

    try:
        plan = TrialPlan(**{"trials": 100000, **mc_kwargs})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    wants_mc = any(name in _MC_OUTPUTS for name in canonical)
    if wants_mc and plan.trials < 100:
        raise ConfigError("mc.trials must be at least 100 when Monte Carlo outputs are requested")

    spec = SweepSpec(axis=axis, grid=grid_values, outputs=canonical, plan=plan,
                     settings=tuple(settings),
                     curves=tuple((name, tuple(items)) for name, items in curves.items()))
    _refuse_idle_keys(spec)
    # surface scenario problems at parse time, at every point, not mid-run
    groups: dict[tuple, list[SystemConfig]] = {}  # (N, cell) -> the configs of one run
    for name, overrides in spec.curves or ((None, ()),):
        for axis_value in spec.grid:
            try:
                cfg, cell, mob = _scenario(spec, overrides, axis_value)
                n = cfg.half_subcarriers
                if not -n <= plan.target_index <= n:
                    raise ValueError(f"half_subcarriers: mc.target_index = {plan.target_index} "
                                     f"outside the sub-carrier range [-{n}, {n}]")
                _check_doppler(spec, cfg, mob, axis_value)
                if cfg.noise_variance == 0.0:
                    _check_noiseless(spec, cfg, mob, axis_value)
                if wants_mc:
                    _check_monte_carlo(spec, cfg, cell, axis_value)
                    groups.setdefault((n, cell), []).append(cfg)
                _check_closed_forms(spec, cfg, mob, axis_value)
            except ValueError as exc:
                raise _scenario_fault(spec, name, overrides, exc) from None
    for (_, cell), cfgs in groups.items():
        _check_monte_carlo_run(spec, cell, cfgs)
    return spec


def _scenario_fault(spec: SweepSpec, name, overrides, exc: ValueError) -> ConfigError:
    """``exc``, raised while building or checking a curve's configs at a
    grid point, led by the config keys that set the fields it names
    (:func:`_setter`), in the order it names them.  The point checks name
    their fields in a lead, ``"field, field: "``, which the keys replace.
    It carries the curve's label only where one of those keys is the
    curve's own, or where it names none."""
    message = str(exc)
    lead, colon, rest = message.partition(": ")
    fields = lead.split(", ")
    if colon and all(field in _FIELD_KEYS for field in fields):
        message = rest
    else:
        found = sorted((match.start(), field) for field in _FIELD_KEYS
                       if (match := re.search(rf"\b{field}\b", message)))
        fields = [field for _, field in found]
    keys = list(dict.fromkeys(_setter(spec, name, overrides, *_FIELD_KEYS[field])
                              for field in fields))
    own = not keys or any(key.startswith("curve.") for key in keys)
    label = f"curve {name!r}: " if name and own else ""
    return ConfigError(label + (f"{', '.join(keys)}: " if keys else "") + message)


def _refuse_idle_keys(spec: SweepSpec):
    """Refuse the scenario keys that change nothing: the axis's own key,
    which the grid sets at every point; ``snr_db`` beside ``noise_variance``
    at one level, where one replaces the other; and a top-level key that
    every curve overrides, the two noise keys counting as one."""
    curves = spec.curves
    for prefix, items in (("", spec.settings), *((f"curve.{n}.", o) for n, o in curves)):
        keys = [key for key, _ in items]
        for key in keys:
            if key in _AXIS_KEYS[spec.axis]:
                raise ConfigError(f"{prefix}{key}: sweep.axis = {spec.axis} sets it "
                                  "at every grid point")
        if all(key in keys for key in _NOISE_KEYS):
            raise ConfigError(f"{prefix}system.noise_variance: mutually exclusive "
                              f"with {prefix}system.snr_db")
    for key, _ in spec.settings if curves else ():
        same = _NOISE_KEYS if key in _NOISE_KEYS else (key,)
        if all(any(inner in same for inner, _ in items) for _, items in curves):
            raise ConfigError(f"{key}: every curve overrides it")


def _setter(spec: SweepSpec, name, overrides, *keys) -> str:
    """The config key that sets the value of ``keys`` (one key, or the two
    noise keys) at a curve's grid points, in the precedence order of
    :func:`_scenario`; the last of ``keys`` where the value is the default."""
    if any(key in _AXIS_KEYS[spec.axis] for key in keys):
        return "sweep.grid"
    for prefix, items in ((f"curve.{name}.", overrides), ("", spec.settings)):
        for key, _ in items:
            if key in keys:
                return prefix + key
    return keys[-1]


def _check_doppler(spec: SweepSpec, cfg: SystemConfig, mob: MobilityModel,
                   axis_value: float):
    """Refuse a grid point whose normalized Doppler b = pi x / (T_s df), x of
    :meth:`SystemConfig.doppler_span`, overflows, where no output can be
    evaluated (a finite b means a finite x and pi x), and one where
    b^2 / 18 + b^4 / 60 of the closed-form bounds and approximations overflows."""
    point = f"{_AXIS_COLUMN[spec.axis]} = {axis_value!r}"
    fields = "max_velocity_mps, carrier_frequency_hz, subcarrier_spacing_hz, wave_speed_mps"
    try:
        b = NormalizedDoppler.from_configs(mob.max_velocity_mps, cfg).b
    except ValueError:
        raise ValueError(f"{fields}, symbol_period_s: the normalized Doppler is not finite "
                         f"at {point}") from None
    b2 = b * b
    if not math.isfinite(b2 / 18.0 + b2 * b2 / 60.0):
        raise ValueError(f"{fields}: the normalized Doppler b = {b!r} at {point} overflows "
                         "the closed-form series b^2/18 + b^4/60")


def _check_closed_forms(spec: SweepSpec, cfg: SystemConfig, mob: MobilityModel,
                        axis_value: float):
    """Refuse a grid point where a requested closed-form cell would not be
    finite: P_T (b^2/18 + b^4/60), the largest cell of ``ici_bounds`` and
    ``ici_approx``, which is P_T's fault once :func:`_check_doppler` has seen
    b^2/18 + b^4/60 finite, or the capacity approximation with its noise/P_T."""
    point = f"{_AXIS_COLUMN[spec.axis]} = {axis_value!r}"
    v_max = mob.max_velocity_mps
    ici_outputs = [output for output in ("ici_bounds", "ici_approx")
                   if output in spec.outputs]
    if ici_outputs and not math.isfinite(ici_bounds(v_max, cfg).upper):
        raise ValueError(f"effective_power: P_T (b^2/18 + b^4/60) overflows at {point}, "
                         f"where {', '.join(ici_outputs)} would not be finite")
    if "capacity_approx" in spec.outputs:
        try:
            finite = math.isfinite(capacity_upper_approx(v_max, cfg))
        except ValueError:  # a noise ratio that underflows to 0 at b = 0
            finite = False
        if not finite:
            raise ValueError(
                f"noise_variance, effective_power: capacity_approx is not finite at {point} "
                f"(noise/P_T = {cfg.noise_variance / cfg.effective_power!r})")


def _estimator_snrs(spec: SweepSpec, snr):
    """The ``snr`` argument of :func:`montecarlo.block_bytes` for each
    requested Monte Carlo estimator: None for the interference, ``snr``
    for the capacity."""
    return [None] * ("ici_mc" in spec.outputs) + [snr] * ("capacity_mc" in spec.outputs)


def _check_monte_carlo(spec: SweepSpec, cfg: SystemConfig, cell: CellConfig,
                       axis_value: float):
    """Refuse a Monte Carlo grid point whose capacity SNR is beyond the
    capacity's rule (:func:`montecarlo.capacity_snr`), or whose block would
    hold more than :data:`_MAX_MC_BYTES` (:func:`montecarlo.block_bytes`)
    for one of the requested estimators; nothing is allocated here."""
    snr = None
    if "capacity_mc" in spec.outputs:
        try:
            snr = capacity_snr(cfg)
        except ValueError as exc:
            raise ValueError(f"{exc} at {_AXIS_COLUMN[spec.axis]} = {axis_value!r}") from None
    devices = 2 * cfg.half_subcarriers + 1
    needed = max(block_bytes(devices, cell.paths_per_device, s) for s in _estimator_snrs(spec, snr))
    if needed > _MAX_MC_BYTES:
        raise ValueError(
            f"half_subcarriers, paths_per_device: {devices} devices x {cell.paths_per_device} "
            f"paths need {needed} bytes of draws and work arrays per Monte Carlo block of "
            f"{BLOCK_TRIALS} trials, above the limit of {_MAX_MC_BYTES} bytes")


def _check_monte_carlo_run(spec: SweepSpec, cell: CellConfig, cfgs):
    """Refuse a Monte Carlo sweep where an estimator's run over the grid
    points ``cfgs``, which share the sub-carrier count and ``cell`` and so
    one run (:func:`run_sweep`), would hold more than :data:`_MAX_MC_BYTES`
    (:func:`montecarlo.run_bytes`): a block and what it keeps per trial,
    which grows with ``mc.trials``."""
    devices = 2 * cfgs[0].half_subcarriers + 1
    snr = max(capacity_snr(cfg) for cfg in cfgs) if "capacity_mc" in spec.outputs else None
    needed = max(run_bytes(spec.plan.trials, len(cfgs), devices, cell.paths_per_device, s)
                 for s in _estimator_snrs(spec, snr))
    if needed > _MAX_MC_BYTES:
        raise ConfigError(
            f"mc.trials: {spec.plan.trials} trials of the {len(cfgs)} grid points at "
            f"half_subcarriers = {cfgs[0].half_subcarriers} and paths_per_device = "
            f"{cell.paths_per_device} need {needed} bytes of Monte Carlo arrays, above the "
            f"limit of {_MAX_MC_BYTES} bytes")


def _leaks_nothing(max_velocity_mps: float, cfg: SystemConfig) -> bool:
    """True where the closed-form interference, P_T minus the useful power,
    rounds to exactly 0: always in a static network, and at speeds so small
    that the useful power rounds to P_T."""
    # P_T minus the useful power is P_T (u^2/18 - u^4/300 + ...) in
    # u = pi x, x the Doppler span, and only grows with u.  From u = 1e-3 up
    # it is above 5e-8 P_T, far beyond the rounding of P_T (1.1e-16 P_T) and
    # the error of the useful-power quadrature (1e-12 P_T), so it cannot
    # round to 0 and the quadrature is skipped; it does round to 0 below u
    # of about 5e-8.
    if math.pi * cfg.doppler_span(max_velocity_mps) >= 1e-3:
        return False
    try:
        return total_ici_power(max_velocity_mps, cfg) == 0.0
    except QuadratureError:
        return False  # the sweep marks that row failed, as for any point


def _check_noiseless(spec: SweepSpec, cfg: SystemConfig, mob: MobilityModel,
                     axis_value: float):
    """Refuse the outputs a grid point without noise cannot give: the Monte
    Carlo capacity needs positive noise, and where the interference is zero
    too the capacity outputs' SINR is unbounded.  The closed-form capacity
    and sum rate see zero interference wherever P_T minus the useful power
    rounds to 0, the approximation wherever b^2 / 18 does: in a static
    network, and at speeds so small that the difference or b^2 underflows."""
    needs_noise = {"capacity_mc"}
    b = NormalizedDoppler.from_configs(mob.max_velocity_mps, cfg).b
    if b * b / 18.0 == 0.0:  # the interference term of capacity_upper_approx
        needs_noise.add("capacity_approx")
    closed_form = {"capacity_exact"}
    if cfg.bandwidth_hz > 0.0:
        closed_form.add("sum_rate")
    if closed_form.intersection(spec.outputs) \
            and _leaks_nothing(mob.max_velocity_mps, cfg):
        needs_noise.update(closed_form)
    refused = [output for output in spec.outputs if output in needs_noise]
    if refused:
        raise ValueError(
            f"noise_variance: the noise power is 0 at {_AXIS_COLUMN[spec.axis]} = "
            f"{axis_value!r}, where {', '.join(refused)} "
            f"need{'s' if len(refused) == 1 else ''} positive noise")


def to_text(spec: SweepSpec) -> str:
    """Canonical config for a spec; ``parse_config(to_text(s)) == s``."""
    lines = [f"{key} = {value!r}" for key, value in spec.settings]
    lines.append(f"sweep.axis = {spec.axis}")
    lines.append("sweep.grid = " + ", ".join(repr(x) for x in spec.grid))
    lines.append("sweep.outputs = " + ", ".join(spec.outputs))
    for key, (field, _) in _MC_KEYS.items():
        lines.append(f"{key} = {getattr(spec.plan, field)}")
    for name, overrides in spec.curves:
        for inner, value in overrides:
            lines.append(f"curve.{name}.{inner} = {value!r}")
    return "\n".join(lines) + "\n"


# ===========================================================================
# evaluation
# ===========================================================================

def _scenario(spec: SweepSpec, overrides, axis_value: float):
    """Configs for one (curve, grid point): the settings, then the curve's
    overrides, then the axis value, each replacing what came before.
    ``system.snr_db`` and ``system.noise_variance`` set one value, and
    ``snr_db`` resolves against the scenario's own effective power;
    ``symbol_period_s`` follows the spacing unless set."""
    kwargs = {"system": {}, "cell": {}, "mobility": {}}
    system = kwargs["system"]
    for key, value in (*spec.settings, *overrides, (_AXIS_KEYS[spec.axis][0], axis_value)):
        section, field, _ = _SCENARIO_KEYS[key]
        if key in _NOISE_KEYS:
            system.pop("snr_db", None)
            system.pop("noise_variance", None)
        kwargs[section][field] = value
    if "snr_db" in system:
        system["noise_variance"] = _snr_to_noise(
            system.pop("snr_db"), system.get("effective_power", SystemConfig.effective_power))
    return (SystemConfig(**system), CellConfig(**kwargs["cell"]),
            MobilityModel(**kwargs["mobility"]))


def _eval_point(spec: SweepSpec, curve: str, axis_value: float,
                cfg: SystemConfig, mob: MobilityModel) -> SweepRow:
    """The analytic columns of one grid point; :func:`_eval_group` adds the
    Monte Carlo ones."""
    v_max = mob.max_velocity_mps
    values = {}
    failures = []
    for output in spec.outputs:
        try:
            if output == "ici_exact":
                values["ici_exact"] = finite_n_ici(spec.plan.target_index, v_max, cfg)
            elif output == "ici_bounds":
                bounds = ici_bounds(v_max, cfg)
                values["ici_lower"] = bounds.lower
                values["ici_upper"] = bounds.upper
            elif output == "ici_approx":
                values["ici_approx"] = ici_approx(v_max, cfg)
            elif output == "capacity_exact":
                values["capacity_exact"] = capacity_upper(v_max, cfg)
            elif output == "capacity_approx":
                values["capacity_approx"] = capacity_upper_approx(v_max, cfg)
            elif output == "sum_rate":
                values["sum_rate"] = sum_rate_upper(v_max, cfg)
        except QuadratureError as exc:
            for column in _OUTPUT_COLUMNS[output]:
                values[column] = None
            failures.append(f"{output}: {exc}")
    return SweepRow(curve=curve, axis_value=axis_value, values=values,
                    error="; ".join(failures) if failures else None)


def _eval_group(spec: SweepSpec, cell: CellConfig, cfgs, mobs) -> list[dict]:
    """The Monte Carlo columns of grid points that share ``half_subcarriers``
    and ``cell``, one dict per point: each estimator draws every block once
    for the whole group, and each point's value equals its own estimate."""
    values = [{} for _ in cfgs]
    for output in spec.outputs:
        if output == "ici_mc":
            estimates = estimate_total_ici(spec.plan, cfgs, cell, mobs)
        elif output == "capacity_mc":
            estimates = estimate_ergodic_capacity(spec.plan, cfgs, cell, mobs)
        else:
            continue
        mean, std_error = _OUTPUT_COLUMNS[output]
        for point, est in zip(values, estimates):
            point[mean] = est.mean
            point[std_error] = est.std_error
    return values


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every (curve, grid point) and return rows in deterministic
    order: curves as declared, axis values ascending.

    Analytic columns are computed point by point.  Monte Carlo columns are
    computed per group of points sharing ``half_subcarriers`` and the cell,
    which share every random draw; they depend only on (seed, trials,
    scenario), never on the grouping or on ``workers``.  With several
    workers each point and each group is one task.  A numerical failure at
    a point marks that row and the rest of the sweep continues.
    """
    points = []
    groups: dict[tuple, list[int]] = {}  # (N, cell) -> indices into points
    wants_mc = any(output in _MC_OUTPUTS for output in spec.outputs)
    for curve, overrides in spec.curves or (("", ()),):
        for axis_value in spec.grid:
            cfg, cell, mob = _scenario(spec, overrides, axis_value)
            if wants_mc:
                groups.setdefault((cfg.half_subcarriers, cell), []).append(len(points))
            points.append((curve, axis_value, cfg, mob))
    group_tasks = [(cell, [points[i][2] for i in members], [points[i][3] for i in members])
                   for (_, cell), members in groups.items()]
    if workers <= 1:
        mc_values = [_eval_group(spec, *task) for task in group_tasks]
        rows = [_eval_point(spec, *point) for point in points]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            mc_futures = [pool.submit(_eval_group, spec, *task) for task in group_tasks]
            row_futures = [pool.submit(_eval_point, spec, *point) for point in points]
            mc_values = [future.result() for future in mc_futures]
            rows = [future.result() for future in row_futures]
    for members, values in zip(groups.values(), mc_values):
        for index, point in zip(members, values):
            rows[index].values.update(point)
    return rows


# ===========================================================================
# emission
# ===========================================================================

def _columns(spec: SweepSpec, rows) -> list[str]:
    names = []
    if spec.curves:
        names.append("curve")
    names.append(_AXIS_COLUMN[spec.axis])
    for output in spec.outputs:
        names.extend(_OUTPUT_COLUMNS[output])
    if any(row.error for row in rows):
        names.append("error")
    return names


def emit(rows, spec: SweepSpec, fmt: str = "csv") -> str:
    """Render sweep rows as CSV (each number as the shortest text that reads
    back to its float, as in JSON; LF endings) or JSON.

    Cells of a failed computation are left empty and the row carries the
    failure note in a trailing ``error`` column, which only appears when at
    least one row failed.  NaN and infinite values are refused outright.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    names = _columns(spec, rows)
    for row in rows:
        for value in row.values.values():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"refusing to emit NaN or infinity ({value!r}, "
                                 f"curve {row.curve!r}, point {row.axis_value!r})")

    def cells(row):
        out = {}
        if spec.curves:
            out["curve"] = row.curve
        out[_AXIS_COLUMN[spec.axis]] = row.axis_value
        out.update({k: row.values.get(k) for output in spec.outputs
                    for k in _OUTPUT_COLUMNS[output]})
        if names[-1] == "error":
            out["error"] = row.error or ""
        return out

    if fmt == "json":
        return json.dumps([cells(row) for row in rows], indent=2) + "\n"

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        record = cells(row)
        writer.writerow(["" if value is None else value if isinstance(value, str)
                         else repr(float(value)) for value in map(record.get, names)])
    return buffer.getvalue()


def preset_path(name: str):
    """Packaged sweep preset by name ("fig3", "fig4", "fig5"); returns a
    readable path-like object."""
    from importlib import resources
    base = name if name.endswith(".cfg") else name + ".cfg"
    candidate = resources.files("nbofdma") / "presets" / base
    if not candidate.is_file():
        raise ValueError(f"unknown preset {name!r}")
    return candidate
