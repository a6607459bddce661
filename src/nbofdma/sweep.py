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
from dataclasses import dataclass, fields, replace

from .analytic import (
    NormalizedDoppler,
    _symbol_doppler_span,
    capacity_upper,
    capacity_upper_approx,
    finite_n_ici,
    ici_approx,
    ici_bounds,
    sum_rate_upper,
    total_ici_power,
)
from .montecarlo import BLOCK_TRIALS, TrialPlan, estimate_ergodic_capacity, estimate_total_ici
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


# (dataclass field, converter) per config key
_SYSTEM_KEYS = {
    "system.carrier_frequency_hz": ("carrier_frequency_hz", _to_float),
    "system.subcarrier_spacing_hz": ("subcarrier_spacing_hz", _to_float),
    "system.symbol_period_s": ("symbol_period_s", _to_float),
    "system.half_subcarriers": ("half_subcarriers", _to_int),
    "system.bandwidth_hz": ("bandwidth_hz", _to_float),
    "system.effective_power": ("effective_power", _to_float),
    "system.noise_variance": ("noise_variance", _to_float),
    "system.wave_speed_mps": ("wave_speed_mps", _to_float),
}
_CELL_KEYS = {
    "cell.paths_per_device": ("paths_per_device", _to_int),
}
_MOBILITY_KEYS = {
    "mobility.max_velocity_mps": ("max_velocity_mps", _to_float),
}
_MC_KEYS = {
    "mc.trials": ("trials", _to_int),
    "mc.seed": ("seed", _to_int),
    "mc.target_index": ("target_index", _to_int),
}
# keys a curve may override (snr_db is sugar for noise_variance in both
# the global and the per-curve position)
_SCENARIO_KEYS = {**_SYSTEM_KEYS, **_CELL_KEYS, **_MOBILITY_KEYS,
                  "system.snr_db": ("snr_db", _to_float)}

# largest block of Monte Carlo path draws, BLOCK_TRIALS x (2N + 1) x M
# doubles, a Monte Carlo sweep may ask for
_MAX_BLOCK_DRAW_BYTES = 1 << 30

_CURVE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class SweepSpec:
    """A fully validated sweep: scenario, axis, grid, outputs, trial plan.

    ``curves`` holds (name, overrides) pairs in declaration order, each
    override a (config key, value) tuple applied on top of the base
    scenario; empty means a single unlabelled curve.
    """

    axis: str
    grid: tuple[float, ...]
    outputs: tuple[str, ...]
    system: SystemConfig
    cell: CellConfig
    mobility: MobilityModel
    plan: TrialPlan
    curves: tuple[tuple[str, tuple[tuple[str, float], ...]], ...] = ()
    explicit_symbol_period: bool = False


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
    malformed values and violated constraints.
    """
    pairs, order = _read_pairs(text)

    system_kwargs = {}
    cell_kwargs = {}
    mobility_kwargs = {}
    mc_kwargs = {}
    snr_db = None
    axis = None
    grid = None
    outputs = None
    curves: dict[str, list] = {}

    for key in order:
        raw = pairs[key]
        if key in _SYSTEM_KEYS:
            field, convert = _SYSTEM_KEYS[key]
            system_kwargs[field] = convert(raw, key)
        elif key == "system.snr_db":
            snr_db = _to_float(raw, key)
        elif key in _CELL_KEYS:
            field, convert = _CELL_KEYS[key]
            cell_kwargs[field] = convert(raw, key)
        elif key in _MOBILITY_KEYS:
            field, convert = _MOBILITY_KEYS[key]
            mobility_kwargs[field] = convert(raw, key)
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
            _, convert = _SCENARIO_KEYS[inner]
            curves.setdefault(name, []).append((inner, convert(raw, key)))
        else:
            raise ConfigError(f"unknown key {key!r}")

    if "noise_variance" in system_kwargs and snr_db is not None:
        raise ConfigError("system.noise_variance and system.snr_db are mutually exclusive")

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
        system = SystemConfig(**system_kwargs)
        if snr_db is not None:
            system = replace(system,
                             noise_variance=_snr_to_noise(snr_db, system.effective_power))
        cell = CellConfig(**cell_kwargs)
        mobility = MobilityModel(**mobility_kwargs)
        plan = TrialPlan(**{"trials": 100000, **mc_kwargs})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    wants_mc = any(name in _MC_OUTPUTS for name in canonical)
    if wants_mc and plan.trials < 100:
        raise ConfigError("mc.trials must be at least 100 when Monte Carlo outputs are requested")

    spec = SweepSpec(
        axis=axis,
        grid=grid_values,
        outputs=canonical,
        system=system,
        cell=cell,
        mobility=mobility,
        plan=plan,
        curves=tuple((name, tuple(items)) for name, items in curves.items()),
        explicit_symbol_period="symbol_period_s" in system_kwargs,
    )
    # surface per-curve scenario problems at parse time, not mid-run
    for name, overrides in spec.curves or ((None, ()),):
        try:
            for axis_value in spec.grid:
                cfg, cell, mob = _scenario(spec, overrides, axis_value)
                n = cfg.half_subcarriers
                if not -n <= plan.target_index <= n:
                    raise ValueError(f"mc.target_index = {plan.target_index} outside "
                                     f"the sub-carrier range [-{n}, {n}]")
                if wants_mc:
                    _check_block_memory(cfg, cell)
                _check_doppler(spec, cfg, mob, axis_value)
                noise_key = _noise_key(spec, name, overrides, snr_db)
                if cfg.noise_variance == 0.0:
                    _check_noiseless(spec, cfg, mob, axis_value, noise_key)
                _check_closed_forms(spec, cfg, mob, axis_value, noise_key,
                                    _power_key(name, overrides))
        except ValueError as exc:
            label = f"curve {name!r}: " if name else ""
            raise ConfigError(label + str(exc)) from None
    return spec


def _noise_key(spec: SweepSpec, name, overrides, global_snr_db) -> str:
    """The config key that sets the noise power of a curve's grid points,
    in the precedence order of :func:`_scenario`."""
    if spec.axis == "snr_db":
        return "sweep.grid"
    keys = [key for key, _ in overrides]
    for key in ("system.snr_db", "system.noise_variance"):
        if key in keys:
            return f"curve.{name}.{key}"
    return "system.snr_db" if global_snr_db is not None else "system.noise_variance"


def _power_key(name, overrides) -> str:
    """The config key that sets the effective power of a curve."""
    if any(key == "system.effective_power" for key, _ in overrides):
        return f"curve.{name}.system.effective_power"
    return "system.effective_power"


def _check_doppler(spec: SweepSpec, cfg: SystemConfig, mob: MobilityModel,
                   axis_value: float):
    """Refuse a grid point whose normalized Doppler b = pi V_max f_c / (c df)
    or symbol-window span pi V_max f_c T_s / c overflows, where no output can
    be evaluated, and one where b^2 / 18 + b^4 / 60 of the closed-form
    bounds and approximations overflows."""
    point = f"{_AXIS_COLUMN[spec.axis]} = {axis_value!r}"
    try:
        b = NormalizedDoppler.from_configs(mob.max_velocity_mps, cfg).b
        finite = math.isfinite(_symbol_doppler_span(mob.max_velocity_mps, cfg))
    except ValueError:
        finite = False
    if not finite:
        raise ValueError(f"the normalized Doppler is not finite at {point}")
    b2 = b * b
    if not math.isfinite(b2 / 18.0 + b2 * b2 / 60.0):
        raise ValueError(f"the normalized Doppler b = {b!r} at {point} overflows "
                         "the closed-form series b^2/18 + b^4/60")


def _check_closed_forms(spec: SweepSpec, cfg: SystemConfig, mob: MobilityModel,
                        axis_value: float, noise_key: str, power_key: str):
    """Refuse a grid point where a requested closed-form cell would not be
    finite: P_T (b^2/18 + b^4/60), the largest cell of ``ici_bounds`` and
    ``ici_approx``, or the capacity approximation with its noise/P_T.
    :func:`_check_doppler` has already seen that b^2/18 + b^4/60 is finite."""
    point = f"{_AXIS_COLUMN[spec.axis]} = {axis_value!r}"
    v_max = mob.max_velocity_mps
    ici_outputs = [output for output in ("ici_bounds", "ici_approx")
                   if output in spec.outputs]
    if ici_outputs and not math.isfinite(ici_bounds(v_max, cfg).upper):
        raise ValueError(f"{power_key}: P_T (b^2/18 + b^4/60) overflows at {point}, "
                         f"where {', '.join(ici_outputs)} would not be finite")
    if "capacity_approx" in spec.outputs:
        try:
            finite = math.isfinite(capacity_upper_approx(v_max, cfg))
        except ValueError:  # a noise ratio that underflows to 0 at b = 0
            finite = False
        if not finite:
            raise ValueError(
                f"{noise_key}, {power_key}: capacity_approx is not finite at {point} "
                f"(noise/P_T = {cfg.noise_variance / cfg.effective_power!r})")


def _check_block_memory(cfg: SystemConfig, cell: CellConfig):
    """Refuse a Monte Carlo scenario whose block of path draws would not fit
    in :data:`_MAX_BLOCK_DRAW_BYTES`; nothing is allocated here."""
    devices = 2 * cfg.half_subcarriers + 1
    draw_bytes = BLOCK_TRIALS * devices * cell.paths_per_device * 8
    if draw_bytes > _MAX_BLOCK_DRAW_BYTES:
        raise ValueError(
            f"system.half_subcarriers: {devices} devices x {cell.paths_per_device} paths "
            f"need {draw_bytes} bytes of draws per Monte Carlo block of {BLOCK_TRIALS} "
            f"trials, above the limit of {_MAX_BLOCK_DRAW_BYTES} bytes")


def _leaks_nothing(max_velocity_mps: float, cfg: SystemConfig) -> bool:
    """True where the closed-form interference, P_T minus the useful power,
    rounds to exactly 0: always in a static network, and at speeds so small
    that the useful power rounds to P_T."""
    # P_T minus the useful power is P_T (b^2/18 - b^4/300 + ...) in the
    # symbol-window span b and only grows with b.  From b = 1e-3 up it is
    # above 5e-8 P_T, far beyond the rounding of P_T (1.1e-16 P_T) and the
    # error of the useful-power quadrature (1e-12 P_T), so it cannot round
    # to 0 and the quadrature is skipped; it does round to 0 below b of
    # about 5e-8.
    if _symbol_doppler_span(max_velocity_mps, cfg) >= 1e-3:
        return False
    try:
        return total_ici_power(max_velocity_mps, cfg) == 0.0
    except QuadratureError:
        return False  # the sweep marks that row failed, as for any point


def _check_noiseless(spec: SweepSpec, cfg: SystemConfig, mob: MobilityModel,
                     axis_value: float, key: str):
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
            f"{key}: the noise power is 0 at {_AXIS_COLUMN[spec.axis]} = {axis_value!r}, "
            f"where {', '.join(refused)} need{'s' if len(refused) == 1 else ''} "
            "positive noise")


def to_text(spec: SweepSpec) -> str:
    """Canonical config for a spec; ``parse_config(to_text(s)) == s``."""
    lines = []
    for key, (field, _) in _SYSTEM_KEYS.items():
        if field == "symbol_period_s" and not spec.explicit_symbol_period:
            continue
        lines.append(f"{key} = {getattr(spec.system, field)!r}")
    for key, (field, _) in _CELL_KEYS.items():
        lines.append(f"{key} = {getattr(spec.cell, field)!r}")
    for key, (field, _) in _MOBILITY_KEYS.items():
        lines.append(f"{key} = {getattr(spec.mobility, field)!r}")
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
    """Configs for one (curve, grid point), overrides applied to the base."""
    system_kwargs = {f.name: getattr(spec.system, f.name) for f in fields(SystemConfig)}
    cell_kwargs = {f.name: getattr(spec.cell, f.name) for f in fields(CellConfig)}
    mobility_kwargs = {f.name: getattr(spec.mobility, f.name) for f in fields(MobilityModel)}
    if not spec.explicit_symbol_period:
        system_kwargs["symbol_period_s"] = None  # keep following the spacing
    snr_db = None
    for key, value in overrides:
        if key == "system.snr_db":
            snr_db = value
        elif key in _SYSTEM_KEYS:
            system_kwargs[_SYSTEM_KEYS[key][0]] = value
        elif key in _CELL_KEYS:
            cell_kwargs[_CELL_KEYS[key][0]] = value
        else:
            mobility_kwargs[_MOBILITY_KEYS[key][0]] = value
    if snr_db is not None:
        system_kwargs["noise_variance"] = _snr_to_noise(
            snr_db, system_kwargs["effective_power"])
    if spec.axis == "v_max":
        mobility_kwargs["max_velocity_mps"] = axis_value
    else:
        system_kwargs["noise_variance"] = _snr_to_noise(
            axis_value, system_kwargs["effective_power"])
    return (SystemConfig(**system_kwargs), CellConfig(**cell_kwargs),
            MobilityModel(**mobility_kwargs))


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


def _cell_text(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def emit(rows, spec: SweepSpec, fmt: str = "csv") -> str:
    """Render sweep rows as CSV (12 significant digits, LF endings) or JSON.

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
        writer.writerow([record[name] if isinstance(record[name], str)
                         else _cell_text(record[name]) for name in names])
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
