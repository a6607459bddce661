"""Command line front end.

Three subcommands:

* ``sweep``    -- run a config-driven sweep and emit CSV or JSON
* ``analytic`` -- print the closed-form quantities for one scenario
* ``check``    -- run fast self-consistency checks, one PASS/FAIL line each

Exit codes: 0 success, 1 config or usage error, 2 numerical failure (a sweep
row or an ``analytic`` quantity failed, or a self-check failed), 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analytic import (
    NormalizedDoppler,
    approx_is_valid,
    approx_validity_threshold,
    capacity_upper,
    capacity_upper_approx,
    effective_useful_power,
    finite_n_ici,
    ici_approx,
    ici_bounds,
    leakage,
    sum_rate_upper,
    total_ici_power,
)
from .montecarlo import TrialPlan, estimate_ergodic_capacity, estimate_total_ici
from .numerics import QuadratureError
from .sweep import (ConfigError, _snr_to_noise, emit, parse_config, preset_path,
                    run_sweep, to_text)
from .sysmodel import CellConfig, MobilityModel, SystemConfig

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through the
    # documented exit-code contract instead (usage errors are code 1)
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    def positive_int(text: str) -> int:  # argparse names a bad value by this name
        count = int(text)
        if count < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1 (got {count})")
        return count

    parser = _Parser(prog="nbofdma",
                     description="Mobility-induced interference and capacity "
                                 "for a narrowband OFDMA uplink.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a sweep from a config file or preset")
    sweep.add_argument("--config", required=True,
                       help="path to a config file, or a preset name "
                            "(fig3, fig4, fig5)")
    sweep.add_argument("--output", help="output file (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--seed", type=int, help="override mc.seed")
    sweep.add_argument("--trials", type=int, help="override mc.trials")
    sweep.add_argument("--workers", type=positive_int, default=1,
                       help="parallel worker processes (default 1)")
    sweep.set_defaults(func=_cmd_sweep)

    analytic = sub.add_parser("analytic",
                              help="print closed-form quantities for one scenario")
    analytic.add_argument("--v-max", type=float, default=100.0,
                          help="maximum device speed in m/s (default 100)")
    analytic.add_argument("--carrier-frequency-hz", type=float, default=900e6)
    analytic.add_argument("--subcarrier-spacing-hz", type=float, default=2500.0)
    analytic.add_argument("--half-subcarriers", type=int, default=24)
    analytic.add_argument("--bandwidth-hz", type=float, default=200e3)
    analytic.add_argument("--effective-power", type=float, default=1.0)
    analytic.add_argument("--snr-db", type=float, default=20.0,
                          help="per-device SNR in dB (default 20)")
    analytic.set_defaults(func=_cmd_analytic)

    check = sub.add_parser("check", help="run fast self-consistency checks")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=2048)
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


# ===========================================================================
# sweep
# ===========================================================================

def _read_config(token: str) -> str:
    path = Path(token)
    if path.exists():
        return path.read_text()
    if re.fullmatch(r"[A-Za-z0-9_]+", token):
        try:
            return preset_path(token).read_text()
        except ValueError:
            raise ConfigError(f"no config file or preset named {token!r}") from None
    raise FileNotFoundError(f"config file not found: {token}")


def _cmd_sweep(args) -> int:
    spec = parse_config(_read_config(args.config))
    if args.trials is not None or args.seed is not None:
        plan = spec.plan
        if args.trials is not None:
            plan = replace(plan, trials=args.trials)
        if args.seed is not None:
            plan = replace(plan, seed=args.seed)
        # round-trip to re-run every cross-field validation
        spec = parse_config(to_text(replace(spec, plan=plan)))
    rows = run_sweep(spec, workers=args.workers)
    text = emit(rows, spec, fmt=args.format)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    failed = sum(1 for row in rows if row.error)
    if failed:
        print(f"warning: {failed} of {len(rows)} points failed to converge",
              file=sys.stderr)
        return 2
    return 0


# ===========================================================================
# analytic report
# ===========================================================================

def _cmd_analytic(args) -> int:
    cfg = SystemConfig(
        carrier_frequency_hz=args.carrier_frequency_hz,
        subcarrier_spacing_hz=args.subcarrier_spacing_hz,
        half_subcarriers=args.half_subcarriers,
        bandwidth_hz=args.bandwidth_hz,
        effective_power=args.effective_power,
    )
    cfg = replace(cfg, noise_variance=_snr_to_noise(args.snr_db, cfg.effective_power))
    v_max = args.v_max
    if not (math.isfinite(v_max) and v_max >= 0.0):
        raise ValueError(f"--v-max must be finite and non-negative (got {v_max!r})")
    try:
        doppler = NormalizedDoppler.from_configs(v_max, cfg).b
    except ValueError:
        raise ValueError(f"--v-max {v_max!r} overflows the Doppler span "
                         "x = V_max f_c T_s / c, or b = pi x / (T_s df), at "
                         f"--carrier-frequency-hz {cfg.carrier_frequency_hz!r} and "
                         f"--subcarrier-spacing-hz {cfg.subcarrier_spacing_hz!r}") from None
    bounds = ici_bounds(v_max, cfg)
    # the small-velocity bounds and approximations mean nothing outside their
    # regime (at 1e6 m/s the lower bound is 0, the upper one 3e12 P_T and the
    # capacity approximation negative), so they are left out there
    small = ("ici_lower_bound", "ici_upper_bound", "ici_small_velocity_approx",
             "capacity_upper_approx_bits")
    valid = approx_is_valid(v_max, cfg)
    report = [
        ("normalized_doppler", doppler),
        ("approx_validity_threshold_mps", approx_validity_threshold(cfg)),
        ("useful_power", effective_useful_power(v_max, cfg)),
        ("ici_power", total_ici_power(v_max, cfg)),
        ("ici_lower_bound", bounds.lower),
        ("ici_upper_bound", bounds.upper),
        ("ici_small_velocity_approx", ici_approx(v_max, cfg)),
        ("ici_finite_n", finite_n_ici(0, v_max, cfg)),
        ("capacity_upper_bits", capacity_upper(v_max, cfg)),
        ("capacity_upper_approx_bits", capacity_upper_approx(v_max, cfg)),
        ("sum_rate_upper_bps", sum_rate_upper(v_max, cfg)),
    ]
    for name, value in report:
        if valid or name not in small:
            print(f"{name:<32}{value:.12g}")
    if not valid:
        print(f"note: --v-max {v_max!r} is not below approx_validity_threshold_mps, so "
              f"{', '.join(small)} are left out", file=sys.stderr)
    return 0


# ===========================================================================
# self-checks
# ===========================================================================

def _cmd_check(args) -> int:
    cfg = SystemConfig()
    cell = CellConfig()
    speeds = (0.0, 30.0, 60.0, 100.0)
    results = []

    def record(name: str, ok: bool, detail: str):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name:<28}{detail}")

    # useful + leaked power must add back up to the transmit power
    residual = max(abs(effective_useful_power(v, cfg) + total_ici_power(v, cfg)
                       - cfg.effective_power) for v in speeds)
    record("power-conservation", residual <= 1e-12, f"max residual {residual:.3e}")

    # closed-form bounds must bracket the exact interference power
    ok = True
    worst = 0.0
    for v in speeds:
        exact = total_ici_power(v, cfg)
        bounds = ici_bounds(v, cfg)
        ok = ok and bounds.lower <= exact <= bounds.upper
        worst = max(worst, bounds.upper - bounds.lower)
    record("interference-sandwich", ok, f"widest bracket {worst:.3e}")

    # no motion, no spectral leakage
    static_self = leakage(0.0, 0.0, cfg)
    static_ici = finite_n_ici(0, 0.0, cfg)
    ok = static_self == 1.0 and static_ici == 0.0
    record("static-limit", ok,
           f"self gain {static_self!r}, interference {static_ici!r}")

    # leakage toward a neighbour above equals leakage toward one below
    spacing = cfg.subcarrier_spacing_hz
    ok = all(leakage(k * spacing, 75.0, cfg) == leakage(-k * spacing, 75.0, cfg)
             for k in (1, 8, 24))
    record("leakage-symmetry", ok, "positive offset == negative offset")

    # two independent integration routes to the same number; at 1000 m/s
    # (b = 3.77) the sine integral's argument passes 4, its fraction branch
    rel = 0.0
    for v in (100.0, 1000.0):
        useful = effective_useful_power(v, cfg)
        route_b = leakage(0.0, v, cfg) * cfg.effective_power
        rel = max(rel, abs(useful - route_b) / useful)
    record("dual-route-consistency", rel <= 1e-9, f"max relative gap {rel:.3e}")

    # identical seeds must reproduce the estimate bit for bit, and a group
    # that shares its draws must give each scenario's estimate alone
    plan = TrialPlan(trials=args.trials, seed=args.seed)
    mob = MobilityModel(max_velocity_mps=50.0)
    faster = MobilityModel(max_velocity_mps=500.0)
    first = estimate_total_ici(plan, cfg, cell, mob)
    second = estimate_total_ici(plan, cfg, cell, mob)
    group = estimate_total_ici(plan, [cfg, cfg], cell, [mob, faster])
    ok = first == second and group == [first, estimate_total_ici(plan, cfg, cell, faster)]
    record("mc-determinism", ok, f"mean {first.mean:.6e}, alone and in a group of two")

    # the simulator and the quadrature must agree on the interference
    exact = finite_n_ici(0, mob.max_velocity_mps, cfg)
    gap = abs(first.mean - exact)
    ok = gap <= 4.0 * first.std_error
    record("mc-agreement", ok, f"|mc - quadrature| {gap:.3e}, 4 stderr "
                               f"{4.0 * first.std_error:.3e}")

    # at the default 8 paths the simulated capacity stays below the capacity
    # at the mean powers; not a theorem, since the log is convex in the
    # interference, and it fails at one path per device
    capacity = estimate_ergodic_capacity(plan, cfg, cell, mob)
    ceiling = capacity_upper(mob.max_velocity_mps, cfg) + 3.0 * capacity.std_error
    record("capacity-bound", capacity.mean <= ceiling,
           f"mc {capacity.mean:.6f} bits, bound + 3 stderr {ceiling:.6f}")

    # faster devices leak more, so capacity can only fall with speed
    caps = [capacity_upper(v, cfg) for v in speeds]
    ok = all(b < a for a, b in zip(caps, caps[1:]))
    record("capacity-monotone", ok,
           f"{caps[0]:.6f} .. {caps[-1]:.6f} bits over {speeds} m/s")

    return 0 if all(results) else 2
