"""Mobility-induced inter-carrier interference and capacity for a
narrowband OFDMA cellular uplink.

Closed-form interference/capacity expressions, quadrature-backed exact
evaluation, small-velocity bounds and approximations, and a Monte Carlo
simulator for validating all of them, plus a config-driven sweep engine
and CLI for reproducing interference-vs-mobility and capacity-vs-mobility
curve families.
"""

from .numerics import QuadratureError, QuadratureSpec, integrate, sinc, sine_integral
from .sysmodel import (
    CellConfig,
    MobilityModel,
    SystemConfig,
    sample_cell_batch,
    subcarrier_gaps,
)
from .analytic import (
    IciBounds,
    NormalizedDoppler,
    PowerBudget,
    approx_is_valid,
    approx_validity_threshold,
    capacity_upper,
    capacity_upper_approx,
    effective_useful_power,
    finite_n_ici,
    ici_approx,
    ici_bounds,
    leakage,
    leakage_sum,
    power_budget,
    sum_rate_upper,
    total_ici_power,
)
from .montecarlo import (
    Estimate,
    TrialPlan,
    estimate_ergodic_capacity,
    estimate_total_ici,
    estimate_useful_power,
    symmetry_probe,
)
from .sweep import (
    ConfigError,
    SweepRow,
    SweepSpec,
    emit,
    parse_config,
    preset_path,
    run_sweep,
    to_text,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "QuadratureSpec",
    "QuadratureError",
    "integrate",
    "sinc",
    "sine_integral",
    # system model
    "SystemConfig",
    "CellConfig",
    "MobilityModel",
    "sample_cell_batch",
    "subcarrier_gaps",
    # closed forms
    "NormalizedDoppler",
    "IciBounds",
    "PowerBudget",
    "effective_useful_power",
    "total_ici_power",
    "power_budget",
    "ici_bounds",
    "ici_approx",
    "approx_validity_threshold",
    "approx_is_valid",
    "leakage",
    "leakage_sum",
    "finite_n_ici",
    "capacity_upper",
    "capacity_upper_approx",
    "sum_rate_upper",
    # Monte Carlo
    "TrialPlan",
    "Estimate",
    "estimate_total_ici",
    "estimate_useful_power",
    "estimate_ergodic_capacity",
    "symmetry_probe",
    # sweeps
    "ConfigError",
    "SweepSpec",
    "SweepRow",
    "parse_config",
    "to_text",
    "run_sweep",
    "emit",
    "preset_path",
]
