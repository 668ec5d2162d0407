"""Multipair full-duplex massive-MIMO relaying toolkit.

Channel generation and MMSE estimation, ZF and MRC/MRT relay processing,
closed-form and Monte Carlo achievable rates, duplex-mode comparison, a
small geometric-program solver, and energy-efficient power allocation.
The record types the functions return are importable from their modules.
"""
from .gp import GeometricProgram, Posynomial, solve_gp
from .model import (
    DropGeometry,
    LargeScaleProfile,
    SystemConfig,
    draw_urban_profile,
    estimation_variance,
    make_profile,
    snapshot_profile,
)
from .montecarlo import (
    convergence_probe,
    genie_rates,
    mc_rate,
    simulate,
    wishart_inverse_moment,
)
from .powalloc import energy_efficiency, optimize_powers
from .rates import (
    asymptotic_se,
    rate_mr,
    rate_zf,
    required_power,
    sinr_coefficients,
    sum_se,
)

__version__ = "0.1.0"

__all__ = [
    "GeometricProgram", "Posynomial", "solve_gp",
    "DropGeometry", "LargeScaleProfile", "SystemConfig", "draw_urban_profile",
    "estimation_variance", "make_profile", "snapshot_profile",
    "convergence_probe", "genie_rates", "mc_rate", "simulate",
    "wishart_inverse_moment",
    "energy_efficiency", "optimize_powers",
    "asymptotic_se", "rate_mr", "rate_zf", "required_power",
    "sinr_coefficients", "sum_se",
    "__version__",
]
