"""Multipair full-duplex massive-MIMO relaying toolkit.

Channel generation and MMSE estimation, ZF and MRC/MRT relay processing,
closed-form and Monte Carlo achievable rates, duplex-mode comparison, a
small geometric-program solver, and energy-efficient power allocation.
The record types the functions return, the GP solver and the helpers that
one module calls for another are importable from their modules.
"""
from .model import (
    DropGeometry,
    LargeScaleProfile,
    SystemConfig,
    draw_urban_profile,
    make_profile,
    snapshot_profile,
)
from .montecarlo import convergence_probe, simulate
from .powalloc import energy_efficiency, optimize_powers
from .rates import asymptotic_se, rate_mr, rate_zf, required_power, sum_se

__version__ = "0.1.0"

__all__ = [
    "DropGeometry", "LargeScaleProfile", "SystemConfig", "draw_urban_profile",
    "make_profile", "snapshot_profile",
    "convergence_probe", "simulate",
    "energy_efficiency", "optimize_powers",
    "asymptotic_se", "rate_mr", "rate_zf", "required_power", "sum_se",
    "__version__",
]
