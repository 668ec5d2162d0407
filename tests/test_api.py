"""The public surface of fdrelay: its exported names and trimmed signatures."""
import inspect

import fdrelay
from fdrelay import gp, model, montecarlo, powalloc, rates

EXPORTED = [
    "DropGeometry", "LargeScaleProfile", "SystemConfig", "__version__",
    "asymptotic_se", "convergence_probe", "draw_urban_profile",
    "energy_efficiency", "make_profile", "optimize_powers", "rate_mr",
    "rate_zf", "required_power", "simulate", "snapshot_profile", "sum_se",
]
# callables that are not exported but stay importable from their modules:
# the GP solver and the helpers one module calls for another, and the three
# one-point Monte Carlo views that perfbench/workloads.py still calls
MODULE_HELD = {
    "GeometricProgram": gp, "Posynomial": gp, "solve_gp": gp,
    "estimation_variance": model, "sinr_coefficients": rates,
    "genie_rates": montecarlo, "mc_rate": montecarlo,
    "wishart_inverse_moment": montecarlo,
}


def public_callables() -> dict:
    """{name: object} of every exported callable and every module-held one."""
    found = {name: getattr(fdrelay, name) for name in fdrelay.__all__}
    found.update((name, getattr(module, name)) for name, module in MODULE_HELD.items())
    return {name: obj for name, obj in found.items() if callable(obj)}


def test_exported_names_are_pinned():
    # a name or a knob comes back only through an edit of this test
    assert sorted(fdrelay.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(fdrelay, name) is not None, name
    for name in MODULE_HELD:
        assert name not in fdrelay.__all__ and not hasattr(fdrelay, name), name


def test_record_types_stay_in_their_modules():
    for module, name in ((rates, "RateReport"), (rates, "SinrCoefficients"),
                         (montecarlo, "McRateResult"), (montecarlo, "GenieResult"),
                         (montecarlo, "HopTerms"), (gp, "GpResult"),
                         (powalloc, "PowerAllocation")):
        assert isinstance(getattr(module, name), type)
        assert name not in fdrelay.__all__


# the parameter list of every exported or module-held callable, record types
# included
SIGNATURES = {
    "DropGeometry": ["disk_diameter", "shadow_sigma_db", "path_exponent", "ref_distance"],
    "GeometricProgram": ["objective", "inequalities", "equalities", "lower", "upper"],
    "LargeScaleProfile": ["beta_sr", "beta_rd", "sigma_sr_sq", "sigma_rd_sq"],
    "Posynomial": ["coeffs", "exponents"],
    "SystemConfig": ["K", "Nrx", "Ntx", "T", "tau", "Pp", "Ps", "Pr", "sigma_li_sq"],
    "asymptotic_se": ["case", "scheme", "cfg", "profile", "Es", "Er", "kappa"],
    "convergence_probe": ["kind", "cfg", "profile", "scheme", "trials", "rng", "er"],
    "draw_urban_profile": ["geometry", "K", "tau", "Pp", "rng"],
    "energy_efficiency": ["sum_se", "p_s", "p_r", "T", "tau"],
    "estimation_variance": ["beta", "tau", "Pp"],
    "genie_rates": ["cfg", "profile", "scheme", "trials", "rng"],
    "make_profile": ["beta_sr", "beta_rd", "tau", "Pp"],
    "mc_rate": ["cfg", "profile", "scheme", "trials", "rng"],
    "optimize_powers": ["cfg", "profile", "scheme", "s0", "p0", "p1"],
    "rate_mr": ["cfg", "profile", "mode"],
    "rate_zf": ["cfg", "profile", "mode"],
    "required_power": ["target_rate_per_pair", "scheme", "cfg", "profile",
                       "pilot_tracks_data"],
    "simulate": ["points", "scheme", "trials", "rng"],
    "sinr_coefficients": ["cfg", "profile", "scheme"],
    "snapshot_profile": ["tau", "Pp"],
    "solve_gp": ["prog", "start", "duals"],
    "sum_se": ["r_e2e", "T", "tau", "mode"],
    "wishart_inverse_moment": ["n_ant", "variances", "trials", "rng"],
}


def test_trimmed_signatures():
    # a parameter, like a name, comes back only through an edit of this table
    found = public_callables()
    assert sorted(SIGNATURES) == sorted(found)
    for name, params in SIGNATURES.items():
        assert list(inspect.signature(found[name]).parameters) == params, name
