"""The public surface of fdrelay: its exported names and trimmed signatures."""
import inspect

import fdrelay
from fdrelay import gp, montecarlo, powalloc, rates

EXPORTED = [
    "DropGeometry", "GeometricProgram", "LargeScaleProfile", "Posynomial",
    "SystemConfig", "__version__", "asymptotic_se", "convergence_probe",
    "draw_urban_profile", "energy_efficiency", "estimation_variance",
    "genie_rates", "make_profile", "mc_rate", "optimize_powers", "rate_mr",
    "rate_zf", "required_power", "simulate", "sinr_coefficients",
    "snapshot_profile", "solve_gp", "sum_se", "wishart_inverse_moment",
]


def test_exported_names_are_pinned():
    # a name or a knob comes back only through an edit of this test
    assert sorted(fdrelay.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(fdrelay, name) is not None, name


def test_record_types_stay_in_their_modules():
    for module, name in ((rates, "RateReport"), (rates, "SinrCoefficients"),
                         (montecarlo, "McRateResult"), (montecarlo, "GenieResult"),
                         (montecarlo, "HopTerms"), (gp, "GpResult"),
                         (powalloc, "PowerAllocation")):
        assert isinstance(getattr(module, name), type)
        assert name not in fdrelay.__all__


# the parameter list of every exported callable, record types included
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
    "solve_gp": ["prog", "start"],
    "sum_se": ["r_e2e", "T", "tau", "mode"],
    "wishart_inverse_moment": ["n_ant", "variances", "trials", "rng"],
}


def test_trimmed_signatures():
    # a parameter, like a name, comes back only through an edit of this table
    exported = {name: getattr(fdrelay, name) for name in fdrelay.__all__}
    assert sorted(SIGNATURES) == sorted(n for n, obj in exported.items() if callable(obj))
    for name, params in SIGNATURES.items():
        assert list(inspect.signature(exported[name]).parameters) == params, name
