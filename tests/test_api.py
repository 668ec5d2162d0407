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


def test_trimmed_signatures():
    for fn in (fdrelay.rate_zf, fdrelay.rate_mr):
        assert list(inspect.signature(fn).parameters) == ["cfg", "profile", "mode"]
    assert list(inspect.signature(fdrelay.solve_gp).parameters) == ["prog", "start"]
