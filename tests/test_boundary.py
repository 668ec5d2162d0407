"""Degenerate scalars at the library and CLI boundary.

Every int- or float-annotated parameter of the public API, and of the
callables that stay importable from their modules, fails at the call with a
ValueError that names it; every preset either runs to finite cells or
exits 2 with one JSON line and no output.
"""
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay import (
    DropGeometry,
    LargeScaleProfile,
    SystemConfig,
    cli,
    convergence_probe,
    energy_efficiency,
    make_profile,
    rate_zf,
    required_power,
    simulate,
)
from fdrelay.model import estimation_variance
from fdrelay.montecarlo import wishart_inverse_moment
from test_api import public_callables

CALLABLES = public_callables()

CFG = SystemConfig(K=4, Nrx=32, Ntx=32, tau=8)
PROF = make_profile(np.ones(4), np.ones(4), CFG.tau, CFG.Pp)


def valid_call(name: str) -> dict:
    """Keyword arguments of one valid call of the public callable name."""
    rng = np.random.default_rng(0)
    sim = dict(cfg=CFG, profile=PROF, scheme="zf", trials=4, rng=rng)
    return {
        "DropGeometry": {},
        "SystemConfig": dict(K=4, Nrx=32, Ntx=32, tau=8),
        "asymptotic_se": dict(case="II", scheme="zf", cfg=CFG, profile=PROF,
                              Es=1.0, Er=1.0, kappa=1.0),
        "convergence_probe": dict(sim, kind="forward", er=1.0),
        "draw_urban_profile": dict(geometry=DropGeometry(), K=4, tau=8, Pp=1.0, rng=rng),
        "energy_efficiency": dict(sum_se=1.0, p_s=[1.0], p_r=1.0, T=200, tau=20),
        "estimation_variance": dict(beta=1.0, tau=8, Pp=1.0),
        "genie_rates": sim,
        "make_profile": dict(beta_sr=[1.0], beta_rd=[1.0], tau=8, Pp=1.0),
        "mc_rate": sim,
        "optimize_powers": dict(cfg=CFG, profile=PROF, scheme="zf", s0=2.0),
        "required_power": dict(target_rate_per_pair=1.0, scheme="zf", cfg=CFG,
                               profile=PROF),
        "simulate": dict(points=[(CFG, PROF)], scheme="zf", trials=4, rng=rng),
        "snapshot_profile": dict(tau=20, Pp=10.0),
        "sum_se": dict(r_e2e=[1.0], T=200, tau=20),
        "wishart_inverse_moment": dict(n_ant=16, variances=[1.0, 2.0], trials=4, rng=rng),
    }[name]


NAN, INF = math.nan, math.inf
COUNT = (NAN, INF, -1, 0, 2.5)  # an integer >= 1 (trials >= 2 for a stderr)
REAL = (NAN, INF, -1.0)  # finite and >= 0
POSITIVE = (NAN, INF, -1.0, 0.0)  # finite and > 0

# (callable, argument): the values it refuses; the ValueError's message
# starts with the argument's name
EDGES = {
    **{("DropGeometry", f): POSITIVE for f in ("disk_diameter", "path_exponent",
                                                "ref_distance")},
    ("DropGeometry", "shadow_sigma_db"): REAL,
    **{("SystemConfig", f): COUNT for f in ("K", "Nrx", "Ntx", "T", "tau")},
    **{("SystemConfig", f): REAL for f in ("Pp", "Ps", "Pr", "sigma_li_sq")},
    ("asymptotic_se", "Es"): REAL,
    ("asymptotic_se", "Er"): REAL,
    ("asymptotic_se", "kappa"): POSITIVE,
    ("convergence_probe", "trials"): COUNT,
    ("convergence_probe", "er"): POSITIVE,
    ("draw_urban_profile", "K"): COUNT,
    ("energy_efficiency", "sum_se"): REAL,
    ("energy_efficiency", "p_r"): REAL,
    ("energy_efficiency", "T"): COUNT,
    ("energy_efficiency", "tau"): COUNT,
    ("genie_rates", "trials"): COUNT,
    ("mc_rate", "trials"): COUNT,
    ("optimize_powers", "s0"): POSITIVE,
    ("optimize_powers", "p0"): POSITIVE,
    ("optimize_powers", "p1"): POSITIVE,
    ("required_power", "target_rate_per_pair"): (NAN, -1.0, 0.0),
    ("simulate", "trials"): COUNT,
    ("sum_se", "T"): COUNT,
    ("sum_se", "tau"): COUNT,
    ("wishart_inverse_moment", "n_ant"): COUNT,
    ("wishart_inverse_moment", "trials"): COUNT,
    **{(name, arg): (COUNT if arg == "tau" else REAL)
       for name in ("draw_urban_profile", "estimation_variance", "make_profile",
                    "snapshot_profile") for arg in ("tau", "Pp")},
}
# required_power keeps its own target check: an infinite target returns inf
MESSAGE_NAMES = {"target_rate_per_pair": "target rate"}


def scalar_arguments():
    """(callable, argument) for every int- or float-annotated parameter of
    an exported or module-held callable, and every field of SystemConfig and
    DropGeometry."""
    found = {(cls.__name__, f.name) for cls in (SystemConfig, DropGeometry)
             for f in dataclasses.fields(cls)}
    for name, obj in CALLABLES.items():
        for param in inspect.signature(obj, eval_str=True).parameters.values():
            ann = param.annotation
            if {int, float} & ({ann} | set(typing.get_args(ann))):
                found.add((name, param.name))
    return found


def test_every_scalar_argument_refuses_its_edges_by_name():
    # a scalar added to the public API later has to join EDGES
    assert set(EDGES) == scalar_arguments()
    failures = []
    for (name, arg), values in sorted(EDGES.items()):
        prefix = MESSAGE_NAMES.get(arg, arg) + " must be"
        for value in values:
            try:
                CALLABLES[name](**dict(valid_call(name), **{arg: value}))
                failures.append(f"{name}({arg}={value!r}) raised nothing")
            except ValueError as exc:
                if not str(exc).startswith(prefix):
                    failures.append(f"{name}({arg}={value!r}): {exc}")
            except Exception as exc:  # the wrong exception type is the finding
                failures.append(f"{name}({arg}={value!r}): {type(exc).__name__} {exc}")
    assert not failures, "\n".join(failures)


def test_valid_edges_still_pass():
    for name in sorted({name for name, _ in EDGES}):
        CALLABLES[name](**valid_call(name))
    # zero powers and no loop interference are a valid config
    zero = SystemConfig(K=4, Nrx=32, Ntx=32, tau=8, Pp=0.0, Ps=0.0, Pr=0.0, sigma_li_sq=0.0)
    assert zero.Pp == zero.Ps == zero.Pr == zero.sigma_li_sq == 0.0
    # perfect CSI: every estimate carries its channel's whole gain
    ones = np.ones(4)
    perfect = LargeScaleProfile(beta_sr=ones, beta_rd=ones, sigma_sr_sq=ones, sigma_rd_sq=ones)
    assert math.isfinite(rate_zf(CFG, perfect).sum_se)
    bound = simulate([(CFG, perfect)], "zf", 4, np.random.default_rng(0))[0][0]
    assert math.isfinite(bound.sum_rate)
    assert required_power(math.inf, "zf", CFG, PROF) == math.inf
    assert convergence_probe("decode", CFG, PROF, "zf", 4, np.random.default_rng(0),
                             er=None) > 0


def test_array_and_relational_edges_name_their_argument():
    # tau = 8.5 meets 2K <= tau < T at K = 4, so only the count rule refuses it
    for call, prefix in (
            (lambda: SystemConfig(K=4, Nrx=32, Ntx=32, tau=8.5), "tau must be"),
            (lambda: estimation_variance([1.0, math.nan], 8, 1.0), "beta must be"),
            (lambda: estimation_variance([1.0, -1.0], 8, 1.0), "beta must be"),
            (lambda: wishart_inverse_moment(16, [1.0, -1.0], 4, np.random.default_rng(0)),
             "variances must be"),
            (lambda: wishart_inverse_moment(16, [math.nan], 4, np.random.default_rng(0)),
             "variances must be"),
            (lambda: energy_efficiency(1.0, [-5.0, 6.0], 0.0, 200, 20), "p_s must be"),
            (lambda: energy_efficiency(1.0, [math.nan, 1.0], 0.0, 200, 20),
             "p_s must be")):
        with pytest.raises(ValueError, match=f"^{prefix}"):
            call()


@pytest.mark.parametrize("variances", [1.0, [[1.0, 2.0]], []], ids=["scalar", "2-D", "empty"])
def test_wishart_variances_must_be_a_non_empty_vector(variances):
    with pytest.raises(ValueError, match="^variances must be a non-empty 1-D vector"):
        wishart_inverse_moment(16, variances, 4, np.random.default_rng(0))


# override values at the edges, K = 10 in every preset
EDGE_VALUES = ("0", "1", "10", "11", "-1", "1e300", "2.5", "nan", "inf")


def run_at_edge(preset: str, key: str, value: str) -> None:
    """main returns 0 with every CSV cell finite, or 2 with exactly one JSON
    line on stderr and no output directory."""
    overrides = {key: value}
    if preset == "custom" and key != "sweep":
        overrides = {"sweep": "sigma_li_db:-10:10:3", **overrides}
    argv = ["run", "--preset", preset, "--trials", "2"]
    for item in overrides.items():
        argv += ["--set", "=".join(item)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--out", out])
        if code == 0:
            tables = [f for f in os.listdir(out) if f.endswith(".csv")]
            assert tables
            for table in tables:
                with open(os.path.join(out, table)) as fh:
                    cells = [c for line in fh.read().splitlines()[1:] for c in line.split(",")]
                assert cells and all(math.isfinite(float(c)) for c in cells), table
        else:
            assert code == 2
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert set(json.loads(lines[0])) == {"error", "type"}
            assert not os.path.exists(out)


@st.composite
def edge_runs(draw, presets):
    """(preset, override key, edge value): any config key or one of its extras."""
    preset = draw(st.sampled_from(presets))
    keys = sorted(cli._KEY_FIELDS) + list(cli._PRESETS[preset].extras)
    return preset, draw(st.sampled_from(keys)), draw(st.sampled_from(EDGE_VALUES))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edge_runs(sorted(set(cli._PRESETS) - {"fig9"})))
def test_cli_runs_or_refuses_at_scalar_edges(run):
    run_at_edge(*run)


# fig9 runs 26 allocations, so it gets a few examples of its own
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(edge_runs(["fig9"]))
def test_fig9_runs_or_refuses_at_scalar_edges(run):
    run_at_edge(*run)
