"""Degenerate arguments at the library and CLI boundary.

Every int- or float-annotated parameter of the public API, and of the
callables that stay importable from their modules, fails at the call with a
ValueError that names it (`EDGES`); every other refusal of the library's
arguments is a row of `LIBRARY_REFUSALS` and raises its whole message. Both
tables change one argument of `valid_call`, which holds one valid call of
every public callable. Every float-annotated parameter, taken to a huge or a
tiny finite magnitude, gives finite numbers, a refusal that names it or one
of two documented non-finite answers. Every preset either runs to finite
cells or exits 2 with one JSON line and no output.
"""
import contextlib
import copy
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
    make_profile,
    rate_zf,
    required_power,
    simulate,
)
from fdrelay.gp import GeometricProgram, Posynomial
from fdrelay.powalloc import GAMMA_FLOOR
from cli_digest import EDGE_VALUES
from test_api import public_callables

CALLABLES = public_callables()

CFG = SystemConfig(K=4, Nrx=32, Ntx=32, tau=8)
PROF = make_profile(np.ones(4), np.ones(4), CFG.tau, CFG.Pp)
ONES, HALF = np.ones(2), np.full(2, 0.5)
LOWER, UPPER = np.full(2, 1e-3), np.full(2, 1e3)
# minimize x + y subject to 4/(x y) <= 1 on the box [1e-3, 1e3]^2
AM_GM = dict(objective=Posynomial([1.0, 1.0], [[1, 0], [0, 1]]),
             inequalities=(Posynomial([4.0], [[-1, -1]]),), equalities=(),
             lower=LOWER, upper=UPPER)


def valid_calls() -> dict:
    """{name: keyword arguments of one valid call} for every public callable."""
    rng = np.random.default_rng(0)
    sim = dict(cfg=CFG, profile=PROF, scheme="zf", trials=4, rng=rng)
    return {
        "DropGeometry": {},
        "GeometricProgram": AM_GM,
        "LargeScaleProfile": dict(beta_sr=ONES, beta_rd=ONES, sigma_sr_sq=HALF,
                                  sigma_rd_sq=HALF),
        "Posynomial": dict(coeffs=[1.0, 2.0], exponents=[[1.0, -1.0], [0.5, 2.0]]),
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
        "rate_mr": dict(cfg=CFG, profile=PROF),
        "rate_zf": dict(cfg=CFG, profile=PROF),
        "required_power": dict(target_rate_per_pair=1.0, scheme="zf", cfg=CFG,
                               profile=PROF),
        "simulate": dict(points=[(CFG, PROF)], scheme="zf", trials=4, rng=rng),
        "sinr_coefficients": dict(cfg=CFG, profile=PROF, scheme="zf"),
        "snapshot_profile": dict(tau=20, Pp=10.0),
        "solve_gp": dict(prog=GeometricProgram(**AM_GM)),
        "sum_se": dict(r_e2e=[1.0], T=200, tau=20),
        "wishart_inverse_moment": dict(n_ant=16, variances=[1.0, 2.0], trials=4, rng=rng),
    }


def valid_call(name: str) -> dict:
    """Keyword arguments of one valid call of the public callable name."""
    return valid_calls()[name]


NAN, INF = math.nan, math.inf
COUNT = (NAN, INF, -1, 0, 2.5)  # an integer >= 1 (trials >= 2 for a stderr)
# 10**400 is finite as an int but not as a float64
REAL = (NAN, INF, -1.0, 10**400)  # finite and >= 0
POSITIVE = (NAN, INF, -1.0, 0.0, 10**400)  # finite and > 0

# (callable, argument): the values it refuses; the ValueError's message
# starts with the argument's name
EDGES = {
    **{("DropGeometry", f): POSITIVE for f in ("disk_diameter", "path_exponent",
                                                "ref_distance")},
    ("DropGeometry", "shadow_sigma_db"): REAL,
    **{("SystemConfig", f): COUNT + (10**400,) for f in ("K", "Nrx", "Ntx", "T", "tau")},
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


def scalar_arguments(types=(int, float)):
    """(callable, argument) for every parameter of an exported or module-held
    callable annotated with one of types (an Optional counts), the fields of
    SystemConfig and DropGeometry among them."""
    found = set()
    for name, obj in CALLABLES.items():
        for param in inspect.signature(obj, eval_str=True).parameters.values():
            ann = param.annotation
            if set(types) & ({ann} | set(typing.get_args(ann))):
                found.add((name, param.name))
    return found


def numbers(result) -> np.ndarray:
    """Every number a result holds, its dataclass fields and tuple or list
    items unpacked; a string (a scheme, a status) holds none."""
    if isinstance(result, str):
        return np.zeros(0)
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return np.concatenate([numbers(x) for x in result] + [np.zeros(0)])
    return np.ravel(np.asarray(result, float))


def vectors(beta_sr, beta_rd, sigma_sr_sq, sigma_rd_sq) -> dict:
    """All four LargeScaleProfile vectors, as the overrides of one row."""
    return dict(beta_sr=beta_sr, beta_rd=beta_rd, sigma_sr_sq=sigma_sr_sq,
                sigma_rd_sq=sigma_rd_sq)


BETA = "beta must be finite and >= 0"
SHAPE = "profile vectors must be 1-D of one length K >= 1"
GAINS = "large-scale gains must be positive and finite"
NO_ESTIMATE = "{} must be positive, or there is no channel estimate"
EXCEEDS = ("sigma_{0}_sq must not exceed beta_{0}: an estimate cannot carry more power "
           "than its channel")
UNDERFLOW = "{} must be positive: {} underflows it to 0 at tau*Pp = {}"
ZF = "zero forcing needs Nrx > K and Ntx > K"
S0_FLOOR = (CFG.T - CFG.tau) / CFG.T * CFG.K * math.log2(1.0 + GAMMA_FLOOR)
BOX = "need 0 < lower < upper < inf"
START = "start must be a finite positive point of length n_vars"
PROF2 = make_profile(ONES, ONES, CFG.tau, CFG.Pp)
# tau*Pp = 200, and every gain of a drop near 1e-250: its variance underflows
UNDER_DROP = dict(geometry=DropGeometry(path_exponent=20, ref_distance=1e-10), tau=20, Pp=10.0)

# each profile breaks its rule and every rule after it, so the message pins
# which rule the constructor checks first
PROFILE_ORDER = [
    ("LargeScaleProfile", vectors(np.ones(3), [math.nan, 1.0], np.zeros(2), 2 * ONES), SHAPE),
    ("LargeScaleProfile", vectors(*[np.ones((2, 2))] * 2, *[np.zeros((2, 2))] * 2), SHAPE),
    ("LargeScaleProfile", vectors(ONES, [1.0, math.nan], np.zeros(2), 2 * ONES), GAINS),
    ("LargeScaleProfile", vectors(ONES, ONES, [0.0, 2.0], np.zeros(2)),
     NO_ESTIMATE.format("sigma_sr_sq")),
    ("LargeScaleProfile", vectors(ONES, ONES, [0.5, 2.0], np.zeros(2)), EXCEEDS.format("sr")),
    ("LargeScaleProfile", vectors(ONES, ONES, HALF, [0.0, 2.0]), NO_ESTIMATE.format("sigma_rd_sq")),
    ("LargeScaleProfile", vectors(ONES, ONES, HALF, [2.0, 0.5]), EXCEEDS.format("rd")),
]
NOT_A_VECTOR = [("wishart_inverse_moment", {"variances": v},
                 "variances must be a non-empty 1-D vector") for v in (1.0, [[1.0, 2.0]], [])]
BAD_STARTS = [("solve_gp", {"start": start}, START)
              for start in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], [0.0, 1.0], [-1.0, 1.0],
                            [math.nan, 1.0], [math.inf, 1.0])]

# (callable, overrides of its valid call, the whole message of the ValueError
# it raises); a check EDGES makes is no row, but each wording of the scalar
# rules is pinned whole once
LIBRARY_REFUSALS = [
    ("SystemConfig", {"K": True}, "K must be >= 1 and an integer"),  # a bool is no count
    # 2K <= tau < T holds at tau = 8.5, so only the count rule refuses it
    ("SystemConfig", {"tau": 8.5}, "tau must be >= 1 and an integer"),
    ("SystemConfig", {"Nrx": 10**400}, "Nrx must be finite as a float64"),
    ("SystemConfig", {"tau": 7}, "training length must satisfy 2K <= tau < T"),
    ("SystemConfig", {"T": 8}, "training length must satisfy 2K <= tau < T"),
    ("estimation_variance", {"beta": -1.0}, BETA),
    ("estimation_variance", {"beta": [1.0, math.nan]}, BETA),
    ("estimation_variance", {"beta": [1.0, -1.0]}, BETA),
    # the count rule, not tau * Pp, refuses a tau beyond the float range
    ("estimation_variance", {"tau": 10**400}, "tau must be finite as a float64"),
    *PROFILE_ORDER,
    # and each rule alone; a (2, 2) profile would give rate_mr a 2 x 2
    # "per-pair" array
    ("LargeScaleProfile", {"beta_sr": np.ones(3)}, SHAPE),
    ("LargeScaleProfile", vectors(*[np.ones((2, 2))] * 2, *[np.full((2, 2), 0.5)] * 2), SHAPE),
    ("LargeScaleProfile", vectors(*[np.zeros(0)] * 4), SHAPE),
    ("LargeScaleProfile", {"beta_rd": [1.0, math.inf]}, GAINS),
    ("LargeScaleProfile", {"sigma_sr_sq": [0.5, math.nan]}, NO_ESTIMATE.format("sigma_sr_sq")),
    ("LargeScaleProfile", {"sigma_rd_sq": [0.5, 0.0]}, NO_ESTIMATE.format("sigma_rd_sq")),
    ("LargeScaleProfile", {"sigma_sr_sq": [0.5, 2.0]}, EXCEEDS.format("sr")),
    ("LargeScaleProfile", {"sigma_rd_sq": [0.5, 1.5]}, EXCEEDS.format("rd")),
    ("make_profile", {"beta_sr": [1.0, 2.0]}, SHAPE),
    ("make_profile", {"beta_sr": [], "beta_rd": []}, SHAPE),
    ("make_profile", {"beta_sr": np.ones((2, 2)), "beta_rd": np.ones((2, 2))}, SHAPE),
    ("make_profile", {"beta_sr": [1.0, 0.0], "beta_rd": ONES}, GAINS),
    # estimation_variance refuses a NaN gain before the profile sees it
    ("make_profile", {"beta_sr": [math.nan, 1.0], "beta_rd": ONES}, BETA),
    ("make_profile", {"beta_sr": [1.0, 0.5], "beta_rd": [1.0, 2.0], "Pp": 0.0},
     NO_ESTIMATE.format("sigma_sr_sq")),
    # tau*Pp > 0, but beta^2 rounds to 0: the refusal names the gain
    ("make_profile", {"beta_sr": [1e-300, 1.0], "beta_rd": ONES},
     UNDERFLOW.format("sigma_sr_sq", "beta_sr = 1e-300", 8)),
    ("make_profile", {"beta_rd": [1e-200], "tau": 4, "Pp": 1e-100},
     UNDERFLOW.format("sigma_rd_sq", "beta_rd = 1e-200", "4e-100")),
    *[("draw_urban_profile", dict(UNDER_DROP, rng=rng),
       UNDERFLOW.format("sigma_sr_sq", "beta_sr = 3.55575e-253", 200))
      for rng in (np.random.default_rng(0), [np.random.default_rng(s) for s in (0, 1)])],
    ("draw_urban_profile", {"rng": []},
     "rng must be a Generator or a non-empty sequence of them"),
    ("sum_se", {"tau": 200}, "tau must be below T"),
    ("sum_se", {"mode": "tdd"}, "mode must be 'fd' or 'hd'"),
    ("rate_zf", {"mode": "simplex"}, "mode must be 'fd' or 'hd'"),
    ("sinr_coefficients", {"scheme": "svd"}, "unknown scheme 'svd'"),
    ("asymptotic_se", {"kappa": None}, "kappa must be finite and > 0"),
    ("asymptotic_se", {"case": "III"}, "case must be 'I' or 'II'"),
    ("asymptotic_se", {"case": "I", "scheme": "dpc"}, "unknown scheme 'dpc'"),
    ("required_power", {"target_rate_per_pair": -1.0, "scheme": "mr", "pilot_tracks_data": True},
     "target rate must be positive"),
    *[("simulate", {"points": [(CFG, PROF), (dataclasses.replace(CFG, **other), prof)]},
       "all points must share K, Nrx and Ntx")
      for other, prof in ((dict(K=2), PROF2), (dict(Nrx=30), PROF), (dict(Ntx=30), PROF))],
    ("simulate", {"points": []},
     "a batch needs one profile per config, one K and at least one point"),
    # a standard error needs a sample covariance, so two trials is the floor
    ("simulate", {"trials": 1}, "trials must be >= 2 and an integer"),
    ("wishart_inverse_moment", {"trials": 1}, "trials must be >= 2 and an integer"),
    *[row for n, m in ((2, 32), (32, 2), (4, 32), (32, 4))
      for cfg in [dataclasses.replace(CFG, Nrx=n, Ntx=m)]
      for row in (("simulate", {"points": [(cfg, PROF)]}, ZF),
                  ("convergence_probe", {"cfg": cfg, "kind": "decode"}, ZF))],
    ("convergence_probe", {"kind": "loop_power", "er": None}, "er must be finite and > 0"),
    ("convergence_probe", {"kind": "oracle"}, "unknown probe kind 'oracle'"),
    ("wishart_inverse_moment", {"n_ant": 2}, "need more antennas than columns"),
    *[("wishart_inverse_moment", {"variances": v}, "variances must be finite and > 0")
      for v in ([1.0, -1.0], [math.nan])],
    *NOT_A_VECTOR,
    # no loop interference makes c = 0, which no GP round can take
    ("optimize_powers", {"cfg": dataclasses.replace(CFG, sigma_li_sq=0.0)},
     "coefficient c must be positive and finite"),
    # every round holds each SINR at or above GAMMA_FLOOR
    *[("optimize_powers", {"scheme": scheme, "s0": s0},
       "s0 must be at least 5.53995e-09, the sum SE of every SINR at GAMMA_FLOOR = 1e-09")
      for scheme in ("zf", "mr") for s0 in (1e-9, 5e-9, math.nextafter(S0_FLOOR, 0.0))],
    *[("energy_efficiency", {"p_s": p_s, "p_r": 0.0}, "p_s must be finite and >= 0")
      for p_s in ([-5.0, 6.0], [math.nan, 1.0])],
    ("energy_efficiency", {"p_s": [0.0], "p_r": 0.0},
     "total transmit power must be finite and > 0"),
    ("energy_efficiency", {"T": 20}, "T must be >= 21 and an integer"),
    ("Posynomial", {"coeffs": [-1.0], "exponents": [[1.0]]},
     "coefficients must be positive and finite"),
    ("Posynomial", {"coeffs": [math.inf], "exponents": [[1.0]]},
     "coefficients must be positive and finite"),
    ("Posynomial", {"coeffs": [1.0, 2.0], "exponents": [[1.0]]},
     "need one exponent row per coefficient"),
    ("Posynomial", {"coeffs": np.zeros(0), "exponents": np.zeros((0, 2))},
     "a posynomial needs at least one term"),
    ("GeometricProgram", {"lower": LOWER[:1]}, "bounds must match the variable count"),
    ("GeometricProgram", {"lower": -LOWER}, BOX),
    ("GeometricProgram", {"lower": UPPER, "upper": LOWER}, BOX),
    # an empty box interior has no strictly feasible point; a pinned
    # variable is spelled as a monomial equality instead
    ("GeometricProgram", {"lower": [1e-3, 2.0], "upper": [1e3, 2.0]}, BOX),
    ("GeometricProgram", {"objective": Posynomial([1.0], [[1.0]]), "inequalities": (),
                          "lower": [2.0], "upper": [2.0]}, BOX),
    # an infinite or NaN bound has no box midpoint to start a solve from
    ("GeometricProgram", {"upper": [math.inf, 10.0]}, BOX),
    ("GeometricProgram", {"lower": [math.nan, 1e-3]}, BOX),
    ("GeometricProgram", {"upper": [10.0, math.nan]}, BOX),
    ("GeometricProgram", {"inequalities": (Posynomial([1.0], [[1.0]]),)},
     "posynomial variable counts disagree"),
    ("GeometricProgram", {"equalities": (AM_GM["objective"],)},
     "equality constraints must be monomials"),
    *BAD_STARTS,
]


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


def test_every_float_argument_runs_or_refuses_at_extreme_magnitudes():
    # finite but huge or tiny, with the rest of the call valid: a finite
    # result, a refusal that names the argument, an allocation that reports
    # "infeasible" with NaN powers and SINRs, or an unreachable required power
    failures = []
    for name, arg in sorted(scalar_arguments((float,))):
        for value in (1e-300, 1e-150, 1e150, 1e300):
            call = f"{name}({arg}={value:g})"
            try:
                result = CALLABLES[name](**dict(valid_call(name), **{arg: value}))
            except ValueError as exc:
                if not str(exc).startswith(MESSAGE_NAMES.get(arg, arg) + " "):
                    failures.append(f"{call}: {exc}")
                continue
            except Exception as exc:  # a RuntimeWarning among them
                failures.append(f"{call}: {type(exc).__name__} {exc}")
                continue
            if np.isfinite(numbers(result)).all():
                continue
            if name == "optimize_powers" and result.status == "infeasible":
                if np.isnan(numbers([result.p_s, result.p_r, result.gamma])).all():
                    continue
            elif name == "required_power" and result == math.inf:
                continue
            failures.append(f"{call} = {result!r}")
    assert not failures, "\n".join(failures)


def refusal_test(rows, ids):
    """A test of rows of LIBRARY_REFUSALS: each call raises a ValueError whose
    str is the row's whole message."""
    @pytest.mark.parametrize("name,overrides,message", rows, ids=ids)
    def test(name, overrides, message):
        # the overrides are copied, so a row's generators start afresh on each run
        with pytest.raises(ValueError) as exc:
            CALLABLES[name](**{**valid_call(name), **copy.deepcopy(overrides)})
        assert str(exc.value) == message
    return test


# three slices keep their test names: test_model.py runs PROFILE_ORDER and
# test_gp.py BAD_STARTS
SLICED = {id(row) for rows in (PROFILE_ORDER, NOT_A_VECTOR, BAD_STARTS) for row in rows}
UNSLICED = [row for row in LIBRARY_REFUSALS if id(row) not in SLICED]
test_a_refused_library_call_raises_its_whole_message = refusal_test(
    UNSLICED, [f"{name}-{'-'.join(overrides)}" for name, overrides, _ in UNSLICED])
test_wishart_variances_must_be_a_non_empty_vector = refusal_test(
    NOT_A_VECTOR, ["scalar", "2-D", "empty"])


def test_valid_edges_still_pass():
    # a public callable added later has to join valid_calls
    calls = valid_calls()
    assert set(calls) == set(CALLABLES)
    for name, kwargs in calls.items():
        CALLABLES[name](**kwargs)
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


def test_every_entry_point_refuses_a_profile_of_another_pair_count():
    # unchecked, a one-pair profile under K = 4 gives plausible numbers and a
    # three-pair one numpy broadcast errors; every public callable that takes
    # (cfg, profile) has a valid call, so a new one meets the check too
    entry_points = sorted(name for name, obj in CALLABLES.items()
                          if {"cfg", "profile"} <= set(inspect.signature(obj).parameters))
    for pairs in (3, 5):
        profile = make_profile(np.ones(pairs), np.ones(pairs), CFG.tau, CFG.Pp)
        for name in entry_points:
            # required_power runs in both pilot modes
            for extra in ({}, {"pilot_tracks_data": True}) if name == "required_power" else ({},):
                with pytest.raises(ValueError) as exc:
                    CALLABLES[name](**{**valid_call(name), "profile": profile, **extra})
                assert str(exc.value) == f"profile has {pairs} pairs but cfg.K is 4", name


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
