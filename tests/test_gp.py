"""Tests for the geometric-program solver: phase 1 and the primal-dual path."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrelay
from fdrelay import gp, powalloc, snapshot_profile
from fdrelay.gp import (
    GeometricProgram,
    Posynomial,
    _Centering,
    _cholesky,
    solve_gp,
)
from fdrelay.model import SystemConfig
from gp_oracle import brute_force_gp
from test_boundary import BAD_STARTS, refusal_test


def mono(c, *exps):
    return Posynomial(coeffs=[c], exponents=[list(exps)])


def box(n, lo=1e-3, hi=1e3):
    return np.full(n, lo), np.full(n, hi)


def am_gm_program():
    """minimize x + y subject to 4/(x y) <= 1 (optimum x = y = 2), spelled as
    in _COLD_START."""
    return GeometricProgram(Posynomial([1.0, 1.0], [[1, 0], [0, 1]]),
                            (Posynomial([4.0], [[-1, -1]]),), (),
                            np.full(2, 1e-3), np.full(2, 1e3))


_COLD_START = """
import json, sys, tempfile
import numpy as np
import fdrelay, fdrelay.cli
from fdrelay import SystemConfig, make_profile
from fdrelay.gp import GeometricProgram, Posynomial, solve_gp
cfg = SystemConfig(K=2, Nrx=8, Ntx=8, tau=4)
profile = make_profile([1.0, 0.5], [0.8, 1.2], cfg.tau, cfg.Pp)
fdrelay.simulate([(cfg, profile)], "zf", 20, np.random.default_rng(1))
fdrelay.rate_zf(cfg, profile)
with tempfile.TemporaryDirectory() as out:
    assert fdrelay.cli.main(["run", "--preset", "fig6", "--out", out]) == 0
res = solve_gp(GeometricProgram(Posynomial([1.0, 1.0], [[1, 0], [0, 1]]),
                                (Posynomial([4.0], [[-1, -1]]),), (),
                                np.full(2, 1e-3), np.full(2, 1e3)))
alloc = fdrelay.optimize_powers(cfg, profile, "zf", 2.0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"scipy": loaded, "x": res.x.tobytes().hex(), "value": res.value.hex(),
                  "status": res.status, "iterations": res.iterations,
                  "p_s": alloc.p_s.tobytes().hex(), "p_r": alloc.p_r.hex()}))
"""


def test_no_run_loads_scipy():
    # a fresh interpreter: the closed forms, Monte Carlo, a CLI preset, a GP
    # solve and a power allocation run without scipy, and the solve and the
    # allocation match this process bit for bit
    env = dict(os.environ, PYTHONPATH=str(Path(fdrelay.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    want = solve_gp(am_gm_program())
    cfg = SystemConfig(K=2, Nrx=8, Ntx=8, tau=4)
    alloc = powalloc.optimize_powers(
        cfg, fdrelay.make_profile([1.0, 0.5], [0.8, 1.2], cfg.tau, cfg.Pp), "zf", 2.0)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "scipy": [], "x": want.x.tobytes().hex(), "value": want.value.hex(),
        "status": want.status, "iterations": want.iterations,
        "p_s": alloc.p_s.tobytes().hex(), "p_r": alloc.p_r.hex()}


def test_monomial_equality_is_eliminated():
    # minimize x + y subject to x y = 1: optimum x = y = 1
    lo, hi = box(2)
    obj = Posynomial(coeffs=[1.0, 1.0], exponents=[[1, 0], [0, 1]])
    prog = GeometricProgram(obj, (), (mono(1.0, 1.0, 1.0),), lo, hi)
    res = solve_gp(prog)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=1e-6)
    assert res.x[0] * res.x[1] == pytest.approx(1.0, rel=1e-9)


def test_fully_pinned_variables():
    # 0.5 x = 1 fixes x = 2 with nothing left to optimize
    lo, hi = box(1, 0.1, 10.0)
    prog = GeometricProgram(mono(1.0, 1.0), (), (mono(0.5, 1.0),), lo, hi)
    res = solve_gp(prog)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, rel=1e-12)
    assert res.iterations == 0


def test_fully_pinned_variables_outside_the_box():
    # 0.5 x = 1 fixes x = 2 above the upper bound 1.5: nothing to solve
    lo, hi = box(1, 0.1, 1.5)
    prog = GeometricProgram(mono(1.0, 1.0), (), (mono(0.5, 1.0),), lo, hi)
    res = solve_gp(prog)
    assert res.status == "infeasible"
    assert np.all(np.isnan(res.x)) and math.isnan(res.value)
    assert res.iterations == 0 and res.phase1_iterations == 0


def test_objective_flat_on_the_free_variables():
    # 0.5 x = 1 fixes the objective x = 2; y stays free under 2 / y <= 1, so
    # the objective gradient vanishes in the free coordinates
    lo, hi = box(2, 0.1, 10.0)
    prog = GeometricProgram(mono(1.0, 1.0, 0.0), (mono(2.0, 0.0, -1.0),),
                            (mono(0.5, 1.0, 0.0),), lo, hi)
    res = solve_gp(prog)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, rel=1e-12)
    assert 2.0 < res.x[1] < 10.0


def test_inconsistent_equalities_are_infeasible():
    lo, hi = box(1, 0.1, 10.0)
    prog = GeometricProgram(
        mono(1.0, 1.0), (), (mono(0.5, 1.0), mono(1.0 / 3.0, 1.0)), lo, hi
    )
    res = solve_gp(prog)
    assert res.status == "infeasible"
    assert np.all(np.isnan(res.x)) and math.isnan(res.value)


def test_box_infeasible_inequality():
    # x >= 10 cannot hold under the upper bound 5
    prog = GeometricProgram(
        mono(1.0, 1.0), (mono(10.0, -1.0),), (), np.array([0.1]), np.array([5.0])
    )
    res = solve_gp(prog)
    assert res.status == "infeasible"


def test_phase_one_steps_are_reported_apart_from_main_path():
    lo, hi = np.array([0.1]), np.array([5.0])
    # cold start: the box midpoint sqrt(0.5) violates 2/x <= 1, so phase 1 runs
    cold = solve_gp(GeometricProgram(mono(1.0, 1.0), (mono(2.0, -1.0),), (), lo, hi))
    assert cold.status == "optimal" and cold.x[0] == pytest.approx(2.0, rel=1e-6)
    assert cold.phase1_iterations > 0 and cold.iterations > 0
    # a strictly feasible midpoint needs no phase-1 step
    warm = solve_gp(GeometricProgram(mono(1.0, 1.0), (mono(0.1, -1.0),), (), lo, hi))
    assert warm.status == "optimal" and warm.phase1_iterations == 0
    # an infeasible program still reports the phase-1 work that proved it
    bad = solve_gp(GeometricProgram(mono(1.0, 1.0), (mono(10.0, -1.0),), (), lo, hi))
    assert bad.status == "infeasible"
    assert bad.phase1_iterations > 0 and bad.iterations == 0


def test_constant_constraint_above_one_is_infeasible():
    prog = GeometricProgram(
        mono(1.0, 1.0), (mono(2.0, 0.0),), (), np.array([0.1]), np.array([5.0])
    )
    assert solve_gp(prog).status == "infeasible"


@given(a=st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_floor_constraint_binds_exactly(a):
    # minimize x subject to a/x <= 1: optimum is x = a for any a in the box
    prog = GeometricProgram(
        mono(1.0, 1.0), (mono(a, -1.0),), (), np.array([1e-2]), np.array([1e3])
    )
    res = solve_gp(prog)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(a, rel=1e-6)


def test_solver_beats_refined_grid_on_random_programs():
    rng = np.random.default_rng(31)
    for trial in range(6):
        n = int(rng.integers(2, 4))
        lo, hi = box(n, 0.05, 50.0)
        obj = Posynomial(
            coeffs=rng.uniform(0.5, 2.0, size=3),
            exponents=rng.uniform(-1.5, 1.5, size=(3, n)),
        )
        cons = []
        mid = np.sqrt(lo * hi)
        for _ in range(2):
            p = Posynomial(
                coeffs=rng.uniform(0.5, 2.0, size=2),
                exponents=rng.uniform(-1.5, 1.5, size=(2, n)),
            )
            # rescale so the box midpoint sits strictly inside the feasible set
            cons.append(Posynomial(coeffs=p.coeffs / (2.0 * p.value(mid)),
                                   exponents=p.exponents))
        prog = GeometricProgram(obj, tuple(cons), (), lo, hi)
        res = solve_gp(prog)
        assert res.status == "optimal", f"trial {trial}"
        for p in cons:
            assert p.value(res.x) <= 1.0 + 1e-6
        # coarse grid, then a zoomed grid around the solver's answer
        coarse = brute_force_gp(prog, points_per_dim=25)
        zoom = GeometricProgram(
            obj, tuple(cons), (),
            np.maximum(lo, res.x / 1.5), np.minimum(hi, res.x * 1.5),
        )
        fine = brute_force_gp(zoom, points_per_dim=25)
        best_grid = min(coarse.value, fine.value)
        assert res.value <= best_grid * (1.0 + 1e-6), f"trial {trial}"
        assert res.value >= best_grid * (1.0 - 0.15), f"trial {trial}"


def test_grid_refinement_approaches_known_optimum():
    lo, hi = box(2, 0.5, 8.0)
    obj = Posynomial(coeffs=[1.0, 1.0], exponents=[[1, 0], [0, 1]])
    prog = GeometricProgram(obj, (mono(4.0, -1.0, -1.0),), (), lo, hi)
    coarse = brute_force_gp(prog, points_per_dim=11)
    fine = brute_force_gp(prog, points_per_dim=81)
    assert fine.value == pytest.approx(4.0, rel=0.02)
    assert coarse.value == pytest.approx(4.0, rel=0.2)
    assert fine.value <= coarse.value + 1e-12


def test_brute_force_guards():
    lo, hi = box(5)
    obj = Posynomial(coeffs=[1.0], exponents=[[1, 0, 0, 0, 0]])
    prog = GeometricProgram(obj, (), (), lo, hi)
    with pytest.raises(ValueError, match="^grid search is limited to 4 variables$"):
        brute_force_gp(prog)
    lo, hi = box(1)
    prog = GeometricProgram(mono(1.0, 1.0), (), (), lo, hi)
    with pytest.raises(ValueError, match="^need at least 2 points per dimension$"):
        brute_force_gp(prog, points_per_dim=1)
    # infeasible grid: x >= 10 with upper bound 5
    prog = GeometricProgram(
        mono(1.0, 1.0), (mono(10.0, -1.0),), (), np.array([0.1]), np.array([5.0])
    )
    assert brute_force_gp(prog).status == "infeasible"


def test_posynomial_value_and_validation():
    p = Posynomial(coeffs=[2.0, 3.0], exponents=[[1.0, -1.0], [0.5, 2.0]])
    x = np.array([4.0, 0.5])
    want = 2.0 * 4.0 / 0.5 + 3.0 * 2.0 * 0.25
    assert p.value(x) == pytest.approx(want, rel=1e-12)
    assert p.n_vars == 2 and not p.is_monomial


def _lse_reference(a, b, y):
    z = a @ y + b
    p = np.exp(z - z.max())
    s = p.sum()
    p /= s
    g = a.T @ p
    return z.max() + math.log(s), g, (a.T * p) @ a - np.outer(g, g)


def _centering_reference(obj, cons, y, t):
    """obj + barrier / t summed one constraint at a time."""
    val, grad, hess = _lse_reference(*obj, y)
    for a, b in cons:
        v, g, h = _lse_reference(a, b, y)
        val -= math.log(-v) / t
        grad = grad + g / (-v) / t
        hess = hess + (h / (-v) + np.outer(g, g) / (v * v)) / t
    return val, grad, hess


def _barrier(block, y, t):
    """Value, gradient and Hessian of obj(y) - sum_i log(-LSE_i(y)) / t.

    With d_i = 1 / (-LSE_i) the stacked block's segment weights are
    w = (1, d / t) and c = (-1, (d^2 - d) / t).
    """
    v, p, g = _state(block, y)
    d = 1.0 / -v[1:]
    w = np.concatenate([[1.0], d / t])
    hess = block._hessian(p, g, w, np.concatenate([[-1.0], (d * d - d) / t]))
    return float(v[0] - np.log(-v[1:]).sum() / t), g.T @ w, hess


def _state(block, y):
    """LSE values, softmax weights and segment gradients of block at y."""
    v, p = block._softmax(y)
    return v, p, block._gradients(p)


def _random_centering(rng, n, slack):
    """A block mixing multi-term and one-term segments, strictly feasible at y.

    With slack, the last variable is the phase-1 slack: a -1 column on every
    constraint row and the one-row objective s, as phase 1 builds it.
    """
    sizes = np.concatenate([rng.integers(2, 5, size=3), np.ones(4, dtype=int)])
    rng.shuffle(sizes)
    con_a = rng.uniform(-1.5, 1.5, size=(int(sizes.sum()), n))
    con_b = rng.uniform(-1.0, 1.0, size=con_a.shape[0])
    if slack:
        con_a[:, -1] = -1.0
        obj_a, obj_b = np.eye(1, n, n - 1), np.zeros(1)
    else:
        obj_a = rng.uniform(-1.5, 1.5, size=(3, n))
        obj_b = rng.uniform(-1.0, 1.0, size=3)
    y = rng.uniform(-0.5, 0.5, size=n)
    # shift each constraint so that LSE_i(y) = -margin_i, margins spread widely
    starts = np.cumsum(sizes) - sizes
    for i, (lo, k) in enumerate(zip(starts, sizes)):
        v, _, _ = _lse_reference(con_a[lo:lo + k], con_b[lo:lo + k], y)
        con_b[lo:lo + k] -= v + 10.0 ** rng.uniform(-2, 0.5)
    cons = [(con_a[lo:lo + k], con_b[lo:lo + k]) for lo, k in zip(starts, sizes)]
    block = _Centering(np.vstack([obj_a, con_a]), np.concatenate([obj_b, con_b]),
                       np.concatenate([[obj_b.size], sizes]))
    return block, (obj_a, obj_b), cons, y


@pytest.mark.parametrize("slack", [False, True])
def test_stacked_block_matches_per_constraint_sum(slack):
    rng = np.random.default_rng(7 + slack)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        block, obj, cons, y = _random_centering(rng, n, slack)
        assert block.m == len(cons)
        for t in (1.0, 10.0, 1e4):
            want = _centering_reference(obj, cons, y, t)
            val, grad, hess = _barrier(block, y, t)
            assert val == pytest.approx(want[0], rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad, want[1], rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(hess, want[2], rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("slack", [False, True])
def test_stacked_block_derivatives_match_central_differences(slack):
    rng = np.random.default_rng(11 + slack)
    step = 1e-5
    for _ in range(5):
        n = int(rng.integers(2, 5))
        block, _, _, y = _random_centering(rng, n, slack)
        t = 10.0
        _, grad, hess = _barrier(block, y, t)
        fd_grad = np.empty(n)
        fd_hess = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = step
            fd_grad[k] = (_barrier(block, y + e, t)[0]
                          - _barrier(block, y - e, t)[0]) / (2 * step)
            fd_hess[:, k] = (_barrier(block, y + e, t)[1]
                             - _barrier(block, y - e, t)[1]) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(hess))))
        np.testing.assert_allclose(fd_grad, grad, rtol=1e-6, atol=1e-6 * scale)
        np.testing.assert_allclose(fd_hess, hess, rtol=1e-5, atol=1e-5 * scale)


@pytest.mark.parametrize("slack", [False, True])
def test_first_weight_minimizes_the_centrality_residual(slack):
    rng = np.random.default_rng(23 + slack)
    seen_above_one = False
    for _ in range(8):
        n = int(rng.integers(2, 5))
        block, obj, cons, y = _random_centering(rng, n, slack)
        _, g0, _ = _lse_reference(*obj, y)
        g_phi = np.zeros(n)
        h_phi = np.zeros((n, n))
        for a, b in cons:
            v, g, h = _lse_reference(a, b, y)
            g_phi += g / -v
            h_phi += h / -v + np.outer(g, g) / (v * v)
        ratio = -(g0 @ np.linalg.solve(h_phi, g_phi)) / (g0 @ np.linalg.solve(h_phi, g0))
        t0 = block.first_weight(*_state(block, y))
        assert t0 == pytest.approx(max(1.0, ratio), rel=1e-9)
        seen_above_one |= ratio > 1.0
    assert seen_above_one


def test_stacked_block_outside_the_feasible_set():
    rng = np.random.default_rng(3)
    block, _, _, y = _random_centering(rng, 3, slack=False)
    # move one one-term (box-like) segment to LSE = +0.1 at y
    i = int(np.flatnonzero(np.diff(np.append(block.starts, block.b.size)) == 1)[-1])
    row = block.starts[i]
    block.b[row] -= block.lse(y)[i] - 0.1
    assert block.lse(y)[i] == pytest.approx(0.1)
    with pytest.raises(FloatingPointError):
        block.first_weight(*_state(block, y))


def test_newton_rejects_a_non_finite_hessian():
    h = np.eye(2)
    h[1, 0] = np.nan
    with pytest.raises(ValueError, match="^Newton system must not contain infs or NaNs$"):
        _cholesky(h)


def test_newton_rejects_a_non_finite_right_hand_side():
    solve = _cholesky(np.eye(2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(np.array([1.0, bad]))


def test_newton_ridges_an_indefinite_hessian_to_a_finite_step():
    # diag(1, -2e-3) has no Cholesky factor; the ridge grows tenfold from
    # 1e-12 until h + ridge I is positive definite, so the step is finite
    # and a descent direction for the right-hand side
    h = np.diag([1.0, -2e-3])
    rhs = np.array([1.0, 1.0])
    step = _cholesky(h)(rhs)
    assert np.all(np.isfinite(step))
    assert rhs @ step > 0.0 and step[1] > 0.0
    # the first ridge that factors is 1e-2: h + 1e-2 I = diag(1.01, 8e-3)
    np.testing.assert_allclose(step, [1.0 / 1.01, 1.0 / 8e-3], rtol=1e-12)


def test_newton_ridges_a_singular_hessian_to_a_finite_step():
    # rank-1 Hessian: Cholesky fails, the ridged system still gives the step
    # along y0 and leaves the flat direction y1 alone
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    step = _cholesky(h)(h @ np.array([1.0, 0.5]))
    assert np.all(np.isfinite(step))
    assert abs(step[0] - 1.0) < 1e-4 and step[1] == 0.0


def _fig9_round_programs(monkeypatch, scheme, s0):
    """The GP of every round of one fig9-setting allocation, in order."""
    cfg = SystemConfig(K=10, Nrx=200, Ntx=200, T=200, tau=20, Pp=10.0,
                       sigma_li_sq=10.0)
    progs = []
    real = powalloc.solve_gp

    def record(prog, *args, **kwargs):
        progs.append(prog)
        return real(prog, *args, **kwargs)

    monkeypatch.setattr(powalloc, "solve_gp", record)
    powalloc.optimize_powers(cfg, snapshot_profile(cfg.tau, cfg.Pp), scheme,
                             s0, p0=10.0, p1=100.0)
    return progs


def test_warm_start_from_previous_round_matches_cold_solve(monkeypatch):
    # MR at 4 bit/s/Hz runs the most rounds of the fig9 targets (26 warm-up
    # and measured GPs after the first). Entries far below the others (a
    # pair's power near 1e-5 of the total) are fixed only in absolute terms
    # by the duality-gap tolerance, so x is compared in norm.
    progs = _fig9_round_programs(monkeypatch, "mr", 4.0)
    assert len(progs) > 10
    prev = solve_gp(progs[0]).x
    cold_p1 = warm_p1 = cold_main = warm_main = 0
    for prog in progs[1:]:
        cold = solve_gp(prog)
        warm = solve_gp(prog, start=prev)
        assert warm.status == cold.status == "optimal"
        assert np.linalg.norm(warm.x - cold.x) <= 1e-6 * np.linalg.norm(cold.x)
        assert warm.value == pytest.approx(cold.value, rel=1e-8)
        cold_p1 += cold.phase1_iterations
        warm_p1 += warm.phase1_iterations
        cold_main += cold.iterations
        warm_main += warm.iterations
        prev = cold.x
    assert warm_p1 < cold_p1
    # duals sized by the first weight start a warm solve near the end of the
    # path, so it takes fewer main-path steps than a cold one
    assert warm_main < cold_main


def test_allocator_rounds_stack_their_rows_once(monkeypatch):
    # the rounds share one objective and one inequality tuple, so every
    # round reuses the rows stacked for the first; another program restacks,
    # and stacking the first round again gives equal rows
    progs = _fig9_round_programs(monkeypatch, "mr", 4.0)

    def rows(prog):
        return gp._stacked_rows(prog.objective, prog.inequalities)

    first = rows(progs[0])
    assert all(rows(prog) is first for prog in progs[1:])
    assert rows(am_gm_program())[0].shape == (2 + 1 + 4, 2)
    again = rows(progs[0])
    assert again is not first
    for want, got in zip(first, again):
        np.testing.assert_array_equal(got, want)


def test_programs_compare_and_hash_by_identity():
    # the generated __eq__ and __hash__ ran over ndarray fields: == and `in`
    # raised on equal fields ("truth value ... is ambiguous"), hash TypeError
    p, q = (Posynomial([1.0, 2.0], [[1, 0], [0, 1]]) for _ in range(2))
    prog, other = am_gm_program(), am_gm_program()
    for x, y in ((p, q), (prog, other)):
        assert x == x and x != y
        assert x in [y, x] and x not in [y]
        assert hash(x) == hash(x) and len({x, y, x}) == 2


def test_warm_chain_takes_few_main_path_steps(monkeypatch):
    # the 27 GPs of MR at 4 bit/s/Hz, each started from the previous optimum
    # as the allocator does
    steps = []
    prev = None
    for prog in _fig9_round_programs(monkeypatch, "mr", 4.0):
        res = solve_gp(prog, start=prev)
        assert res.status == "optimal" and res.kkt_residual <= 10.0 * gp.TOL
        steps.append(res.iterations)
        prev = res.x
    assert len(steps) == 27
    assert max(steps) <= 20 and sum(steps) <= 400


def test_phase_one_cost_on_cold_starts(monkeypatch):
    # the 27 GPs of MR at 4 bit/s/Hz, each from the box midpoint: phase 1
    # stops at its first strictly feasible iterate
    steps = [solve_gp(prog).phase1_iterations
             for prog in _fig9_round_programs(monkeypatch, "mr", 4.0)]
    assert len(steps) == 27
    assert max(steps) <= 10 and sum(steps) <= 200


def test_step_cap_is_not_reported_optimal(monkeypatch):
    first, second = _fig9_round_programs(monkeypatch, "mr", 4.0)[:2]
    prev = solve_gp(first).x
    monkeypatch.setattr(gp, "NEWTON_CAP", 2)
    # the previous optimum is strictly feasible here, so the main path is cut
    res = solve_gp(second, start=prev)
    assert res.status == "max_iter" and res.iterations == 2
    assert res.phase1_iterations == 0
    assert res.kkt_residual > 10.0 * gp.TOL
    # from the box midpoint, phase 1 is cut before it finds a feasible point
    res = solve_gp(first)
    assert res.status == "max_iter" and res.phase1_iterations == 2
    assert res.iterations == 0
    assert np.all(np.isnan(res.x)) and math.isnan(res.value)


def test_warm_start_still_certifies_infeasibility():
    # x >= 10 cannot hold under the upper bound 5, from any start
    prog = GeometricProgram(
        mono(1.0, 1.0), (mono(10.0, -1.0),), (), np.array([0.1]), np.array([5.0])
    )
    for start in ([1.0], [5.0], [20.0]):
        res = solve_gp(prog, start=start)
        assert res.status == "infeasible" and res.phase1_iterations > 0


@pytest.mark.parametrize("start", [
    [1e4, 1e-5],    # outside the box
    [1e3, 1e3],     # on both upper box sides
    [1e-3, 5.0],    # on a lower box side, violating the inequality
    [2.0, 2.0],     # on the inequality boundary, at the optimum itself
])
def test_warm_start_off_the_interior_reaches_the_cold_optimum(start):
    lo, hi = box(2)
    obj = Posynomial(coeffs=[1.0, 1.0], exponents=[[1, 0], [0, 1]])
    prog = GeometricProgram(obj, (mono(4.0, -1.0, -1.0),), (), lo, hi)
    cold = solve_gp(prog)
    warm = solve_gp(prog, start=start)
    assert warm.status == cold.status == "optimal"
    np.testing.assert_allclose(warm.x, cold.x, rtol=1e-6)
    assert warm.value == pytest.approx(cold.value, rel=1e-9)


def test_warm_start_off_the_equality_is_projected_onto_it():
    lo, hi = box(2)
    obj = Posynomial(coeffs=[1.0, 1.0], exponents=[[1, 0], [0, 1]])
    prog = GeometricProgram(obj, (), (mono(1.0, 1.0, 1.0),), lo, hi)
    res = solve_gp(prog, start=[50.0, 3.0])  # x y = 150, not 1
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=1e-6)


test_bad_start_is_rejected = refusal_test(BAD_STARTS, [f"start{i}" for i in range(len(BAD_STARTS))])
