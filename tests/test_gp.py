"""Tests for the log-barrier geometric-program solver."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrelay.gp import (
    GeometricProgram,
    Posynomial,
    _Centering,
    brute_force_gp,
    dump_problem,
    solve_gp,
)


def mono(c, *exps):
    return Posynomial(coeffs=[c], exponents=[list(exps)])


def box(n, lo=1e-3, hi=1e3):
    return np.full(n, lo), np.full(n, hi)


def test_scalar_floor_is_tight():
    # minimize x subject to 1/x <= 1: optimum at x = 1
    lo, hi = box(1)
    prog = GeometricProgram(mono(1.0, 1.0), (mono(1.0, -1.0),), (), lo, hi)
    res = solve_gp(prog)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, rel=1e-6)
    assert res.value == pytest.approx(1.0, rel=1e-6)
    assert res.kkt_residual <= 1e-8


def test_am_gm_corner():
    # minimize x + y subject to 4/(x y) <= 1: optimum x = y = 2
    lo, hi = box(2)
    obj = Posynomial(coeffs=[1.0, 1.0], exponents=[[1, 0], [0, 1]])
    prog = GeometricProgram(obj, (mono(4.0, -1.0, -1.0),), (), lo, hi)
    res = solve_gp(prog)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [2.0, 2.0], rtol=1e-5)
    assert res.value == pytest.approx(4.0, rel=1e-6)


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
    with pytest.raises(ValueError):
        brute_force_gp(prog)
    lo, hi = box(1)
    prog = GeometricProgram(mono(1.0, 1.0), (), (), lo, hi)
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        Posynomial(coeffs=[-1.0], exponents=[[1.0]])
    with pytest.raises(ValueError):
        Posynomial(coeffs=[1.0, 2.0], exponents=[[1.0]])
    with pytest.raises(ValueError):
        Posynomial(coeffs=[np.inf], exponents=[[1.0]])
    with pytest.raises(ValueError):
        Posynomial(coeffs=np.zeros(0), exponents=np.zeros((0, 2)))


def test_program_validation():
    lo, hi = box(2)
    obj = Posynomial(coeffs=[1.0], exponents=[[1, 0]])
    with pytest.raises(ValueError):
        GeometricProgram(obj, (), (), lo[:1], hi)
    with pytest.raises(ValueError):
        GeometricProgram(obj, (), (), -lo, hi)
    with pytest.raises(ValueError):
        GeometricProgram(obj, (), (), hi, lo)
    with pytest.raises(ValueError):
        GeometricProgram(obj, (mono(1.0, 1.0),), (), lo, hi)  # wrong n_vars
    two_term = Posynomial(coeffs=[1.0, 1.0], exponents=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        GeometricProgram(obj, (), (two_term,), lo, hi)  # equality not monomial


def test_dump_problem_smoke():
    lo, hi = box(2)
    obj = Posynomial(coeffs=[1.0, 1.0], exponents=[[1, 0], [0, 1]])
    prog = GeometricProgram(
        obj, (mono(4.0, -1.0, -1.0),), (mono(1.0, 1.0, 1.0),), lo, hi
    )
    text = dump_problem(prog)
    assert "minimize" in text
    assert "x0" in text and "x1" in text


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
    block = _Centering(obj_a, obj_b, con_a, con_b, sizes)
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
            val, grad, hess = block.value_grad_hess(y, t)
            assert val == pytest.approx(want[0], rel=1e-12, abs=1e-12)
            assert block.value(y, t) == val
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
        _, grad, hess = block.value_grad_hess(y, t)
        fd_grad = np.empty(n)
        fd_hess = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = step
            fd_grad[k] = (block.value(y + e, t) - block.value(y - e, t)) / (2 * step)
            fd_hess[:, k] = (block.value_grad_hess(y + e, t)[1]
                             - block.value_grad_hess(y - e, t)[1]) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(hess))))
        np.testing.assert_allclose(fd_grad, grad, rtol=1e-6, atol=1e-6 * scale)
        np.testing.assert_allclose(fd_hess, hess, rtol=1e-5, atol=1e-5 * scale)


def test_stacked_block_outside_the_feasible_set():
    rng = np.random.default_rng(3)
    block, _, _, y = _random_centering(rng, 3, slack=False)
    # move one one-term (box-like) segment to LSE = +0.1 at y
    i = int(np.flatnonzero(np.diff(np.append(block.starts, block.b.size)) == 1)[-1])
    row = block.starts[i]
    block.b[row] -= block.lse(y)[i] - 0.1
    assert block.value(y, 1.0) == math.inf
    with pytest.raises(FloatingPointError):
        block.value_grad_hess(y, 1.0)
