"""A small geometric-program solver.

Problems are posynomial: minimize a posynomial subject to posynomial <= 1
inequalities, monomial == 1 equalities, and positive box bounds per variable.
In log variables y = log x every posynomial becomes log-sum-exp of affine
forms, so the program is convex and a standard barrier method applies:

  * the objective, every inequality and both sides of every box (one-term
    inequalities) are stacked into one exponent matrix A with offsets b and
    segment starts, so each log-sum-exp is one contiguous run of rows of
    A y + b. Values come from np.maximum.reduceat / np.add.reduceat, the
    per-segment gradients G from one reduceat of the softmax-weighted rows,
    and with d = 1 / (-LSE_i) the barrier gradient is G^T d and its Hessian
    A^T diag(p d[seg]) A + G^T diag(d^2 - d) G (p the within-segment softmax
    weights): one pass of array operations per Newton step or line-search
    probe, with no Python loop over constraints,
  * monomial equalities are affine in y and eliminated exactly through an
    SVD null-space parameterization y = y_p + N u,
  * a phase-1 program (minimize s with every constraint relaxed by s: the
    same stacked rows with a -1 slack column, which just shifts each
    log-sum-exp) produces a strictly feasible start or a certificate of
    infeasibility,
  * the main path follows t = 1, 10, 100, ... with damped Newton steps until
    the duality-gap bound m/t drops below the tolerance.

brute_force_gp solves the same problems by dense grid search over the box
(practical up to four variables) and is used as an independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

BARRIER_MU = 10.0
NEWTON_CAP = 200
FEAS_MARGIN = 1e-9


@dataclass(frozen=True)
class Posynomial:
    """sum_i coeffs[i] * prod_k x_k^exponents[i, k], coeffs > 0."""

    coeffs: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        e = np.atleast_2d(np.asarray(self.exponents, dtype=float))
        if c.ndim != 1 or e.shape[0] != c.size:
            raise ValueError("need one exponent row per coefficient")
        if c.size == 0:
            raise ValueError("a posynomial needs at least one term")
        if np.any(c <= 0) or not np.all(np.isfinite(c)) or not np.all(np.isfinite(e)):
            raise ValueError("coefficients must be positive and finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "exponents", e)
        c.setflags(write=False)
        e.setflags(write=False)

    @property
    def n_vars(self) -> int:
        return self.exponents.shape[1]

    @property
    def is_monomial(self) -> bool:
        return self.coeffs.size == 1

    def value(self, x) -> float:
        y = np.log(np.asarray(x, dtype=float))
        return float(np.sum(np.exp(self.exponents @ y + np.log(self.coeffs))))


@dataclass(frozen=True)
class GeometricProgram:
    objective: Posynomial
    inequalities: tuple
    equalities: tuple
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        n = self.objective.n_vars
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("bounds must match the variable count")
        if np.any(lo <= 0) or np.any(hi < lo):
            raise ValueError("need 0 < lower <= upper")
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        for p in self.inequalities + self.equalities:
            if p.n_vars != n:
                raise ValueError("posynomial variable counts disagree")
        for p in self.equalities:
            if not p.is_monomial:
                raise ValueError("equality constraints must be monomials")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        lo.setflags(write=False)
        hi.setflags(write=False)

    @property
    def n_vars(self) -> int:
        return self.objective.n_vars


@dataclass(frozen=True)
class GpResult:
    x: np.ndarray
    value: float
    status: str  # "optimal" | "infeasible" | "max_iter"
    kkt_residual: float
    iterations: int


class _Centering:
    """obj(y) + barrier(y) / t over one stacked block of log-sum-exp segments.

    The rows of A y + b are grouped into contiguous segments, each the log of
    one posynomial: segment 0 is the objective, segments 1..m are the
    constraints LSE_i(y) < 0 entering the barrier -sum_i log(-LSE_i(y)).
    """

    def __init__(self, obj_a, obj_b, con_a, con_b, con_sizes):
        sizes = np.concatenate([[obj_a.shape[0]], con_sizes]).astype(np.intp)
        self.a = np.vstack([obj_a, con_a])
        self.b = np.concatenate([obj_b, con_b])
        self.starts = np.cumsum(sizes) - sizes
        self.seg = np.repeat(np.arange(sizes.size), sizes)
        self.m = sizes.size - 1

    def _softmax(self, y):
        """Per-segment LSE values and within-segment softmax weights."""
        z = self.a @ y + self.b
        top = np.maximum.reduceat(z, self.starts)
        w = np.exp(z - top[self.seg])
        s = np.add.reduceat(w, self.starts)
        return top + np.log(s), w / s[self.seg]

    def lse(self, y: np.ndarray) -> np.ndarray:
        return self._softmax(y)[0]

    def value(self, y: np.ndarray, t: float) -> float:
        """Centering value, or inf when y is not strictly feasible."""
        v = self.lse(y)
        if np.any(v[1:] >= 0):
            return math.inf
        return float(v[0] - np.sum(np.log(-v[1:])) / t)

    def value_grad_hess(self, y: np.ndarray, t: float):
        """Value, gradient and Hessian of the centering function at y.

        With per-row softmax weights p, per-segment gradients G (rows g_i)
        and d_i = 1 / (-LSE_i), segment weights are w = (1, d / t) and
        c = (-1, (d^2 - d) / t): the gradient is G^T w and the Hessian is
        A^T diag(p w[seg]) A + G^T diag(c) G.
        """
        v, p = self._softmax(y)
        if np.any(v[1:] >= 0):
            raise FloatingPointError("barrier start left the feasible region")
        g = np.add.reduceat(p[:, None] * self.a, self.starts)
        d = 1.0 / -v[1:]
        w = np.concatenate([[1.0], d / t])
        c = np.concatenate([[-1.0], (d * d - d) / t])
        h = (self.a.T * (p * w[self.seg])) @ self.a + (g.T * c) @ g
        return float(v[0] - np.sum(np.log(-v[1:])) / t), g.T @ w, h


def _log_constraints(prog: GeometricProgram):
    """All inequalities and box sides as stacked rows: LSE(A y + b) <= 0.

    Returns A, b and the row count of each constraint; each box side is a
    one-row constraint.
    """
    n = prog.n_vars
    eye = np.eye(n)
    a = np.vstack([p.exponents for p in prog.inequalities] + [eye, -eye])
    b = np.concatenate([np.log(p.coeffs) for p in prog.inequalities]
                       + [-np.log(prog.upper), np.log(prog.lower)])
    sizes = np.array([p.coeffs.size for p in prog.inequalities] + [1] * (2 * n),
                     dtype=np.intp)
    return a, b, sizes


def _eliminate_equalities(prog: GeometricProgram):
    """Particular solution and null-space basis of the log equalities."""
    n = prog.n_vars
    if not prog.equalities:
        return np.zeros(n), np.eye(n), True
    e_rows = np.vstack([p.exponents[0] for p in prog.equalities])
    f = np.array([-math.log(p.coeffs[0]) for p in prog.equalities])
    y_p, *_ = np.linalg.lstsq(e_rows, f, rcond=None)
    if not np.allclose(e_rows @ y_p, f, atol=1e-9):
        return y_p, np.zeros((n, 0)), False  # inconsistent equalities
    _, sv, vt = np.linalg.svd(e_rows)
    rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0)))
    return y_p, vt[rank:].T, True


def _newton_minimize(block: _Centering, t, y0, tol, cap=NEWTON_CAP):
    """Minimize obj(y) + barrier(y) / t over {every constraint LSE < 0}.

    The 1/t scaling keeps the centering value near the objective scale for
    every barrier stage, so line-search decreases stay resolvable in float64
    even when t is large.
    """
    y = y0.copy()
    eye = np.eye(y.size)
    for it in range(cap):
        val, g, h = block.value_grad_hess(y, t)
        ridge = 0.0
        while True:
            try:
                step = -cho_solve(cho_factor(h + ridge * eye), g)
                break
            except np.linalg.LinAlgError:
                ridge = max(10.0 * ridge, 1e-12 * max(np.trace(h).real, 1.0))
        decrement = float(-g @ step)
        if decrement / 2.0 <= tol:
            return y, it, decrement / 2.0
        # backtracking: stay strictly inside, then Armijo on the centering value
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            cand = y + alpha * step
            if block.value(cand, t) <= val - 1e-4 * alpha * decrement:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return y, it + 1, decrement / 2.0
        y = y + alpha * step
    return y, cap, decrement / 2.0


def _phase_one(con_a, con_b, sizes, u0, tol):
    """Strictly feasible u for all LSE_i(u) < 0, or None if there is none."""
    # slack variable s: LSE(A u + b - s) <= 0 is LSE of the extended affine map,
    # minimized as the one-row objective s
    u_dim = u0.size
    ext = _Centering(np.eye(1, u_dim + 1, u_dim), np.zeros(1),
                     np.hstack([con_a, -np.ones((con_a.shape[0], 1))]), con_b,
                     sizes)
    vals = ext.lse(np.append(u0, 0.0))[1:]
    if u_dim == 0:
        return u0 if np.all(vals < 0) else None
    if np.all(vals < -FEAS_MARGIN):
        return u0
    z = np.append(u0, np.max(vals) + 1.0)
    t = 1.0
    for _ in range(40):
        z, _, _ = _newton_minimize(ext, t, z, tol)
        if z[-1] <= -1e-7:
            return z[:-1]
        if ext.m / t < 1e-12:
            break
        t *= BARRIER_MU
    return z[:-1] if z[-1] <= -FEAS_MARGIN else None


def solve_gp(prog: GeometricProgram, tol: float = 1e-9) -> GpResult:
    """Barrier solve. status "optimal" comes with kkt_residual <= 10 * tol."""
    y_p, null, consistent = _eliminate_equalities(prog)
    nan = np.full(prog.n_vars, np.nan)
    if not consistent:
        return GpResult(x=nan, value=math.nan, status="infeasible",
                        kkt_residual=math.nan, iterations=0)
    # map every constraint and the objective into the null-space coordinates
    a, b, sizes = _log_constraints(prog)
    con_a, con_b = a @ null, b + a @ y_p
    u_dim = null.shape[1]

    y_mid = 0.5 * (np.log(prog.lower) + np.log(prog.upper))
    u0 = null.T @ (y_mid - y_p)
    u = _phase_one(con_a, con_b, sizes, u0, tol)
    if u is None:
        return GpResult(x=nan, value=math.nan, status="infeasible",
                        kkt_residual=math.nan, iterations=0)
    if u_dim == 0:
        x = np.exp(y_p)
        return GpResult(x=x, value=prog.objective.value(x), status="optimal",
                        kkt_residual=0.0, iterations=0)

    obj = prog.objective
    block = _Centering(obj.exponents @ null,
                       np.log(obj.coeffs) + obj.exponents @ y_p,
                       con_a, con_b, sizes)
    m = block.m
    t = 1.0
    total_iters = 0
    stationarity = math.inf
    while True:
        u, its, stationarity = _newton_minimize(block, t, u, tol)
        total_iters += its
        if m / t <= tol:
            break
        t *= BARRIER_MU
    x = np.exp(y_p + null @ u)
    # duality gap of the final centering plus its Newton decrement
    kkt = max(stationarity, m / t)
    status = "optimal" if kkt <= 10.0 * tol else "max_iter"
    return GpResult(x=x, value=prog.objective.value(x), status=status,
                    kkt_residual=kkt, iterations=total_iters)


def brute_force_gp(prog: GeometricProgram, points_per_dim: int = 41,
                   eq_band: float = 1e-2) -> GpResult:
    """Dense log-space grid search over the box; independent of solve_gp.

    Inequalities pass at posynomial <= 1 + 1e-9 and equalities within
    |monomial - 1| <= eq_band, so a grid fine enough to land near the
    equality manifold is the caller's responsibility. kkt_residual is NaN
    because no optimality certificate exists for a grid point.
    """
    n = prog.n_vars
    if n > 4:
        raise ValueError("grid search is limited to 4 variables")
    if points_per_dim < 2:
        raise ValueError("need at least 2 points per dimension")
    axes = [np.linspace(math.log(prog.lower[k]), math.log(prog.upper[k]),
                        points_per_dim) for k in range(n)]
    total = points_per_dim**n
    chunk = max(1, int(2e6) // max(1, points_per_dim))
    best_val = math.inf
    best_y = None

    def posy_vals(p: Posynomial, ys: np.ndarray) -> np.ndarray:
        return np.exp(ys @ p.exponents.T + np.log(p.coeffs)).sum(axis=1)

    done = 0
    while done < total:
        count = min(chunk, total - done)
        flat = done + np.arange(count)
        ys = np.empty((count, n))
        rem = flat
        for k in range(n - 1, -1, -1):
            ys[:, k] = axes[k][rem % points_per_dim]
            rem = rem // points_per_dim
        ok = np.ones(count, dtype=bool)
        for p in prog.inequalities:
            ok &= posy_vals(p, ys) <= 1.0 + 1e-9
        for p in prog.equalities:
            ok &= np.abs(posy_vals(p, ys) - 1.0) <= eq_band
        if np.any(ok):
            vals = posy_vals(prog.objective, ys[ok])
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_y = ys[ok][i].copy()
        done += count
    if best_y is None:
        return GpResult(x=np.full(n, np.nan), value=math.nan,
                        status="infeasible", kkt_residual=math.nan, iterations=0)
    return GpResult(x=np.exp(best_y), value=best_val, status="optimal",
                    kkt_residual=math.nan, iterations=total)


def dump_problem(prog: GeometricProgram) -> str:
    """Human-readable listing, mainly for debugging allocation runs."""

    def term(c: float, e: np.ndarray) -> str:
        parts = [f"{c:.6g}"]
        parts += [f"x{k}^{e[k]:.6g}" for k in range(e.size) if e[k] != 0.0]
        return " * ".join(parts)

    def posy(p: Posynomial) -> str:
        return " + ".join(term(c, e) for c, e in zip(p.coeffs, p.exponents))

    lines = ["minimize", f"  {posy(prog.objective)}", "subject to"]
    lines += [f"  {posy(p)} <= 1" for p in prog.inequalities]
    lines += [f"  {posy(p)} == 1" for p in prog.equalities]
    lines.append("bounds")
    lines += [f"  {prog.lower[k]:.6g} <= x{k} <= {prog.upper[k]:.6g}"
              for k in range(prog.n_vars)]
    return "\n".join(lines)
