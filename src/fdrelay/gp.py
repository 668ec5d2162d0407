"""A small geometric-program solver.

Problems are posynomial: minimize a posynomial subject to posynomial <= 1
inequalities, monomial == 1 equalities, and a finite positive box per variable.
In log variables y = log x every posynomial becomes a log-sum-exp (LSE) of
affine forms, so the program is convex:

  * the objective, every inequality and both sides of every box are stacked
    into one exponent matrix A with offsets b, each LSE one contiguous
    segment of rows of A y + b. With p the within-segment softmax weights
    and G the segment gradients (one reduceat; a one-row segment, such as
    a box side, is its own gradient), a weighted sum of the segments has
    gradient G^T w and Hessian A^T diag(p w[seg]) A + G^T diag(c) G: one
    pass of array operations per Newton step, with no Python loop over
    constraints. A chain of programs sharing one objective and one
    inequality tuple (the allocator's rounds) stacks their rows once,
  * monomial equalities are eliminated exactly: y = y_p + N u, with the
    least-norm y_p and the null-space basis N from one SVD; when
    they pin every variable, solve_gp only checks the constraints at y_p,
  * phase 1 finds a strictly feasible start on the same primal-dual path
    (below): it minimizes a slack s subject to LSE_i(u) - s <= 0 from
    (u0, max_i LSE_i(u0) + 1) and stops at the first iterate whose true
    constraint values LSE_i(u) are all below -FEAS_MARGIN. Its optimum
    with s > -FEAS_MARGIN certifies infeasibility; NEWTON_CAP or a stalled
    step before either outcome gives "max_iter". u0 is the box midpoint or
    solve_gp's start (e.g. the previous optimum of a chain of similar
    programs, need not be feasible) projected onto the equalities,
    u0 = N^T (log x - y_p); a strictly feasible u0 skips phase 1,
  * the main path is primal-dual in slack form (Boyd & Vandenberghe, Convex
    Optimization, 11.7, with Mehrotra's predictor-corrector step). With f0
    the log objective and f the m constraint LSEs it drives to zero
        r_dual = grad f0 + Df^T lam, r_prim = f(u) + s, r_cent = s lam - sigma mu
    over s, lam > 0, mu = s^T lam / m. Each step forms
        H = hess f0 + sum_i lam_i hess f_i + Df^T diag(lam / s) Df
    once (w = (1, lam), c = (-1, lam / s - lam)), ridges it until its
    Cholesky factorization exists, and solves it twice by LU with partial
    pivoting: the predictor with sigma = 0,
    the corrector with sigma = (mu_aff / mu)^3 and the predictor's
    second-order term. The step is 0.99 of the longest that keeps s and lam
    positive, capped at 1 and halved while ||(r_dual, r_prim)||, which it
    cancels to first order, would exceed both (1 - 0.01 a) times its value
    and the new mu (LSE curvature, as when a Newton step on a nearly linear
    objective overshoots). u may leave the feasible set on the way,
  * the main path starts at the phase-1 point (phase 1 at its own start)
    with s = max(-f(u), 1e-6) and lam = 1 / (t0 s). t0 = max(1, -g0^T H^-1
    g_phi / g0^T H^-1 g0), with g0 the objective gradient and g_phi, H the
    barrier's, minimizes the centrality residual ||t grad f0 + grad phi|| in
    the H^-1 norm (11.3.1): near 1 from the box midpoint, large from a
    previous optimum, so a warm start begins with a small duality gap,
  * the path stops when s^T lam <= TOL, ||r_dual|| <= 10 TOL and
    ||r_prim||_inf <= TOL; s^T lam bounds the duality gap of the log
    objective once r_prim vanishes.

The solver needs numpy alone: np.linalg.cholesky is the test that decides
the ridge, and np.linalg.solve gives each direction.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

NEWTON_CAP = 200
FEAS_MARGIN = 1e-9
TOL = 1e-9  # stopping tolerance of the primal-dual path


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        # an empty interior has no strictly feasible point: pin by an equality;
        # an infinite bound has no box midpoint to start from
        if not ((lo > 0).all() and (hi > lo).all() and np.isfinite(hi).all()):
            raise ValueError("need 0 < lower < upper < inf")
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
    kkt_residual: float  # max(s^T lam, ||r_dual||, ||r_prim||_inf) at x
    iterations: int  # main-path primal-dual steps (one Newton system each), after phase 1
    phase1_iterations: int = 0  # primal-dual steps spent finding a feasible start


class _Centering:
    """One stacked block of log-sum-exp segments and its weighted sums.

    The rows of A y + b are grouped into contiguous segments of the given
    sizes, each the log of one posynomial: segment 0 is the objective,
    segments 1..m the constraints LSE_i(y) < 0. The primal-dual path weights
    the segments (1, lam).
    """

    def __init__(self, a, b, sizes):
        self.a, self.b, self.sizes = a, b, sizes
        self.starts = np.cumsum(sizes) - sizes
        self.seg = np.repeat(np.arange(sizes.size), sizes)
        self.m = sizes.size - 1

    def _softmax(self, y):
        """Per-segment LSE values and within-segment softmax weights."""
        z = self.a @ y
        z += self.b
        top = np.maximum.reduceat(z, self.starts)
        z -= top[self.seg]
        np.exp(z, out=z)
        s = np.add.reduceat(z, self.starts)
        z /= s[self.seg]
        return top + np.log(s), z

    def lse(self, y: np.ndarray) -> np.ndarray:
        return self._softmax(y)[0]

    def _gradients(self, p):
        """Segment gradients G (one row per segment) from softmax weights p; a
        one-row segment has weight exactly 1, so its gradient is its row."""
        return np.add.reduceat(p[:, None] * self.a, self.starts)

    def _hessian(self, p, g, w, c):
        """A^T diag(p w[seg]) A + G^T diag(c) G."""
        h = (self.a.T * (p * w[self.seg])) @ self.a
        h += (g.T * c) @ g
        return h

    def first_weight(self, v, p, g) -> float:
        """Barrier weight t0 = max(1, -g0^T H^-1 g_phi / g0^T H^-1 g0) at the
        point with LSE values v, softmax weights p and segment gradients g.

        g_phi and H are the barrier gradient and Hessian (w = (0, d),
        c = (0, d^2 - d)); t0 minimizes ||t g0 + g_phi|| in the H^-1 norm.
        """
        if (v[1:] >= 0).any():
            raise FloatingPointError("first_weight needs a strictly feasible y")
        d = 1.0 / -v[1:]
        h = self._hessian(p, g, np.concatenate([[0.0], d]),
                          np.concatenate([[0.0], d * d - d]))
        sol = _cholesky(h)(np.column_stack([g[0], g[1:].T @ d]))
        curvature = float(g[0] @ sol[:, 0])
        if not curvature > 0.0:
            return 1.0  # objective flat along every feasible direction
        return max(1.0, -float(g[0] @ sol[:, 1]) / curvature)


@functools.lru_cache(maxsize=1)
def _stacked_rows(objective: Posynomial, inequalities: tuple):
    """A, b and the segment sizes of LSE(A y + b): the objective, every
    inequality, then both box sides as one-row segments whose offsets
    (-log upper, log lower) b leaves out. Programs sharing the objective and
    the inequality tuple (the allocator's rounds) share one stack."""
    terms = (objective,) + inequalities
    eye = np.eye(objective.n_vars)
    a = np.vstack([p.exponents for p in terms] + [eye, -eye])
    b = np.concatenate([np.log(p.coeffs) for p in terms])
    sizes = np.array([p.coeffs.size for p in terms] + [1] * (2 * objective.n_vars),
                     dtype=np.intp)
    for x in (a, b, sizes):
        x.setflags(write=False)
    return a, b, sizes


def _eliminate_equalities(prog: GeometricProgram):
    """Least-norm particular solution, null-space basis and consistency of
    the log equalities E y = f, from one SVD of E."""
    n = prog.n_vars
    if not prog.equalities:
        return np.zeros(n), np.eye(n), True
    e_rows = np.concatenate([p.exponents for p in prog.equalities])
    f = np.array([-math.log(p.coeffs[0]) for p in prog.equalities])
    u, sv, vt = np.linalg.svd(e_rows)
    rank = int(np.sum(sv > 1e-12 * max(sv[0], 1.0)))
    y_p = vt[:rank].T @ ((u[:, :rank].T @ f) / sv[:rank])
    consistent = bool(np.all(np.abs(e_rows @ y_p - f) <= 1e-9 + 1e-5 * np.abs(f)))
    return y_p, vt[rank:].T, consistent


def _cholesky(h):
    """rhs -> h^-1 rhs: h, ridged until its Cholesky factorization exists,
    solved by LU with partial pivoting."""
    if not np.isfinite(h).all():
        raise ValueError("Newton system must not contain infs or NaNs")
    ridge = 0.0
    while True:
        ridged = h + ridge * np.eye(h.shape[0]) if ridge else h
        try:
            np.linalg.cholesky(ridged)
            break
        except np.linalg.LinAlgError:
            ridge = max(10.0 * ridge, 1e-12 * max(np.trace(h).real, 1.0))

    def solve(rhs):
        if not np.isfinite(rhs).all():
            raise ValueError("Newton system must not contain infs or NaNs")
        return np.linalg.solve(ridged, rhs)
    return solve


def _phase_one(block: _Centering, u0, v0):
    """(u, primal-dual steps, None) with u strictly feasible for every
    constraint LSE_i(u) < 0 of block, or (None, steps, the GpResult status
    to report); v0 are the LSE values at u0, which is not strictly feasible."""
    # slack variable s: LSE(A u + b - s) <= 0 is LSE of the extended affine map,
    # minimized as the one-row objective s; the extended LSEs are the true
    # constraint values minus s, so feasibility is judged at u itself
    k = block.sizes[0]  # the objective's rows, replaced by the row of s
    a = np.zeros((block.a.shape[0] - k + 1, u0.size + 1))
    a[0, -1] = 1.0
    a[1:, :-1] = block.a[k:]
    a[1:, -1] = -1.0
    ext = _Centering(a, np.concatenate([[0.0], block.b[k:]]),
                     np.concatenate([[1], block.sizes[1:]]))

    def feasible(z, v):
        return bool(np.all(v[1:] + z[-1] < -FEAS_MARGIN))

    z = np.append(u0, np.max(v0[1:]) + 1.0)
    z, iters, kkt = _primal_dual(ext, z, ext._softmax(z), stop=feasible)
    if feasible(z, ext.lse(z)):
        return z[:-1], iters, None
    # only an optimum with no slack below -FEAS_MARGIN certifies infeasibility
    certified = kkt <= 10.0 * TOL and z[-1] > -FEAS_MARGIN
    return None, iters, "infeasible" if certified else "max_iter"


def _step_length(z, dz, fraction):
    """min(1, fraction * the longest a with z + a dz >= 0)."""
    return fraction / max(fraction, -float((dz / z).min()))


def _primal_dual(block: _Centering, u, vp, stop=None):
    """(u, steps, kkt residual) of the predictor-corrector path from u, with
    vp = block._softmax(u); it returns early at the first u with
    stop(u, LSE values at u)."""
    m = block.m
    v, p = vp
    g = block._gradients(p)
    z = np.empty(2 * m)  # the slacks s and duals lam, stepped together
    s, lam = z[:m], z[m:]
    np.maximum(-v[1:], 1e-6, out=s)
    lam[:] = 1.0 / (block.first_weight(v, p, g) * s)
    w, c = np.empty(m + 1), np.empty(m + 1)  # segment weights (1, lam), (-1, lam / s - lam)
    w[0], c[0] = 1.0, -1.0
    r_dual, r_prim = g[0] + g[1:].T @ lam, v[1:] + s
    gap = float(s @ lam)
    for it in range(NEWTON_CAP + 1):
        dual = math.sqrt(r_dual @ r_dual)
        prim = float(np.abs(r_prim).max())
        kkt = max(gap, dual, prim)
        if (gap <= TOL and dual <= 10.0 * TOL and prim <= TOL) or it == NEWTON_CAP \
                or (stop is not None and stop(u, v)):
            return u, it, kkt
        df = g[1:]
        w[1:] = lam
        np.subtract(lam / s, lam, out=c[1:])
        solve = _cholesky(block._hessian(p, g, w, c))
        lam_r = lam * r_prim

        def direction(r_cent):
            du = solve(df.T @ ((r_cent - lam_r) / s) - r_dual)
            ds = -r_prim - df @ du
            return du, np.concatenate([ds, -(r_cent + lam * ds) / s])

        s_lam = s * lam
        _, dz = direction(s_lam)
        alpha = _step_length(z, dz, 1.0)
        mu = gap / m
        z1 = z + alpha * dz
        mu_aff = float(z1[:m] @ z1[m:]) / m
        du, dz = direction(s_lam + dz[:m] * dz[m:] - (mu_aff / mu) ** 3 * mu)
        alpha = _step_length(z, dz, 0.99)
        # the step cancels r_dual and r_prim to first order; halve it while
        # they grow past both their linear decrease and the new mu
        before = math.sqrt(dual * dual + r_prim @ r_prim)
        while True:
            u1, z1 = u + alpha * du, z + alpha * dz
            v, p = block._softmax(u1)
            g = block._gradients(p)
            r_dual, r_prim = g[0] + g[1:].T @ z1[m:], v[1:] + z1[:m]
            after = math.sqrt(r_dual @ r_dual + r_prim @ r_prim)
            gap1 = float(z1[:m] @ z1[m:])
            if after <= max((1.0 - 0.01 * alpha) * before, gap1 / m):
                break
            alpha *= 0.5
            if alpha < 1e-10:
                return u, it, kkt
        u, z, gap = u1, z1, gap1
        s, lam = z[:m], z[m:]


def solve_gp(prog: GeometricProgram, start=None) -> GpResult:
    """Phase 1, then the primal-dual path.

    status "optimal" comes with kkt_residual <= 10 * TOL, "max_iter" with a
    larger one when the main path reaches NEWTON_CAP steps or its step
    stalls. "infeasible" means inconsistent equalities, equalities that pin
    every variable outside a constraint or the box, or a phase-1 optimum
    that no slack below -FEAS_MARGIN attains; a phase 1 cut off by NEWTON_CAP
    or a stalled step before it finds a feasible point is "max_iter". Both
    come with NaN x, value and kkt_residual.

    start, a positive point of length n_vars, replaces the box midpoint as
    the phase-1 start; it need not be feasible.
    """
    if start is None:
        y_start = 0.5 * (np.log(prog.lower) + np.log(prog.upper))
    else:
        x_start = np.asarray(start, dtype=float)
        if x_start.shape != (prog.n_vars,) or not np.all(np.isfinite(x_start)) \
                or np.any(x_start <= 0):
            raise ValueError("start must be a finite positive point of length n_vars")
        y_start = np.log(x_start)
    y_p, null, consistent = _eliminate_equalities(prog)

    def failed(status, phase1_iterations=0):
        return GpResult(x=np.full(prog.n_vars, np.nan), value=math.nan, status=status,
                        kkt_residual=math.nan, iterations=0,
                        phase1_iterations=phase1_iterations)

    if not consistent:
        return failed("infeasible")
    # map the objective and every constraint into the null-space coordinates
    a, b, sizes = _stacked_rows(prog.objective, prog.inequalities)
    b = np.concatenate([b, -np.log(prog.upper), np.log(prog.lower)])
    block = _Centering(a @ null, b + a @ y_p, sizes)
    obj = prog.objective
    if null.shape[1] == 0:  # the equalities pin x = exp(y_p): no path to follow
        if not np.all(block.lse(np.zeros(0))[1:] < 0):
            return failed("infeasible")
        x = np.exp(y_p)
        return GpResult(x=x, value=obj.value(x), status="optimal",
                        kkt_residual=0.0, iterations=0)

    u = null.T @ (y_start - y_p)
    vp = block._softmax(u)
    phase1_iters = 0
    if not np.all(vp[0][1:] < -FEAS_MARGIN):
        u, phase1_iters, status = _phase_one(block, u, vp[0])
        if u is None:
            return failed(status, phase1_iters)
        vp = block._softmax(u)
    u, iters, kkt = _primal_dual(block, u, vp)
    x = np.exp(y_p + null @ u)
    status = "optimal" if kkt <= 10.0 * TOL else "max_iter"
    return GpResult(x=x, value=obj.value(x), status=status,
                    kkt_residual=kkt, iterations=iters,
                    phase1_iterations=phase1_iters)
