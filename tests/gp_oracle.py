"""Dense grid-search oracle for the GP solver tests; independent of solve_gp."""
import math

import numpy as np

from fdrelay.gp import GeometricProgram, GpResult, Posynomial


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

