"""Energy-efficient source/relay power allocation.

Maximizing energy efficiency at a required sum spectral efficiency S0 under
peak constraints is equivalent to minimizing the total transmit power at
that S0. In SINR coefficient form

    gamma_SR,k = a_k p_k / (sum_j b_j p_j + c_k p_r + 1)
    gamma_RD,k = d_k p_r / (e_k p_r + 1)

the problem is a geometric program except for the sum-SE equality, whose
product of (1 + gamma_k) factors is posynomial rather than monomial. The
successive approximation replaces each factor with the monomial
kappa_k gamma_k^eta_k fitted at the current center (eta = gamma/(1+gamma),
kappa = gamma^-eta (1+gamma), exact in value and slope at the center), solves
the resulting GP inside a trust region gamma in [center/alpha, alpha*center],
recenters, and repeats until the SINRs settle.

The first center lies on the equality manifold: the uniform-peak SINR vector
is scaled by the s > 0 that makes sum_k log2(1 + s * gamma_peak,k) hit the
SE target, which reduces to the plain uniform-peak start when S0 equals the
uniform-peak SE. Starting anywhere else would make the first trust region
miss the equality manifold entirely for targets away from the peak SE, and
the first GP would be spuriously infeasible.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gp import GeometricProgram, Posynomial, solve_gp
from .model import LargeScaleProfile, SystemConfig
from .rates import coefficient_arrays

GAMMA_FLOOR = 1e-9
POWER_FLOOR_SCALE = 1e-12
WARMUP_TRUST = 4.0
WARMUP_ROUNDS = 25


@dataclass(frozen=True)
class SinrCoefficients:
    """Positive per-pair SINR coefficients (a, b, c, d, e) of one scheme."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    scheme: str

    def __post_init__(self):
        for name in "abcde":
            v = np.asarray(getattr(self, name), dtype=float)
            if np.any(v <= 0) or not np.all(np.isfinite(v)):
                raise ValueError(f"coefficient {name} must be positive and finite")
            object.__setattr__(self, name, v)
            v.setflags(write=False)

    @property
    def K(self) -> int:
        return self.a.size

    def sinrs(self, p_s: np.ndarray, p_r: float):
        sr = self.a * p_s / (np.dot(self.b, p_s) + self.c * p_r + 1.0)
        rd = self.d * p_r / (self.e * p_r + 1.0)
        return sr, rd


def sinr_coefficients(cfg: SystemConfig, profile: LargeScaleProfile,
                      scheme: str) -> SinrCoefficients:
    a, b, c, d, e = coefficient_arrays(cfg, profile, scheme)
    return SinrCoefficients(a=a, b=b, c=c, d=d, e=e, scheme=scheme)


def energy_efficiency(sum_se: float, p_s, p_r: float, T: int, tau: int) -> float:
    """Sum SE divided by the effective data-phase transmit power."""
    total = float(np.sum(p_s)) + float(p_r)
    if total <= 0:
        raise ValueError("total transmit power must be positive")
    return sum_se / ((T - tau) / T * total)


def _sum_se_at(coeffs: SinrCoefficients, p_s, p_r: float, T: int, tau: int) -> float:
    sr, rd = coeffs.sinrs(np.asarray(p_s, dtype=float), p_r)
    return (T - tau) / T * float(np.sum(np.log2(1.0 + np.minimum(sr, rd))))


def max_feasible_se(coeffs: SinrCoefficients, p0: float, p1: float,
                    T: int, tau: int) -> float:
    """Uniform-peak sum SE plus a 5% margin, used only as a feasibility hint.

    SINR numerators grow with the own power but the interference terms grow
    with the others', so the true maximum can sit above the uniform-peak
    point; the margin absorbs that slack for warning purposes only.
    """
    return 1.05 * _sum_se_at(coeffs, np.full(coeffs.K, p0), p1, T, tau)


@dataclass(frozen=True)
class PowerAllocation:
    p_s: np.ndarray
    p_r: float
    achieved_se: float
    ee: float
    iterations: int
    converged: bool
    status: str  # "optimal" | "max_iterations" | "infeasible"
    gamma: np.ndarray
    total_power_trace: tuple


def _init_gamma(coeffs: SinrCoefficients, s0: float, p0: float, p1: float,
                T: int, tau: int) -> np.ndarray:
    """Uniform-peak SINRs scaled onto the SE-target manifold."""
    sr, rd = coeffs.sinrs(np.full(coeffs.K, p0), p1)
    gamma_peak = np.minimum(sr, rd)
    target = T * s0 / (T - tau)  # sum of log2(1 + gamma) to hit

    def excess(s: float) -> float:
        return float(np.sum(np.log2(1.0 + s * gamma_peak))) - target

    lo, hi = 0.0, 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError("SE target out of reach of the SINR scaling")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return np.maximum(0.5 * (lo + hi) * gamma_peak, GAMMA_FLOOR)


def _round_gp(coeffs: SinrCoefficients, center: np.ndarray, s0: float,
              p0: float, p1: float, T: int, tau: int,
              trust: float) -> GeometricProgram:
    """One Algorithm round: variables (p_1..p_K, p_r, gamma_1..gamma_K)."""
    k = coeffs.K
    n = 2 * k + 1
    pr_ix = k
    g_ix = k + 1

    eta = center / (1.0 + center)
    kappa = center ** (-eta) * (1.0 + center)

    def unit(ix: int) -> np.ndarray:
        row = np.zeros(n)
        row[ix] = 1.0
        return row

    objective = Posynomial(np.ones(k + 1), np.eye(n)[: k + 1])

    ineqs = []
    for i in range(k):
        rows, co = [], []
        for j in range(k):
            r = unit(g_ix + i) - unit(i)
            r[j] += 1.0
            rows.append(r)
            co.append(coeffs.b[j] / coeffs.a[i])
        rows.append(unit(g_ix + i) - unit(i) + unit(pr_ix))
        co.append(coeffs.c[i] / coeffs.a[i])
        rows.append(unit(g_ix + i) - unit(i))
        co.append(1.0 / coeffs.a[i])
        ineqs.append(Posynomial(np.array(co), np.vstack(rows)))
    for i in range(k):
        rows = [unit(g_ix + i), unit(g_ix + i) - unit(pr_ix)]
        co = [coeffs.e[i] / coeffs.d[i], 1.0 / coeffs.d[i]]
        ineqs.append(Posynomial(np.array(co), np.vstack(rows)))

    # log2 target folded into the monomial coefficient
    rhs = 2.0 ** (T * s0 / (T - tau))
    eq_row = np.zeros(n)
    eq_row[g_ix:] = eta
    equality = Posynomial(np.array([float(np.prod(kappa)) / rhs]), eq_row[None, :])

    lower = np.concatenate([
        np.full(k, POWER_FLOOR_SCALE * p0), [POWER_FLOOR_SCALE * p1],
        np.maximum(center / trust, GAMMA_FLOOR),
    ])
    upper = np.concatenate([np.full(k, p0), [p1], trust * center])
    return GeometricProgram(objective=objective, inequalities=tuple(ineqs),
                            equalities=(equality,), lower=lower, upper=upper)


def optimize_powers(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
                    s0: float, p0: float = 10.0, p1: float = 100.0,
                    eps: float = 0.01, max_rounds: int = 5,
                    trust: float = 1.1) -> PowerAllocation:
    """Successive GP rounds for the minimum-power allocation at sum SE s0.

    Defaults eps=0.01, max_rounds=5, trust=1.1. The trust region only
    allows a factor-trust move per round, so the iteration is first warmed
    up by coarse passes of the same GP map with a wide trust region; the
    measured rounds then start near the fixed point and converge within
    the small default budget. Returns converged=True when the SINR
    iterates moved less than eps in the final round, and status "optimal"
    only when that round's GP was also certified optimal; infeasible targets
    are reported in status when no round found a feasible point (a
    warning cites the uniform-peak feasibility hint).
    """
    if s0 <= 0:
        raise ValueError("target sum SE must be positive")
    if eps <= 0 or max_rounds < 1 or trust <= 1.0:
        raise ValueError("need eps > 0, max_rounds >= 1, trust > 1")
    if p0 <= 0 or p1 <= 0:
        raise ValueError("peak powers must be positive")
    coeffs = sinr_coefficients(cfg, profile, scheme)
    hint = max_feasible_se(coeffs, p0, p1, cfg.T, cfg.tau)
    if s0 > hint:
        warnings.warn(
            f"SE target {s0:.4g} exceeds the feasibility hint {hint:.4g}; "
            "expecting an infeasible first round", stacklevel=2)

    center = _init_gamma(coeffs, s0, p0, p1, cfg.T, cfg.tau)
    nan_k = np.full(coeffs.K, np.nan)
    p_s = nan_k
    p_r = math.nan
    gamma = center
    seeded = False
    for _ in range(WARMUP_ROUNDS):
        result = solve_gp(_round_gp(coeffs, center, s0, p0, p1,
                                    cfg.T, cfg.tau, WARMUP_TRUST))
        if result.status == "infeasible":
            if not seeded:
                return PowerAllocation(
                    p_s=nan_k, p_r=math.nan, achieved_se=0.0, ee=0.0,
                    iterations=1, converged=False, status="infeasible",
                    gamma=nan_k, total_power_trace=())
            break
        p_s = result.x[:coeffs.K]
        p_r = float(result.x[coeffs.K])
        gamma = result.x[coeffs.K + 1:]
        seeded = True
        step = float(np.max(np.abs(gamma - center)))
        center = gamma
        if step < 0.5 * eps:
            break

    trace: list[float] = []
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        result = solve_gp(_round_gp(coeffs, center, s0, p0, p1,
                                    cfg.T, cfg.tau, trust))
        if result.status == "infeasible":
            break  # keep the last feasible iterate
        p_s = result.x[:coeffs.K]
        p_r = float(result.x[coeffs.K])
        gamma = result.x[coeffs.K + 1:]
        trace.append(float(np.sum(p_s)) + p_r)
        if float(np.max(np.abs(gamma - center))) < eps:
            converged = True
            break
        center = gamma
    achieved = _sum_se_at(coeffs, p_s, p_r, cfg.T, cfg.tau)
    return PowerAllocation(
        p_s=p_s, p_r=p_r, achieved_se=achieved,
        ee=energy_efficiency(achieved, p_s, p_r, cfg.T, cfg.tau),
        iterations=rounds, converged=converged,
        status=("optimal" if converged and result.status == "optimal"
                else "max_iterations"),
        gamma=gamma, total_power_trace=tuple(trace))
