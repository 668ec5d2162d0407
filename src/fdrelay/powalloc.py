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
recenters, and repeats until the SINRs settle. The objective, the 2K SINR
inequalities and the power box are built once per allocation; a round adds
only the fitted equality and the trust region.

The first center lies on the equality manifold: the uniform-peak SINR vector
is scaled by the s > 0 that makes sum_k log2(1 + s * gamma_peak,k) hit the
SE target, which reduces to the plain uniform-peak start when S0 equals the
uniform-peak SE. Starting anywhere else would make the first trust region
miss the equality manifold entirely for targets away from the peak SE, and
the first GP would be spuriously infeasible. The same scaling proves a
target out of reach, which status "infeasible" alone reports: no powers under
the peaks give gamma_k above min(a_k p0, d_k p1 / (e_k p1 + 1)), which the
uniform-peak SINRs reach once scaled by the largest uniform-peak SR denominator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import GeometricProgram, Posynomial, solve_gp
from .model import LargeScaleProfile, SystemConfig, _check_count, _check_real
from .rates import SinrCoefficients, sinr_coefficients, sum_se

GAMMA_FLOOR = 1e-9
POWER_FLOOR_SCALE = 1e-12
EPS = 0.01  # largest SINR step of a converged measured round
# the rounds run in stages of (trust alpha, most rounds, SINR step that ends
# the stage): a wide warm-up, then the measured rounds
WARMUP = (4.0, 25, 0.5 * EPS)
MEASURED = (1.1, 5, EPS)


def energy_efficiency(sum_se: float, p_s, p_r: float, T: int, tau: int) -> float:
    """Sum SE divided by the effective data-phase transmit power."""
    _check_real("sum_se", sum_se)
    _check_real("p_r", p_r)
    _check_count("tau", tau)
    _check_count("T", T, tau + 1)
    for x in np.ravel(p_s):
        _check_real("p_s", x)
    total = float(np.sum(p_s)) + float(p_r)
    _check_real("total transmit power", total, strict=True)
    return sum_se / ((T - tau) / T * total)


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


def _init_gamma(coeffs: SinrCoefficients, target: float, p0: float,
                p1: float) -> np.ndarray | None:
    """Uniform-peak SINRs scaled so that sum log2(1 + gamma) = target, or None
    when no powers under the peaks reach the target. First refuses, naming
    the peak, p0 or p1 at which a term of the uniform-peak SINRs overflows."""
    with np.errstate(over="ignore"):
        b_p0 = np.sum(coeffs.b) * p0
        interference = b_p0 + coeffs.c * p1
        terms = (("p0", "a*p0", coeffs.a * p0), ("p0", "sum(b)*p0", b_p0),
                 ("p1", "c*p1", coeffs.c * p1), ("p1", "d*p1", coeffs.d * p1),
                 ("p1", "e*p1", coeffs.e * p1),
                 ("p0 and p1", "sum(b)*p0 + c*p1", interference))
    for name, term, value in terms:
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} too large: the uniform-peak SINR term {term} "
                             f"is not finite")
    sr, rd = coeffs.sinrs(p0, p1)
    gamma_peak = np.minimum(sr, rd)
    # under the peaks gamma_k <= min(a_k p0, d_k p1 / (e_k p1 + 1)); the
    # uniform-peak SR denominators lie in [1, s_bound], so s_bound * gamma_peak
    # bounds every such gamma and no powers reach a target short at s_bound
    s_bound = float(np.max(interference + 1.0))

    def excess(s: float) -> float:
        return float(np.sum(np.log2(1.0 + s * gamma_peak))) - target

    lo, hi = 0.0, 1.0
    while excess(hi) < 0.0:
        if hi >= s_bound:
            return None
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return np.maximum(0.5 * (lo + hi) * gamma_peak, GAMMA_FLOOR)


def _sinr_program(coeffs: SinrCoefficients, p0: float, p1: float) -> tuple:
    """The rounds' common parts of the GP over (p_1..p_K, p_r, gamma_1..gamma_K):
    (objective, inequalities, lower, upper), the total power, the 2K SINR
    inequalities and the box of the K + 1 powers; each round adds the gamma
    box and the SE equality."""
    k = coeffs.K
    n = 2 * k + 1
    pr_ix = k
    g_ix = k + 1

    objective = Posynomial(np.ones(k + 1), np.eye(n)[: k + 1])

    # first hop of pair i: gamma_i (sum_j b_j p_j + c_i p_r + 1) / (a_i p_i)
    # <= 1, one row per p_j, then the p_r row, then the constant row
    pair = np.arange(k)
    sr_rows = np.zeros((k, k + 2, n))
    sr_rows[pair, :, g_ix + pair] = 1.0
    sr_rows[pair, :, pair] = -1.0
    sr_rows[:, pair, pair] += 1.0
    sr_rows[:, k, pr_ix] = 1.0
    sr_co = np.column_stack([coeffs.b[None, :] / coeffs.a[:, None],
                             coeffs.c / coeffs.a, 1.0 / coeffs.a])
    # second hop of pair i: gamma_i (e_i p_r + 1) / (d_i p_r) <= 1
    rd_rows = np.zeros((k, 2, n))
    rd_rows[pair, :, g_ix + pair] = 1.0
    rd_rows[:, 1, pr_ix] = -1.0
    rd_co = np.column_stack([coeffs.e / coeffs.d, 1.0 / coeffs.d])
    ineqs = [Posynomial(co, rows) for co, rows in zip(sr_co, sr_rows)]
    ineqs += [Posynomial(co, rows) for co, rows in zip(rd_co, rd_rows)]

    lower = np.append(np.full(k, POWER_FLOOR_SCALE * p0), POWER_FLOOR_SCALE * p1)
    upper = np.append(np.full(k, p0), p1)
    return objective, tuple(ineqs), lower, upper


def _round_gp(base: tuple, center: np.ndarray, trust: float,
              target: float) -> GeometricProgram:
    """One Algorithm round: base plus the SE fit at center and its trust box."""
    objective, inequalities, lower, upper = base
    k = center.size
    eta = center / (1.0 + center)
    kappa = center ** (-eta) * (1.0 + center)
    # log2 target folded into the monomial coefficient
    eq_row = np.concatenate([np.zeros(k + 1), eta])
    equality = Posynomial(np.array([float(np.prod(kappa)) / 2.0 ** target]),
                          eq_row[None, :])
    return GeometricProgram(
        objective, inequalities, (equality,),
        lower=np.concatenate([lower, np.maximum(center / trust, GAMMA_FLOOR)]),
        upper=np.concatenate([upper, trust * center]))


def optimize_powers(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
                    s0: float, p0: float = 10.0, p1: float = 100.0) -> PowerAllocation:
    """Successive GP rounds for the minimum-power allocation at sum SE s0.

    The trust region only allows a factor-alpha move per round, so the
    rounds run in two stages of one loop: WARMUP (alpha 4, at most 25
    rounds, until the largest SINR step is below EPS/2) walks the center
    towards the fixed point, then MEASURED (alpha 1.1, at most 5 rounds)
    converges when a step is below EPS = 0.01. A round without a feasible
    point ends its stage. The first round is solved cold; every later one
    starts its GP solve from the last feasible round's optimum (p_s, p_r,
    gamma) instead of the box midpoint, with the same answer to the GP
    tolerance. iterations, converged and total_power_trace describe the
    measured rounds alone. Status "optimal" means converged with the last
    round's GP certified optimal; "infeasible", the one signal of a target
    out of reach, means that the first center's scaling proved no powers
    under the peaks reach s0 or that no round found a feasible point. Raises
    ValueError only when s0, p0 or p1 is not finite and > 0, an SINR
    coefficient is not positive and finite (sigma_li_sq = 0 gives c = 0,
    say), since no GP round could hold it, or p0 or p1 makes a uniform-peak
    SINR term (a*p0, sum(b)*p0, c*p1, d*p1, e*p1 or the first-hop
    denominator) overflow; the error names the peak, and nothing overflows
    before it.
    """
    for name, x in (("s0", s0), ("p0", p0), ("p1", p1)):
        _check_real(name, x, strict=True)
    coeffs = sinr_coefficients(cfg, profile, scheme)
    for name in "abcde":
        v = getattr(coeffs, name)
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError(f"coefficient {name} must be positive and finite")
    k = coeffs.K
    target = cfg.T * s0 / (cfg.T - cfg.tau)  # sum of log2(1 + gamma) to hit
    center = _init_gamma(coeffs, target, p0, p1)
    base = _sinr_program(coeffs, p0, p1)
    start = None  # the last feasible round's optimum (p_s, p_r, gamma)
    # no center: the target is out of reach, and no round runs
    for trust, max_rounds, tol in (WARMUP, MEASURED) if center is not None else ():
        trace, converged = [], False
        for rounds in range(1, max_rounds + 1):
            result = solve_gp(_round_gp(base, center, trust, target), start=start)
            if math.isnan(result.value):  # no feasible point: infeasible or cut short
                break
            start = result.x
            trace.append(float(np.sum(start[:k])) + float(start[k]))
            step = float(np.max(np.abs(start[k + 1:] - center)))
            center = start[k + 1:]
            if step < tol:
                converged = True
                break
        if start is None:
            break
    if start is None:
        nan_k = np.full(k, np.nan)
        return PowerAllocation(
            p_s=nan_k, p_r=math.nan, achieved_se=0.0, ee=0.0,
            iterations=1, converged=False, status="infeasible",
            gamma=nan_k, total_power_trace=())
    p_s, p_r, gamma = start[:k], float(start[k]), start[k + 1:]
    sr, rd = coeffs.sinrs(p_s, p_r)
    achieved = sum_se(np.log2(1.0 + np.minimum(sr, rd)), cfg.T, cfg.tau)
    return PowerAllocation(
        p_s=p_s, p_r=p_r, achieved_se=achieved,
        ee=energy_efficiency(achieved, p_s, p_r, cfg.T, cfg.tau),
        iterations=rounds, converged=converged,
        status=("optimal" if converged and result.status == "optimal"
                else "max_iterations"),
        gamma=gamma, total_power_trace=tuple(trace))
