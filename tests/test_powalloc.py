"""Tests for the successive-GP power allocation."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from fdrelay import (
    SystemConfig,
    energy_efficiency,
    make_profile,
    optimize_powers,
    snapshot_profile,
)
from fdrelay import gp, powalloc
from fdrelay.rates import SinrCoefficients, sinr_coefficients

CFG10 = SystemConfig(K=10, Nrx=100, Ntx=100, T=200, tau=20, Pp=10.0, sigma_li_sq=1.0)
PROF10 = snapshot_profile(CFG10.tau, CFG10.Pp)


def sum_se_at(coeffs, p_s, p_r, T, tau):
    sr, rd = coeffs.sinrs(np.asarray(p_s, dtype=float), p_r)
    return (T - tau) / T * float(np.sum(np.log2(1.0 + np.minimum(sr, rd))))


def test_sinr_coefficients_validation():
    ones = np.ones(3)
    coeffs = SinrCoefficients(a=-ones, b=ones, c=ones, d=ones, e=ones, scheme="zf")
    with pytest.raises(ValueError, match="positive and finite"):
        powalloc._sinr_program(coeffs, 10.0, 100.0)


def test_energy_efficiency_formula():
    # SE over the data-phase average power (T - tau)/T * (sum p_s + p_r)
    se, p_s, p_r = 9.0, [1.0, 2.0], 3.0
    assert energy_efficiency(se, p_s, p_r, T=200, tau=20) == pytest.approx(
        9.0 / (0.9 * 6.0)
    )


def test_single_pair_matches_dense_grid():
    cfg = SystemConfig(K=1, Nrx=32, Ntx=32, T=200, tau=2, Pp=4.0, sigma_li_sq=1.0)
    prof = make_profile([1.0], [1.0], cfg.tau, cfg.Pp)
    s0 = 1.0
    alloc = optimize_powers(cfg, prof, "zf", s0, p0=10.0, p1=10.0)
    assert alloc.status == "optimal" and alloc.converged
    assert alloc.achieved_se == pytest.approx(s0, rel=1e-3)

    # dense 2-D log grid over (p, P); its minimum upper-bounds the true one
    coeffs = sinr_coefficients(cfg, prof, "zf")
    p = np.logspace(-3, 1, 1200)
    pr = np.logspace(-3, 1, 1200)
    sr = coeffs.a[0] * p[:, None] / (coeffs.b[0] * p[:, None]
                                     + coeffs.c[0] * pr[None, :] + 1.0)
    rd = coeffs.d[0] * pr / (coeffs.e[0] * pr + 1.0)
    se = (cfg.T - cfg.tau) / cfg.T * np.log2(1.0 + np.minimum(sr, rd[None, :]))
    total = p[:, None] + pr[None, :]
    feasible = se >= s0
    assert np.any(feasible)
    grid_total = float(np.min(total[feasible]))
    alg_total = float(np.sum(alloc.p_s)) + alloc.p_r
    assert alg_total <= grid_total * (1.0 + 1e-3)
    assert alg_total >= grid_total * (1.0 - 0.03)


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_allocation_dominates_uniform_power(scheme):
    # targeting exactly the uniform-peak SE must never need more power
    p0, p1 = 10.0, 100.0
    coeffs = sinr_coefficients(CFG10, PROF10, scheme)
    se_uniform = sum_se_at(coeffs, np.full(10, p0), p1, CFG10.T, CFG10.tau)
    alloc = optimize_powers(CFG10, PROF10, scheme, se_uniform, p0=p0, p1=p1)
    assert alloc.status == "optimal"
    assert alloc.converged and alloc.iterations <= 5
    assert alloc.achieved_se == pytest.approx(se_uniform, rel=1e-3)
    total = float(np.sum(alloc.p_s)) + alloc.p_r
    assert total <= 10 * p0 + p1 + 1e-6
    ee_uniform = energy_efficiency(se_uniform, np.full(10, p0), p1, CFG10.T, CFG10.tau)
    assert alloc.ee >= ee_uniform * (1.0 - 1e-6)
    # box constraints and bookkeeping
    assert np.all(alloc.p_s >= 0) and np.all(alloc.p_s <= p0 * (1.0 + 1e-6))
    assert 0 <= alloc.p_r <= p1 * (1.0 + 1e-6)
    assert alloc.ee == pytest.approx(
        energy_efficiency(alloc.achieved_se, alloc.p_s, alloc.p_r, CFG10.T, CFG10.tau)
    )
    assert len(alloc.total_power_trace) == alloc.iterations
    # the per-pair SINR targets are met by the returned powers
    sr, rd = coeffs.sinrs(alloc.p_s, alloc.p_r)
    np.testing.assert_array_less(alloc.gamma * (1.0 - 1e-6), np.minimum(sr, rd))


def test_gamma_reproduces_the_target_se():
    # the GP enforces the target through a monomial fit of prod(1 + gamma),
    # so the recovered SE is exact only up to the converged fit residual
    alloc = optimize_powers(CFG10, PROF10, "zf", 6.0)
    prelog = (CFG10.T - CFG10.tau) / CFG10.T
    se_from_gamma = prelog * float(np.sum(np.log2(1.0 + alloc.gamma)))
    assert se_from_gamma == pytest.approx(6.0, rel=1e-4)


def test_uncertified_gp_round_is_not_reported_optimal(monkeypatch):
    # a GP round that ends without its KKT certificate ("max_iter") may still
    # settle the SINR iterates, but the allocation must not claim optimality
    real = powalloc.solve_gp

    def uncertified(prog, *args, **kwargs):
        result = real(prog, *args, **kwargs)
        if result.status == "optimal":
            result = dataclasses.replace(result, status="max_iter")
        return result

    monkeypatch.setattr(powalloc, "solve_gp", uncertified)
    alloc = optimize_powers(CFG10, PROF10, "zf", 6.0)
    assert alloc.converged
    assert alloc.status == "max_iterations"
    assert np.all(np.isfinite(alloc.p_s)) and math.isfinite(alloc.p_r)


def test_gp_round_without_a_feasible_point_stops_the_allocation(monkeypatch):
    # a GP whose phase 1 is cut off by the step cap ("max_iter", NaN x) ends
    # the rounds as an infeasible one does: no NaN power is taken from it
    real = powalloc.solve_gp
    calls = []

    def cut_after_first(prog, *args, **kwargs):
        calls.append(prog)
        if len(calls) == 1:
            return real(prog, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(gp, "NEWTON_CAP", 0)
            result = real(prog)  # from the box midpoint, which is infeasible
        assert result.status == "max_iter" and math.isnan(result.value)
        return result

    monkeypatch.setattr(powalloc, "solve_gp", cut_after_first)
    alloc = optimize_powers(CFG10, PROF10, "zf", 6.0)
    # the cut ends the warm-up, then the first measured round
    assert len(calls) == 3 and alloc.status == "max_iterations"
    assert np.all(np.isfinite(alloc.p_s)) and math.isfinite(alloc.p_r)
    # the first round cut off: no round found a feasible point
    monkeypatch.setattr(powalloc, "solve_gp", real)
    monkeypatch.setattr(gp, "NEWTON_CAP", 0)
    alloc = optimize_powers(CFG10, PROF10, "zf", 6.0)
    assert alloc.status == "infeasible" and np.all(np.isnan(alloc.p_s))


@pytest.mark.parametrize("scheme, sigma_li_sq, s0", [
    ("zf", 1.0, 200.0), ("zf", 1.0, 600.0), ("zf", 1.0, 1e6),
    ("zf", 1e20, 2.0), ("zf", 1e20, 14.0), ("mr", 1e20, 2.0), ("mr", 1e20, 14.0)])
def test_infeasible_target_reports_cleanly(scheme, sigma_li_sq, s0):
    # the status is the one signal: no warning and no error, whether the SINR
    # bound rules the target out (the large s0) or the GP rounds find no
    # feasible point (the loop interference of 1e20)
    cfg = dataclasses.replace(CFG10, sigma_li_sq=sigma_li_sq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alloc = optimize_powers(cfg, PROF10, scheme, s0)
    assert alloc.status == "infeasible" and alloc.iterations == 1
    assert not alloc.converged
    assert np.all(np.isnan(alloc.p_s)) and math.isnan(alloc.p_r)
    assert alloc.achieved_se == 0.0 and alloc.ee == 0.0
    assert alloc.total_power_trace == ()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["zf", "mr"])
@pytest.mark.parametrize("sigma_li_sq, p0, p1, message", [
    (1e300, 10.0, 1e10, "p1 too large: the uniform-peak SINR term c*p1 is not finite"),
    (1.0, 1e307, 100.0, "p0 too large: the uniform-peak SINR term a*p0 is not finite"),
])
def test_peaks_that_overflow_a_uniform_peak_term_are_refused_by_name(
        scheme, sigma_li_sq, p0, p1, message):
    # c*p1 = inf once made every uniform-peak SINR 0 and the first center NaN,
    # which Posynomial refused without naming an argument; the check names
    # the peak before any arithmetic overflows (a RuntimeWarning is an error)
    cfg = dataclasses.replace(CFG10, sigma_li_sq=sigma_li_sq)
    with pytest.raises(ValueError) as exc:
        optimize_powers(cfg, PROF10, scheme, 2.0, p0=p0, p1=p1)
    assert str(exc.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, p0, p1, name, term", [
    ("a", 1e300, 1.0, "p0", "a*p0"),
    ("b", 1e300, 1.0, "p0", "sum(b)*p0"),
    ("c", 1.0, 1e300, "p1", "c*p1"),
    ("d", 1.0, 1e300, "p1", "d*p1"),
    ("e", 1.0, 1e300, "p1", "e*p1"),
    (None, 1e308, 1e308, "p0 and p1", "sum(b)*p0 + c*p1"),
])
def test_each_uniform_peak_term_is_checked(field, p0, p1, name, term):
    # tiny coefficients keep every term finite and 1e10 in one field
    # overflows its term alone; with b and c near 1 the first-hop
    # denominator overflows as a sum of finite terms
    coeffs = {f: np.full(3, 1e-8 if field is None else 1e-300) for f in "abcde"}
    if field is not None:
        coeffs[field] = np.full(3, 1e10)
    else:
        coeffs["b"], coeffs["c"] = np.full(3, 0.5), np.full(3, 1.0)
    with pytest.raises(ValueError) as exc:
        powalloc._init_gamma(SinrCoefficients(**coeffs, scheme="zf"), 1.0, p0, p1)
    assert str(exc.value) == (f"{name} too large: the uniform-peak SINR term {term} "
                              "is not finite")


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_a_target_below_the_sinr_floor_is_refused_by_name(scheme):
    # every round holds each SINR at or above GAMMA_FLOOR, so no round meets a
    # sum SE below (T - tau)/T K log2(1 + GAMMA_FLOOR); such a target once came
    # back "infeasible", the status of a target out of reach under the peaks.
    # LIBRARY_REFUSALS (test_boundary.py) refuses 1e-9, 5e-9 and the float
    # below the floor at this config; the floor itself is met
    cfg = SystemConfig(K=4, Nrx=32, Ntx=32, tau=8)
    prof = make_profile(np.ones(4), np.ones(4), cfg.tau, cfg.Pp)
    floor = (cfg.T - cfg.tau) / cfg.T * cfg.K * math.log2(1.0 + powalloc.GAMMA_FLOOR)
    assert 5e-9 < floor < 1e-8
    for s0 in (floor, 1e-8):
        alloc = optimize_powers(cfg, prof, scheme, s0)
        assert alloc.status == "optimal", s0
        assert alloc.achieved_se == pytest.approx(s0, rel=0.02)


def _round_gp_by_loops(coeffs, center, s0, p0, p1, T, tau, trust):
    """_round_gp written one row at a time, variables (p, p_r, gamma)."""
    k = coeffs.K
    n = 2 * k + 1

    def unit(ix):
        row = np.zeros(n)
        row[ix] = 1.0
        return row

    ineqs = []
    for i in range(k):
        rows, co = [], []
        for j in range(k):
            r = unit(k + 1 + i) - unit(i)
            r[j] += 1.0
            rows.append(r)
            co.append(coeffs.b[j] / coeffs.a[i])
        rows.append(unit(k + 1 + i) - unit(i) + unit(k))
        co.append(coeffs.c[i] / coeffs.a[i])
        rows.append(unit(k + 1 + i) - unit(i))
        co.append(1.0 / coeffs.a[i])
        ineqs.append((np.array(co), np.vstack(rows)))
    for i in range(k):
        rows = [unit(k + 1 + i), unit(k + 1 + i) - unit(k)]
        ineqs.append((np.array([coeffs.e[i] / coeffs.d[i], 1.0 / coeffs.d[i]]),
                      np.vstack(rows)))
    eta = center / (1.0 + center)
    kappa = center ** (-eta) * (1.0 + center)
    eq_row = np.concatenate([np.zeros(k + 1), eta])
    eq_coeff = float(np.prod(kappa)) / 2.0 ** (T * s0 / (T - tau))
    lower = np.concatenate([np.full(k, powalloc.POWER_FLOOR_SCALE * p0),
                            [powalloc.POWER_FLOOR_SCALE * p1],
                            np.maximum(center / trust, powalloc.GAMMA_FLOOR)])
    upper = np.concatenate([np.full(k, p0), [p1], trust * center])
    return ineqs, (eq_coeff, eq_row), lower, upper


@pytest.mark.parametrize("k", [1, 3])
def test_round_gp_matches_row_by_row_construction(k):
    rng = np.random.default_rng(40 + k)
    coeffs = SinrCoefficients(*(rng.uniform(0.1, 5.0, size=k) for _ in range(5)),
                              scheme="zf")
    center = rng.uniform(0.5, 20.0, size=k)
    base = powalloc._sinr_program(coeffs, 10.0, 100.0)
    prog = powalloc._round_gp(base, center, 1.1, 200 * 3.0 / (200 - 20))
    ineqs, (eq_coeff, eq_row), lower, upper = _round_gp_by_loops(
        coeffs, center, 3.0, 10.0, 100.0, 200, 20, 1.1)
    assert len(prog.inequalities) == len(ineqs) == 2 * k
    for got, (co, rows) in zip(prog.inequalities, ineqs):
        assert np.array_equal(got.coeffs, co)
        assert np.array_equal(got.exponents, rows)
    np.testing.assert_array_equal(prog.objective.coeffs, np.ones(k + 1))
    np.testing.assert_array_equal(prog.objective.exponents,
                                  np.eye(2 * k + 1)[: k + 1])
    (eq,) = prog.equalities
    assert np.array_equal(eq.coeffs, [eq_coeff])
    assert np.array_equal(eq.exponents, eq_row[None, :])
    assert np.array_equal(prog.lower, lower) and np.array_equal(prog.upper, upper)


def test_rounds_share_one_sinr_program(monkeypatch):
    # only the SE-fit equality and the gamma box move from round to round;
    # the objective and the 2K SINR inequalities are built once
    progs = []
    real = powalloc.solve_gp

    def record(prog, *args, **kwargs):
        progs.append(prog)
        return real(prog, *args, **kwargs)

    monkeypatch.setattr(powalloc, "solve_gp", record)
    optimize_powers(CFG10, PROF10, "mr", 4.0)
    first = progs[0]
    assert len(progs) > 2 and len(first.inequalities) == 2 * CFG10.K
    for prog in progs[1:]:
        assert prog.objective is first.objective
        assert len(prog.inequalities) == len(first.inequalities)
        assert all(a is b for a, b in zip(prog.inequalities, first.inequalities))


def test_every_round_after_the_first_starts_from_the_previous_optimum(monkeypatch):
    calls = []
    real = powalloc.solve_gp

    def record(prog, start=None):
        result = real(prog, start)
        calls.append((start, result.x))
        return result

    monkeypatch.setattr(powalloc, "solve_gp", record)
    alloc = optimize_powers(CFG10, PROF10, "mr", 4.0)
    assert alloc.status == "optimal" and len(calls) > alloc.iterations
    assert calls[0][0] is None
    for (_, previous), (start, _) in zip(calls, calls[1:]):
        assert np.array_equal(start, previous)


def test_warm_started_rounds_match_cold_rounds(monkeypatch):
    # the fig9 setting over its whole target range, with and without the
    # previous round's optimum as each GP's start. Total power is the GP
    # objective and agrees to the duality-gap tolerance; single powers lie
    # in a nearly flat valley of it (at ZF S0=6 the cold allocation itself
    # is 4e-6 in norm from one solved at tol 1e-12), so p_s is compared in
    # norm at 1e-5.
    cfg = SystemConfig(K=10, Nrx=200, Ntx=200, T=200, tau=20, Pp=10.0,
                       sigma_li_sq=10.0)
    prof = snapshot_profile(cfg.tau, cfg.Pp)

    def sweep():
        out = {}
        for scheme in ("zf", "mr"):
            for s0 in range(2, 15):
                out[scheme, s0] = optimize_powers(cfg, prof, scheme, float(s0),
                                                  p0=10.0, p1=100.0)
        return out

    warm = sweep()
    # the bound that rules targets out: under the peaks no SINR passes
    # gamma_max, and the uniform-peak SINRs scaled by the largest SR
    # denominator at the peaks pass it
    for scheme in ("zf", "mr"):
        co = sinr_coefficients(cfg, prof, scheme)
        gamma_max = np.minimum(co.a * 10.0, co.d * 100.0 / (co.e * 100.0 + 1.0))
        reach = np.max(10.0 * np.sum(co.b) + co.c * 100.0 + 1.0)
        gamma_peak = np.minimum(*co.sinrs(np.full(co.K, 10.0), 100.0))
        assert np.all(reach * gamma_peak >= gamma_max * (1.0 - 1e-12)), scheme
        for s0 in range(2, 15):
            gamma = warm[scheme, s0].gamma
            assert np.all(gamma <= gamma_max * (1.0 + 1e-6)), (scheme, s0)
    real = powalloc.solve_gp
    monkeypatch.setattr(powalloc, "solve_gp",
                        lambda prog, start=None: real(prog))
    cold = sweep()
    for key, a in warm.items():
        b = cold[key]
        assert (a.status, a.iterations, a.converged) == \
            (b.status, b.iterations, b.converged), key
        assert np.linalg.norm(a.p_s - b.p_s) <= 1e-5 * np.linalg.norm(b.p_s), key
        total_a, total_b = np.sum(a.p_s) + a.p_r, np.sum(b.p_s) + b.p_r
        assert total_a == pytest.approx(total_b, rel=1e-6), key
        assert a.p_r == pytest.approx(b.p_r, rel=1e-6), key
        assert a.ee == pytest.approx(b.ee, rel=1e-6), key
