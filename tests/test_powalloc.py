"""Tests for the successive-GP power allocation."""
import dataclasses
import math

import numpy as np
import pytest

from fdrelay import (
    SinrCoefficients,
    SystemConfig,
    coefficient_arrays,
    energy_efficiency,
    make_profile,
    max_feasible_se,
    optimize_powers,
    sinr_coefficients,
    snapshot_profile,
)
from fdrelay import powalloc

CFG10 = SystemConfig(K=10, Nrx=100, Ntx=100, T=200, tau=20, Pp=10.0, sigma_li_sq=1.0)
PROF10 = snapshot_profile(CFG10.tau, CFG10.Pp)


def sum_se_at(coeffs, p_s, p_r, T, tau):
    sr, rd = coeffs.sinrs(np.asarray(p_s, dtype=float), p_r)
    return (T - tau) / T * float(np.sum(np.log2(1.0 + np.minimum(sr, rd))))


def test_sinr_coefficients_match_rate_module():
    for scheme in ("zf", "mr"):
        coeffs = sinr_coefficients(CFG10, PROF10, scheme)
        a, b, c, d, e = coefficient_arrays(CFG10, PROF10, scheme)
        np.testing.assert_array_equal(coeffs.a, a)
        np.testing.assert_array_equal(coeffs.d, d)
        p_s = np.linspace(1.0, 2.0, 10)
        sr, rd = coeffs.sinrs(p_s, 5.0)
        np.testing.assert_allclose(sr, a * p_s / (b @ p_s + c * 5.0 + 1.0), rtol=1e-12)
        np.testing.assert_allclose(rd, d * 5.0 / (e * 5.0 + 1.0), rtol=1e-12)
        assert coeffs.K == 10 and coeffs.scheme == scheme


def test_sinr_coefficients_validation():
    ones = np.ones(3)
    with pytest.raises(ValueError):
        SinrCoefficients(a=ones, b=ones, c=np.array([1.0, 0.0, 1.0]),
                         d=ones, e=ones, scheme="zf")
    with pytest.raises(ValueError):
        SinrCoefficients(a=-ones, b=ones, c=ones, d=ones, e=ones, scheme="zf")


def test_energy_efficiency_formula():
    # SE over the data-phase average power (T - tau)/T * (sum p_s + p_r)
    se, p_s, p_r = 9.0, [1.0, 2.0], 3.0
    assert energy_efficiency(se, p_s, p_r, T=200, tau=20) == pytest.approx(
        9.0 / (0.9 * 6.0)
    )
    with pytest.raises(ValueError):
        energy_efficiency(1.0, [0.0], 0.0, T=200, tau=20)


def test_max_feasible_se_is_five_percent_above_uniform_peak():
    coeffs = sinr_coefficients(CFG10, PROF10, "zf")
    uniform = sum_se_at(coeffs, np.full(10, 10.0), 100.0, CFG10.T, CFG10.tau)
    assert max_feasible_se(coeffs, 10.0, 100.0, CFG10.T, CFG10.tau) == pytest.approx(
        1.05 * uniform, rel=1e-12
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
    se = cfg.prelog * np.log2(1.0 + np.minimum(sr, rd[None, :]))
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
    se_from_gamma = CFG10.prelog * float(np.sum(np.log2(1.0 + alloc.gamma)))
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


def test_infeasible_target_reports_cleanly():
    with pytest.warns(UserWarning, match="feasibility hint"):
        alloc = optimize_powers(CFG10, PROF10, "zf", 200.0)
    assert alloc.status == "infeasible"
    assert not alloc.converged
    assert np.all(np.isnan(alloc.p_s)) and math.isnan(alloc.p_r)
    assert alloc.achieved_se == 0.0 and alloc.ee == 0.0
    assert alloc.total_power_trace == ()


def test_optimizer_validation():
    with pytest.raises(ValueError):
        optimize_powers(CFG10, PROF10, "zf", 0.0)
    with pytest.raises(ValueError):
        optimize_powers(CFG10, PROF10, "zf", 1.0, eps=0.0)
    with pytest.raises(ValueError):
        optimize_powers(CFG10, PROF10, "zf", 1.0, max_rounds=0)
    with pytest.raises(ValueError):
        optimize_powers(CFG10, PROF10, "zf", 1.0, trust=1.0)
    with pytest.raises(ValueError):
        optimize_powers(CFG10, PROF10, "zf", 1.0, p0=0.0)
