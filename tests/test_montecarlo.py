"""Tests for the Monte Carlo rate machinery against the closed forms."""
from dataclasses import replace

import numpy as np
import pytest

from fdrelay import (
    SystemConfig,
    direct_channel_batch,
    convergence_probe,
    genie_rates,
    li_approx_oracle,
    make_profile,
    mc_rate,
    rate_mr,
    rate_zf,
    wishart_inverse_moment,
)
from fdrelay import montecarlo

CFG = SystemConfig(K=3, Nrx=24, Ntx=24, tau=6, Pp=4.0, Ps=2.0, Pr=6.0, sigma_li_sq=1.0)
PROF = make_profile([0.6, 1.0, 1.8], [1.4, 0.7, 1.1], CFG.tau, CFG.Pp)
TRIALS = 20_000


def assert_within_stderr(measured, expected, stderr, n_sigma=4.0, floor=1e-3):
    np.testing.assert_array_less(
        np.abs(measured - expected), n_sigma * stderr + floor
    )


def test_mr_bound_matches_exact_closed_form():
    res = mc_rate(CFG, PROF, "mr", TRIALS, np.random.default_rng(21))
    ref = rate_mr(CFG, PROF)
    assert_within_stderr(res.r_sr, ref.r_sr, res.stderr_r_sr)
    assert_within_stderr(res.r_rd, ref.r_rd, res.stderr_r_rd)
    assert res.trials == TRIALS and res.scheme == "mr"


def test_zf_bound_matches_closed_form_without_li():
    # with no loop interference the ZF formula has no approximation left
    cfg = replace(CFG, sigma_li_sq=0.0)
    res = mc_rate(cfg, PROF, "zf", TRIALS, np.random.default_rng(22))
    ref = rate_zf(cfg, PROF)
    assert_within_stderr(res.r_sr, ref.r_sr, res.stderr_r_sr)
    assert_within_stderr(res.r_rd, ref.r_rd, res.stderr_r_rd)


def test_zf_loop_term_gap_is_k_over_ntx():
    # exact loop power exceeds the closed-form value by exactly Ntx/(Ntx - K):
    # the formula keeps the (Ntx - K)/Ntx projection factor that the unit
    # precoder normalization already absorbs
    mc, approx = li_approx_oracle(CFG, PROF, TRIALS, np.random.default_rng(23))
    assert approx > 0
    assert mc / approx == pytest.approx(CFG.Ntx / (CFG.Ntx - CFG.K), rel=0.05)


def test_zero_li_kills_loop_term():
    cfg = replace(CFG, sigma_li_sq=0.0)
    mc, approx = li_approx_oracle(cfg, PROF, 500, np.random.default_rng(24))
    assert mc == 0.0 and approx == 0.0
    with pytest.raises(ValueError):
        li_approx_oracle(CFG, PROF, 500, np.random.default_rng(0), pair=CFG.K)


def test_loop_term_gap_shrinks_with_ntx():
    ratios = []
    for ntx in (16, 32, 64):
        cfg = replace(CFG, Ntx=ntx)
        mc, approx = li_approx_oracle(cfg, PROF, 8000, np.random.default_rng(ntx))
        ratios.append(mc / approx - 1.0)
    assert ratios[0] > ratios[1] > ratios[2] > 0


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_genie_rates_dominate_the_bound(scheme):
    rng = np.random.default_rng(25)
    bound = mc_rate(CFG, PROF, scheme, TRIALS, rng)
    genie = genie_rates(CFG, PROF, scheme, TRIALS, rng)
    slack = 4.0 * (genie.stderr_r_e2e + bound.stderr_r_e2e) + 1e-3
    np.testing.assert_array_less(bound.r_e2e, genie.r_e2e + slack)
    assert genie.sum_rate > 0


def test_wishart_inverse_moment_closed_form():
    variances = np.array([0.5, 1.0, 2.0])
    mean, stderr = wishart_inverse_moment(16, variances, TRIALS, np.random.default_rng(26))
    expect = 1.0 / ((16 - 3) * variances)
    assert_within_stderr(mean, expect, stderr, floor=0.0)
    with pytest.raises(ValueError):
        wishart_inverse_moment(3, variances, 100, np.random.default_rng(0))


def test_wishart_inverse_moment_scale_and_k1():
    rng = np.random.default_rng(27)
    mean1, _ = wishart_inverse_moment(8, [1.0], 10_000, rng)
    mean2, _ = wishart_inverse_moment(8, [4.0], 10_000, rng)
    # homogeneity: quadrupling the variance quarters the inverse moment
    assert mean2[0] * 4.0 == pytest.approx(mean1[0], rel=0.1)
    assert mean1[0] == pytest.approx(1.0 / 7.0, rel=0.05)


def test_decode_probe_vanishes_with_antennas():
    es = 40.0
    values = []
    for nrx in (16, 64, 256):
        cfg = SystemConfig(K=2, Nrx=nrx, Ntx=16, tau=4, Pp=4.0,
                           Ps=es / nrx, Pr=es / nrx, sigma_li_sq=1.0)
        prof = make_profile([1.0, 0.8], [1.0, 1.2], cfg.tau, cfg.Pp)
        values.append(convergence_probe("decode", cfg, prof, "zf", 2000,
                                        np.random.default_rng(nrx)))
    assert all(v > 0 for v in values)
    assert values[0] > values[1] > values[2]


def test_loop_power_probe_vanishes_with_antennas():
    er = 40.0
    values = []
    for ntx in (16, 64, 256):
        cfg = SystemConfig(K=2, Nrx=16, Ntx=ntx, tau=4, Pp=4.0, sigma_li_sq=1.0)
        prof = make_profile([1.0, 0.8], [1.0, 1.2], cfg.tau, cfg.Pp)
        values.append(convergence_probe("loop_power", cfg, prof, "mr", 2000,
                                        np.random.default_rng(ntx), er=er))
    assert all(v > 0 for v in values)
    assert values[0] > values[1] > values[2]


def test_forward_probe_and_validation():
    cfg = SystemConfig(K=2, Nrx=16, Ntx=64, tau=4, Pp=4.0)
    prof = make_profile([1.0, 0.8], [1.0, 1.2], cfg.tau, cfg.Pp)
    v = convergence_probe("forward", cfg, prof, "zf", 1000,
                          np.random.default_rng(3), er=10.0)
    assert np.isfinite(v) and v > 0
    with pytest.raises(ValueError):
        convergence_probe("loop_power", cfg, prof, "zf", 100, np.random.default_rng(0))
    with pytest.raises(ValueError):
        convergence_probe("forward", cfg, prof, "zf", 100,
                          np.random.default_rng(0), er=-1.0)
    with pytest.raises(ValueError):
        convergence_probe("oracle", cfg, prof, "zf", 100,
                          np.random.default_rng(0), er=1.0)


def test_mc_rate_is_deterministic_per_seed():
    a = mc_rate(CFG, PROF, "zf", 600, np.random.default_rng(99))
    b = mc_rate(CFG, PROF, "zf", 600, np.random.default_rng(99))
    np.testing.assert_array_equal(a.r_e2e, b.r_e2e)
    np.testing.assert_array_equal(a.sr_terms.loop, b.sr_terms.loop)
    assert a.sum_rate == b.sum_rate


def test_trials_and_batch_guards():
    with pytest.raises(ValueError):
        mc_rate(CFG, PROF, "zf", 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mc_rate(CFG, PROF, "zf", 10, np.random.default_rng(0), batches=20)
    # one trial per batch is the smallest legal configuration
    res = mc_rate(CFG, PROF, "zf", 20, np.random.default_rng(0), batches=20)
    assert np.all(np.isfinite(res.r_e2e))


def _two_sample_z(x, y):
    """Per-column |mean(x) - mean(y)| in units of the combined standard error."""
    se = np.sqrt(np.var(x, axis=0, ddof=1) / len(x) + np.var(y, axis=0, ddof=1) / len(y))
    return np.abs(np.mean(x, axis=0) - np.mean(y, axis=0)) / se


@pytest.mark.parametrize("scheme,nrx,ntx", [("zf", 8, 6), ("mr", 8, 6), ("mr", 2, 6)])
def test_loop_term_law_matches_explicit_loop_channel(scheme, nrx, ntx):
    # fixed (W, A); the K x K draw against w_t @ G_RR @ a with G_RR iid CN(0, sigma_li^2)
    cfg = replace(CFG, Nrx=nrx, Ntx=ntx, sigma_li_sq=0.7)
    n = 20_000
    rng = np.random.default_rng(41)
    ghat_sr, _, ghat_rd, _, _ = direct_channel_batch(cfg, PROF, 1, rng, with_rr=False)
    w_t, a = montecarlo._processing(cfg, PROF, scheme, ghat_sr, ghat_rd)
    w_t, a = np.repeat(w_t, n, axis=0), np.repeat(a, n, axis=0)
    drawn = montecarlo._loop_term(cfg, w_t, a, rng)
    g_rr = np.sqrt(cfg.sigma_li_sq / 2.0) * (
        rng.standard_normal((n, nrx, ntx)) + 1j * rng.standard_normal((n, nrx, ntx)))
    oracle = w_t @ g_rr @ a
    assert drawn.shape == oracle.shape == (n, cfg.K, cfg.K)
    li_drawn = np.sum(np.abs(drawn) ** 2, axis=2)
    li_oracle = np.sum(np.abs(oracle) ** 2, axis=2)
    assert np.all(_two_sample_z(li_drawn, li_oracle) < 4.0)
    assert np.all(_two_sample_z(li_drawn**2, li_oracle**2) < 4.0)
    # the exact conditional mean sigma_li^2 ||w_k||^2 ||A||_F^2 pins both samples
    expect = cfg.sigma_li_sq * np.sum(np.abs(w_t[0]) ** 2, axis=1) * np.sum(np.abs(a[0]) ** 2)
    np.testing.assert_allclose(np.mean(li_drawn, axis=0), expect, rtol=0.05)


def test_probe_loop_vector_has_per_entry_power_of_its_law():
    cfg = replace(CFG, sigma_li_sq=0.7)
    n = 20_000
    rng = np.random.default_rng(42)
    v = np.repeat(np.sqrt(0.5) * (rng.standard_normal((1, cfg.Ntx))
                                  + 1j * rng.standard_normal((1, cfg.Ntx))), n, axis=0)
    drawn = montecarlo._loop_times(cfg, v, rng)
    g_rr = np.sqrt(cfg.sigma_li_sq / 2.0) * (
        rng.standard_normal((n, cfg.Nrx, cfg.Ntx))
        + 1j * rng.standard_normal((n, cfg.Nrx, cfg.Ntx)))
    oracle = (g_rr @ v[..., None])[..., 0]
    assert drawn.shape == oracle.shape == (n, cfg.Nrx)
    assert np.all(_two_sample_z(np.abs(drawn) ** 2, np.abs(oracle) ** 2) < 4.0)
    power = cfg.sigma_li_sq * np.sum(np.abs(v[0]) ** 2)
    assert np.mean(np.abs(drawn) ** 2) == pytest.approx(power, rel=0.02)


def test_monte_carlo_never_draws_the_loop_channel(monkeypatch):
    requested = []
    real = montecarlo.direct_channel_batch

    def spy(cfg, profile, n, rng, with_rr=True):
        requested.append(with_rr)
        return real(cfg, profile, n, rng, with_rr=with_rr)

    monkeypatch.setattr(montecarlo, "direct_channel_batch", spy)
    for scheme in ("zf", "mr"):
        mc_rate(CFG, PROF, scheme, 40, np.random.default_rng(0))
        genie_rates(CFG, PROF, scheme, 40, np.random.default_rng(1))
        for kind in ("decode", "loop_power", "forward"):
            convergence_probe(kind, CFG, PROF, scheme, 40,
                              np.random.default_rng(2), er=10.0)
    assert len(requested) == 10 and not any(requested)


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_plain_moment_stderr_is_the_iid_one(scheme):
    # one chunk, replayed by hand: the multipair, loop and noise stderrs are
    # the per-trial sample sd over sqrt(trials), whatever the batch count
    n = 300
    res = mc_rate(CFG, PROF, scheme, n, np.random.default_rng(77)).sr_terms
    rng = np.random.default_rng(77)
    ghat_sr, err_sr, ghat_rd, _, _ = direct_channel_batch(CFG, PROF, n, rng, with_rr=False)
    w_t, a = montecarlo._processing(CFG, PROF, scheme, ghat_sr, ghat_rd)
    loop = montecarlo._loop_term(CFG, w_t, a, rng)
    abs2 = np.abs(w_t @ (ghat_sr + err_sr)) ** 2
    per_trial = {
        "multipair": np.sum(abs2, axis=2) - np.diagonal(abs2, axis1=1, axis2=2),
        "loop": np.sum(np.abs(loop) ** 2, axis=2),
        "noise": np.sum(np.abs(w_t) ** 2, axis=2),
    }
    for name, x in per_trial.items():
        np.testing.assert_allclose(getattr(res, name), np.mean(x, axis=0), rtol=1e-12)
        np.testing.assert_allclose(getattr(res, "stderr_" + name),
                                   np.std(x, axis=0, ddof=1) / np.sqrt(n), rtol=1e-9)
    other = mc_rate(CFG, PROF, scheme, n, np.random.default_rng(77), batches=n).sr_terms
    np.testing.assert_allclose(other.stderr_multipair, res.stderr_multipair, rtol=1e-9)


def test_second_hop_has_unit_noise_and_no_loop_term():
    rd = mc_rate(CFG, PROF, "mr", 400, np.random.default_rng(5)).rd_terms
    np.testing.assert_array_equal(rd.noise, 1.0)
    np.testing.assert_array_equal(rd.loop, 0.0)
    np.testing.assert_array_equal(rd.stderr_noise, 0.0)
    np.testing.assert_array_equal(rd.stderr_loop, 0.0)
