"""Tests for the Monte Carlo rate machinery against the closed forms."""
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from fdrelay import (
    LargeScaleProfile,
    SystemConfig,
    convergence_probe,
    genie_rates,
    make_profile,
    mc_rate,
    rate_mr,
    rate_zf,
    simulate,
    sinr_coefficients,
    wishart_inverse_moment,
)
from fdrelay import montecarlo
from fdrelay.channel import gram_factor_batch
from fdrelay.montecarlo import alpha_mrt, alpha_zf

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


def loop_terms(cfg, trials, rng):
    """Pair 0's ZF loop power Pr E|w_0^T G_RR A|^2: simulated, and the closed
    form's Pr c_0 / a_0, the term the approximation step of the formula sets."""
    coeffs = sinr_coefficients(cfg, PROF, "zf")
    mc = cfg.Pr * mc_rate(cfg, PROF, "zf", trials, rng).sr_terms.loop[0]
    return mc, cfg.Pr * coeffs.c[0] / coeffs.a[0]


def test_zf_loop_term_gap_is_k_over_ntx():
    # exact loop power exceeds the closed-form value by exactly Ntx/(Ntx - K):
    # the formula keeps the (Ntx - K)/Ntx projection factor that the unit
    # precoder normalization already absorbs
    mc, approx = loop_terms(CFG, TRIALS, np.random.default_rng(23))
    assert approx > 0
    assert mc / approx == pytest.approx(CFG.Ntx / (CFG.Ntx - CFG.K), rel=0.05)


def test_zero_li_kills_loop_term():
    mc, approx = loop_terms(replace(CFG, sigma_li_sq=0.0), 500, np.random.default_rng(24))
    assert mc == 0.0 and approx == 0.0


def test_loop_term_gap_shrinks_with_ntx():
    ratios = []
    for ntx in (16, 32, 64):
        mc, approx = loop_terms(replace(CFG, Ntx=ntx), 8000, np.random.default_rng(ntx))
        ratios.append(mc / approx - 1.0)
    assert ratios[0] > ratios[1] > ratios[2] > 0


def assert_same_results(a, b):
    """Every field of two result dataclasses (HopTerms included) bit for bit."""
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if is_dataclass(x):
            assert_same_results(x, y)
        else:
            np.testing.assert_array_equal(x, y, err_msg=field.name)


@pytest.mark.parametrize("scheme,nrx", [("zf", 24), ("mr", 24), ("mr", 2)])
def test_simulate_matches_single_point_calls(scheme, nrx):
    # a 3-point SNR sweep over two chunks: each point's bound and genie rates
    # are those of its own mc_rate and genie_rates call on the same seed
    points = []
    for snr in (0.5, 2.0, 8.0):
        cfg = replace(CFG, Nrx=nrx, Pp=snr, Ps=snr, Pr=3.0 * snr)
        points.append((cfg, make_profile(PROF.beta_sr, PROF.beta_rd, cfg.tau, cfg.Pp)))
    trials = 5000
    results = simulate(points, scheme, trials, np.random.default_rng(31))
    assert len(results) == len(points)
    for (cfg, prof), (bound, genie) in zip(points, results):
        assert_same_results(bound, mc_rate(cfg, prof, scheme, trials,
                                           np.random.default_rng(31)))
        assert_same_results(genie, genie_rates(cfg, prof, scheme, trials,
                                               np.random.default_rng(31)))


def test_simulate_needs_points_of_one_shape():
    for other in (replace(CFG, K=2), replace(CFG, Nrx=30), replace(CFG, Ntx=30)):
        prof = make_profile(PROF.beta_sr[:other.K], PROF.beta_rd[:other.K],
                            other.tau, other.Pp)
        with pytest.raises(ValueError, match="share K, Nrx and Ntx"):
            simulate([(CFG, PROF), (other, prof)], "mr", 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one point"):
        simulate([], "mr", 10, np.random.default_rng(0))


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
    # a standard error needs a sample covariance, so two trials is the floor
    for trials in (0, 1):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            mc_rate(CFG, PROF, "zf", trials, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials must be >= 2"):
            genie_rates(CFG, PROF, "zf", trials, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials must be >= 2"):
            wishart_inverse_moment(16, PROF.sigma_sr_sq, trials, np.random.default_rng(0))
    res = mc_rate(CFG, PROF, "zf", 2, np.random.default_rng(0))
    assert np.all(np.isfinite(res.r_e2e)) and np.isfinite(res.stderr_sum_rate)
    genie = genie_rates(CFG, PROF, "zf", 2, np.random.default_rng(0))
    assert np.isfinite(genie.sum_rate) and np.isfinite(genie.stderr_sum_rate)
    # a probe reports no stderr, so one trial is enough
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            convergence_probe("decode", CFG, PROF, "zf", trials, np.random.default_rng(0))
    assert convergence_probe("decode", CFG, PROF, "zf", 1, np.random.default_rng(0)) > 0


def _two_sample_z(x, y):
    """Per-column |mean(x) - mean(y)| in units of the combined standard error."""
    se = np.sqrt(np.var(x, axis=0, ddof=1) / len(x) + np.var(y, axis=0, ddof=1) / len(y))
    return np.abs(np.mean(x, axis=0) - np.mean(y, axis=0)) / se


def _cn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _oracle_channels(cfg, prof, scheme, n, rng):
    """Brute force: explicit G_SR, G_RD and G_RR, then W^T and A from the estimates."""
    ghat_sr = _cn(rng, n, cfg.Nrx, cfg.K) * np.sqrt(prof.sigma_sr_sq)
    g_sr = ghat_sr + _cn(rng, n, cfg.Nrx, cfg.K) * np.sqrt(prof.beta_sr - prof.sigma_sr_sq)
    ghat_rd = _cn(rng, n, cfg.Ntx, cfg.K) * np.sqrt(prof.sigma_rd_sq)
    g_rd = ghat_rd + _cn(rng, n, cfg.Ntx, cfg.K) * np.sqrt(prof.beta_rd - prof.sigma_rd_sq)
    g_rr = _cn(rng, n, cfg.Nrx, cfg.Ntx) * np.sqrt(cfg.sigma_li_sq)
    ghat_sr_h = np.swapaxes(ghat_sr, 1, 2).conj()
    if scheme == "zf":
        # W^T = (Ghat^H Ghat)^-1 Ghat^H and A = alpha Ghat^* (Ghat^T Ghat^*)^-1
        w_t = np.linalg.inv(ghat_sr_h @ ghat_sr) @ ghat_sr_h
        a = alpha_zf(cfg, prof) * ghat_rd.conj() @ np.linalg.inv(
            np.swapaxes(ghat_rd, 1, 2) @ ghat_rd.conj())
    else:
        w_t, a = ghat_sr_h, alpha_mrt(cfg, prof) * ghat_rd.conj()
    return g_sr, g_rd, g_rr, w_t, a


def _oracle_terms(cfg, prof, scheme, n, rng):
    """Every per-trial product of the explicit draw."""
    g_sr, g_rd, g_rr, w_t, a = _oracle_channels(cfg, prof, scheme, n, rng)
    return (w_t @ g_sr, w_t @ g_rr @ a, np.sum(np.abs(w_t) ** 2, axis=2),
            np.swapaxes(g_rd, 1, 2) @ a)


def _per_pair(gain_sr, loop, noise, gain_rd):
    """Per-trial, per-pair real statistics of the bound and genie terms."""
    diag_sr = np.diagonal(gain_sr, axis1=1, axis2=2)
    diag_rd = np.diagonal(gain_rd, axis1=1, axis2=2)
    abs2_sr, abs2_rd = np.abs(gain_sr) ** 2, np.abs(gain_rd) ** 2
    return {
        "gain_sr": diag_sr.real,
        "gain_sr_im": diag_sr.imag,
        "multipair_sr": np.sum(abs2_sr, axis=2) - np.abs(diag_sr) ** 2,
        "loop": np.sum(np.abs(loop) ** 2, axis=2),
        "noise": noise,
        "gain_rd": diag_rd.real,
        "gain_rd_im": diag_rd.imag,
        "multipair_rd": np.sum(abs2_rd, axis=2) - np.abs(diag_rd) ** 2,
    }


@pytest.mark.parametrize("scheme,nrx,ntx",
                         [("zf", 8, 6), ("mr", 8, 6), ("mr", 2, 6), ("mr", 8, 2)])
def test_trial_terms_match_brute_force_oracle(scheme, nrx, ntx):
    # weak pilots, so the error variances beta - sigma^2 differ between pairs and hops
    cfg = replace(CFG, Nrx=nrx, Ntx=ntx, Pp=0.5, sigma_li_sq=0.7)
    prof = make_profile([0.3, 1.0, 3.0], [2.5, 0.4, 1.2], cfg.tau, cfg.Pp)
    n = 20_000
    rng = np.random.default_rng(41)
    draw = montecarlo._draw(cfg, n, rng)
    drawn = montecarlo._trial_terms(cfg, prof, scheme, draw)[:4]
    oracle = _oracle_terms(cfg, prof, scheme, n, rng)
    assert [x.shape for x in drawn] == [x.shape for x in oracle] == [
        (n, cfg.K, cfg.K), (n, cfg.K, cfg.K), (n, cfg.K), (n, cfg.K, cfg.K)]
    stats_drawn, stats_oracle = _per_pair(*drawn), _per_pair(*oracle)
    for name in stats_drawn:
        x, y = stats_drawn[name], stats_oracle[name]
        assert np.all(_two_sample_z(x, y) < 4.0), name
        assert np.all(_two_sample_z(x**2, y**2) < 4.0), name + " squared"

    # given the Grams, E[loop_k] = sigma_li^2 ||w_k||^2 ||A||_F^2 exactly, with
    # ||A||_F^2 = alpha^2 tr(Gram_rd^-1) for ZF and alpha^2 tr(Gram_rd) for MR
    f_rd = np.sqrt(prof.sigma_rd_sq)[:, None] * draw[1]
    gram_rd = f_rd @ np.swapaxes(f_rd, 1, 2).conj()
    if scheme == "zf":
        a_f2 = alpha_zf(cfg, prof) ** 2 * np.trace(np.linalg.inv(gram_rd), axis1=1, axis2=2)
    else:
        a_f2 = alpha_mrt(cfg, prof) ** 2 * np.trace(gram_rd, axis1=1, axis2=2)
    resid = stats_drawn["loop"] - cfg.sigma_li_sq * drawn[2] * a_f2.real[:, None]
    se = np.std(resid, axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(np.mean(resid, axis=0)) < 4.0 * se)


def _oracle_probe(kind, cfg, prof, scheme, n, rng, er):
    """The N-dimensional probe: per-trial residual power from explicit channels and noise."""
    g_sr, g_rd, g_rr, w_t, a = _oracle_channels(cfg, prof, scheme, n, rng)
    x, x_fwd = _cn(rng, n, cfg.K), _cn(rng, n, cfg.K)
    a_x = (a @ x_fwd[..., None])[..., 0]  # relay transmit vector
    if kind == "decode":
        y = (np.sqrt(cfg.Ps) * (g_sr @ x[..., None])[..., 0]
             + np.sqrt(cfg.Pr) * (g_rr @ a_x[..., None])[..., 0]
             + _cn(rng, n, cfg.Nrx))
        r = (w_t @ y[..., None])[..., 0]
        if scheme == "mr":
            r = r / (cfg.Nrx * prof.sigma_sr_sq)
        resid = r - np.sqrt(cfg.Ps) * x
    elif kind == "loop_power":
        resid = np.sqrt(er / cfg.Ntx) * (g_rr @ a_x[..., None])[..., 0]
    else:
        recv = np.sqrt(er / cfg.Ntx) * (np.swapaxes(g_rd, 1, 2) @ a_x[..., None])[..., 0]
        if scheme == "zf":
            limit = np.sqrt(er / np.sum(1.0 / prof.sigma_rd_sq))
        else:
            limit = np.sqrt(er * prof.sigma_rd_sq ** 2 / np.sum(prof.sigma_rd_sq))
        resid = recv - limit * x_fwd
    return np.mean(np.abs(resid) ** 2, axis=1)


@pytest.mark.parametrize("kind", ["decode", "loop_power", "forward"])
@pytest.mark.parametrize("scheme,nrx,ntx",
                         [("zf", 8, 6), ("mr", 8, 6), ("mr", 2, 6), ("mr", 8, 2)])
def test_probe_terms_match_the_n_dimensional_probe(kind, scheme, nrx, ntx):
    # the weak-pilot profile of the _trial_terms oracle test; the probe is a
    # conditional mean of the oracle's residual, so its variance is at most
    # the oracle's and sqrt(2) se_oracle bounds the stderr of the difference
    cfg = replace(CFG, Nrx=nrx, Ntx=ntx, Pp=0.5, sigma_li_sq=0.7)
    prof = make_profile([0.3, 1.0, 3.0], [2.5, 0.4, 1.2], cfg.tau, cfg.Pp)
    n = 20_000
    rng = np.random.default_rng(43)
    value = convergence_probe(kind, cfg, prof, scheme, n, rng, er=10.0)
    oracle = _oracle_probe(kind, cfg, prof, scheme, n, rng, er=10.0)
    se = np.std(oracle, ddof=1) / np.sqrt(n)
    assert abs(value - np.mean(oracle)) < 4.0 * np.sqrt(2.0) * se


def _closed_probes(cfg, scheme, er, mc):
    """decode and forward in the pooled bound terms of one mc_rate result."""
    sr, rd = mc.sr_terms, mc.rd_terms
    c = 1.0 if scheme == "zf" else cfg.Nrx * PROF.sigma_sr_sq
    gain2_sr = sr.var_gain + np.abs(sr.mean_gain) ** 2
    decode = np.mean(cfg.Ps * (gain2_sr / c ** 2 - 2.0 * sr.mean_gain.real / c + 1.0)
                     + (cfg.Ps * sr.multipair + cfg.Pr * sr.loop + sr.noise) / c ** 2)
    if scheme == "zf":
        limit = np.sqrt(er / np.sum(1.0 / PROF.sigma_rd_sq))
    else:
        limit = np.sqrt(er * PROF.sigma_rd_sq ** 2 / np.sum(PROF.sigma_rd_sq))
    pr = er / cfg.Ntx
    forward = np.mean(pr * (rd.var_gain + np.abs(rd.mean_gain) ** 2 + rd.multipair)
                      - 2.0 * np.sqrt(pr) * limit * rd.mean_gain.real + limit ** 2)
    return {"decode": decode, "forward": forward}


def test_probe_is_the_mean_of_its_trials():
    # on the same seed, decode and forward are their closed forms in the
    # bound's pooled terms, and loop_power the mean of the per-trial ||a_k||^2
    cfg, er, n = replace(CFG, Nrx=16, Ntx=12), 5.0, 300
    for scheme in ("zf", "mr"):
        expected = _closed_probes(
            cfg, scheme, er, mc_rate(cfg, PROF, scheme, n, np.random.default_rng(44)))
        power = montecarlo._trial_terms(
            cfg, PROF, scheme, montecarlo._draw(cfg, n, np.random.default_rng(44)))[4]
        expected["loop_power"] = cfg.sigma_li_sq * er / cfg.Ntx * np.mean(
            np.sum(power, axis=1))
        for kind, want in expected.items():
            value = convergence_probe(kind, cfg, PROF, scheme, n,
                                      np.random.default_rng(44), er=er)
            assert value == pytest.approx(want, rel=1e-12), (scheme, kind)


def test_monte_carlo_cost_is_flat_in_the_array_size():
    # every entry point at Nrx = Ntx = 2^16 allocates far less than one
    # Nrx x K complex array, so none draws a length-N vector
    big = replace(CFG, Nrx=2 ** 16, Ntx=2 ** 16)
    column_block = big.Nrx * big.K * 16
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        for scheme in ("zf", "mr"):
            mc_rate(big, PROF, scheme, 40, rng)
            genie_rates(big, PROF, scheme, 40, rng)
            simulate([(big, PROF), (replace(big, Ps=8.0), PROF)], scheme, 40, rng)
            for kind in ("decode", "loop_power", "forward"):
                convergence_probe(kind, big, PROF, scheme, 40, rng, er=10.0)
        wishart_inverse_moment(big.Nrx, PROF.sigma_sr_sq, 40, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < column_block / 8, f"traced peak {peak} B"


def test_zf_inverts_the_estimated_channels():
    # saturated estimates (sigma^2 = beta) leave no error, so in every trial
    # W^T G_SR = I and G_RD^T A = alpha I
    prof = LargeScaleProfile(beta_sr=PROF.sigma_sr_sq, beta_rd=PROF.sigma_rd_sq,
                             sigma_sr_sq=PROF.sigma_sr_sq, sigma_rd_sq=PROF.sigma_rd_sq)
    gain_sr, _, _, gain_rd = montecarlo._trial_terms(
        CFG, prof, "zf", montecarlo._draw(CFG, 500, np.random.default_rng(45)))[:4]
    eye = np.broadcast_to(np.eye(CFG.K), gain_sr.shape)
    np.testing.assert_allclose(gain_sr, eye, rtol=0, atol=1e-10)
    np.testing.assert_allclose(gain_rd, alpha_zf(CFG, prof) * eye, rtol=0, atol=1e-10)


def test_alpha_formulas_by_hand():
    # alpha_zf^2 = (Ntx - K) / sum(1/sigma_rd^2), alpha_mrt^2 = 1 / (Ntx sum sigma_rd^2)
    s2 = PROF.sigma_rd_sq
    assert alpha_zf(CFG, PROF) == pytest.approx(np.sqrt((CFG.Ntx - CFG.K) / np.sum(1.0 / s2)))
    assert alpha_mrt(CFG, PROF) == pytest.approx(np.sqrt(1.0 / (CFG.Ntx * np.sum(s2))))


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_average_transmit_power_is_unit(scheme):
    # E||A||_F^2 = alpha^2 E tr(Gram_rd^-1) (ZF) or alpha^2 E tr(Gram_rd) (MR) = 1
    n = 20_000
    f = np.sqrt(PROF.sigma_rd_sq)[:, None] * gram_factor_batch(
        CFG.Ntx, CFG.K, n, np.random.default_rng(46))
    if scheme == "zf":
        power = alpha_zf(CFG, PROF) ** 2 * np.sum(np.abs(np.linalg.inv(f)) ** 2, axis=(1, 2))
    else:
        power = alpha_mrt(CFG, PROF) ** 2 * np.sum(np.abs(f) ** 2, axis=(1, 2))
    se = np.std(power, ddof=1) / np.sqrt(n)
    assert abs(np.mean(power) - 1.0) < 4.0 * se


def test_zero_forcing_fails_cleanly_at_its_boundary():
    msg = "zero forcing needs Nrx > K and Ntx > K"
    for nrx, ntx in ((2, 24), (24, 2), (CFG.K, 24), (24, CFG.K)):
        cfg = replace(CFG, Nrx=nrx, Ntx=ntx)
        with pytest.raises(ValueError, match=msg):
            mc_rate(cfg, PROF, "zf", 40, np.random.default_rng(0))
        with pytest.raises(ValueError, match=msg):
            genie_rates(cfg, PROF, "zf", 40, np.random.default_rng(0))
        with pytest.raises(ValueError, match=msg):
            convergence_probe("decode", cfg, PROF, "zf", 40, np.random.default_rng(0))
        # MR has no such boundary
        assert np.all(np.isfinite(mc_rate(cfg, PROF, "mr", 40,
                                          np.random.default_rng(0)).r_e2e))


def _bound_estimates(cfg, means):
    """Every reported function of the pooled bound features, means (10, K)."""
    re_sr, im_sr, gain2_sr, mp_sr, loop, noise, re_rd, im_rd, gain2_rd, mp_rd = means
    mag2_sr, mag2_rd = re_sr ** 2 + im_sr ** 2, re_rd ** 2 + im_rd ** 2
    var_sr, var_rd = gain2_sr - mag2_sr, gain2_rd - mag2_rd
    r_sr = np.log2(1.0 + cfg.Ps * mag2_sr / (
        cfg.Ps * var_sr + cfg.Ps * mp_sr + cfg.Pr * loop + noise))
    r_rd = np.log2(1.0 + cfg.Pr * mag2_rd / (cfg.Pr * var_rd + cfg.Pr * mp_rd + 1.0))
    r_e2e = np.minimum(r_sr, r_rd)
    return {"mean_gain": np.sqrt(mag2_sr), "var_gain": var_sr, "r_sr": r_sr,
            "r_rd": r_rd, "r_e2e": r_e2e, "sum_rate": np.sum(r_e2e, keepdims=True)}


def _delta_stderr(fn, features):
    """Delta-method stderr of fn(pooled means) from a central-difference
    gradient and the per-trial sample covariance; features (n, F, K)."""
    n = features.shape[0]
    flat = features.reshape(n, -1)
    mean = np.mean(flat, axis=0)
    grad = []
    for i in range(mean.size):
        h = 1e-6 * max(abs(mean[i]), 1.0)
        up, down = mean.copy(), mean.copy()
        up[i] += h
        down[i] -= h
        grad.append((fn(up.reshape(features.shape[1:]))
                     - fn(down.reshape(features.shape[1:]))) / (2.0 * h))
    grad = np.array(grad)  # (F K, outputs)
    cov = np.cov(flat, rowvar=False)
    return np.sqrt(np.einsum("io,ij,jo->o", grad, cov, grad) / n)


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_plain_moment_stderr_is_the_iid_one(scheme):
    # one chunk, replayed by hand: the multipair, loop and noise stderrs are
    # the per-trial sample sd over sqrt(trials); the gain magnitude and
    # variance, the rates and the sum rate take the delta method with a
    # finite-difference gradient
    n = 300
    res = mc_rate(CFG, PROF, scheme, n, np.random.default_rng(77))
    gain_sr, loop, noise, gain_rd = montecarlo._trial_terms(
        CFG, PROF, scheme, montecarlo._draw(CFG, n, np.random.default_rng(77)))[:4]
    stats = _per_pair(gain_sr, loop, noise, gain_rd)
    for name, key in (("multipair", "multipair_sr"), ("loop", "loop"), ("noise", "noise")):
        x = stats[key]
        np.testing.assert_allclose(getattr(res.sr_terms, name), np.mean(x, axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(getattr(res.sr_terms, "stderr_" + name),
                                   np.std(x, axis=0, ddof=1) / np.sqrt(n), rtol=1e-9)

    features = np.stack([
        stats["gain_sr"], stats["gain_sr_im"],
        stats["gain_sr"] ** 2 + stats["gain_sr_im"] ** 2,
        stats["multipair_sr"], stats["loop"], stats["noise"],
        stats["gain_rd"], stats["gain_rd_im"],
        stats["gain_rd"] ** 2 + stats["gain_rd_im"] ** 2, stats["multipair_rd"],
    ], axis=1)
    reported = {
        "mean_gain": res.sr_terms.stderr_mean_gain,
        "var_gain": res.sr_terms.stderr_var_gain,
        "r_sr": res.stderr_r_sr, "r_rd": res.stderr_r_rd,
        "r_e2e": res.stderr_r_e2e, "sum_rate": res.stderr_sum_rate,
    }
    for name, stderr in reported.items():
        expect = _delta_stderr(lambda m: _bound_estimates(CFG, m)[name], features)
        np.testing.assert_allclose(stderr, expect.reshape(np.shape(stderr)),
                                   rtol=1e-5, err_msg=name)


def test_second_hop_has_unit_noise_and_no_loop_term():
    rd = mc_rate(CFG, PROF, "mr", 400, np.random.default_rng(5)).rd_terms
    np.testing.assert_array_equal(rd.noise, 1.0)
    np.testing.assert_array_equal(rd.loop, 0.0)
    np.testing.assert_array_equal(rd.stderr_noise, 0.0)
    np.testing.assert_array_equal(rd.stderr_loop, 0.0)
