"""Tests for the Monte Carlo rate machinery against the closed forms."""
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from fdrelay import (
    LargeScaleProfile,
    SystemConfig,
    convergence_probe,
    make_profile,
    rate_mr,
    rate_zf,
    simulate,
)
from fdrelay import montecarlo
from fdrelay.montecarlo import alpha_mrt, alpha_zf, gram_factor_batch, wishart_inverse_moment
from fdrelay.rates import sinr_coefficients

CFG = SystemConfig(K=3, Nrx=24, Ntx=24, tau=6, Pp=4.0, Ps=2.0, Pr=6.0, sigma_li_sq=1.0)
PROF = make_profile([0.6, 1.0, 1.8], [1.4, 0.7, 1.1], CFG.tau, CFG.Pp)
TRIALS = 20_000


def point_bound(cfg, prof, scheme, trials, rng):
    """The simulated bound of one point: simulate's first result of a single point."""
    return simulate([(cfg, prof)], scheme, trials, rng)[0][0]


def point_genie(cfg, prof, scheme, trials, rng):
    """The genie rates of one point: simulate's second result of a single point."""
    return simulate([(cfg, prof)], scheme, trials, rng)[0][1]


def _rows(cfg, prof, scheme, n, rng):
    """The (n, 12, K) feature rows of one point on one draw."""
    draw = montecarlo._draw(cfg, n, rng)
    return montecarlo._features(cfg, prof, scheme, montecarlo._bases(scheme, draw))


def assert_within_stderr(measured, expected, stderr, n_sigma=4.0, floor=1e-3):
    np.testing.assert_array_less(
        np.abs(measured - expected), n_sigma * stderr + floor
    )


def test_mr_bound_matches_exact_closed_form():
    res = point_bound(CFG, PROF, "mr", TRIALS, np.random.default_rng(21))
    ref = rate_mr(CFG, PROF)
    assert_within_stderr(res.r_sr, ref.r_sr, res.stderr_r_sr)
    assert_within_stderr(res.r_rd, ref.r_rd, res.stderr_r_rd)
    assert res.trials == TRIALS and res.scheme == "mr"


def test_zf_bound_matches_closed_form_without_li():
    # with no loop interference the ZF formula has no approximation left
    cfg = replace(CFG, sigma_li_sq=0.0)
    res = point_bound(cfg, PROF, "zf", TRIALS, np.random.default_rng(22))
    ref = rate_zf(cfg, PROF)
    assert_within_stderr(res.r_sr, ref.r_sr, res.stderr_r_sr)
    assert_within_stderr(res.r_rd, ref.r_rd, res.stderr_r_rd)


def loop_terms(cfg, trials, rng):
    """Pair 0's ZF loop power Pr E|w_0^T G_RR A|^2: simulated, and the closed
    form's Pr c_0 / a_0, the term the approximation step of the formula sets."""
    coeffs = sinr_coefficients(cfg, PROF, "zf")
    mc = cfg.Pr * point_bound(cfg, PROF, "zf", trials, rng).sr_terms.loop[0]
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
    # are those of its own mc_rate and genie_rates call on the same seed; the
    # benchmark calls those two one-point views, and this pins them
    points = []
    for snr in (0.5, 2.0, 8.0):
        cfg = replace(CFG, Nrx=nrx, Pp=snr, Ps=snr, Pr=3.0 * snr)
        points.append((cfg, make_profile(PROF.beta_sr, PROF.beta_rd, cfg.tau, cfg.Pp)))
    trials = 5000
    results = simulate(points, scheme, trials, np.random.default_rng(31))
    assert len(results) == len(points)
    for (cfg, prof), (bound, genie) in zip(points, results):
        assert_same_results(bound, montecarlo.mc_rate(cfg, prof, scheme, trials,
                                                      np.random.default_rng(31)))
        assert_same_results(genie, montecarlo.genie_rates(cfg, prof, scheme, trials,
                                                          np.random.default_rng(31)))


def test_simulate_takes_any_iterable_of_points():
    # a zip and a generator give the list's results bit for bit
    cfgs = [CFG, replace(CFG, Ps=8.0, sigma_li_sq=0.3)]
    profs = [PROF, make_profile([1.0, 0.5, 2.0], [0.7, 1.9, 1.0], CFG.tau, CFG.Pp)]
    want = simulate(list(zip(cfgs, profs)), "mr", 300, np.random.default_rng(52))
    for points in (zip(cfgs, profs), (point for point in zip(cfgs, profs))):
        got = simulate(points, "mr", 300, np.random.default_rng(52))
        assert len(got) == len(want)
        for pair, want_pair in zip(got, want):
            for result, want_result in zip(pair, want_pair):
                assert_same_results(result, want_result)


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_the_genie_rate_dominates_the_bound(scheme):
    # two passes on one stream, the bound's first
    rng = np.random.default_rng(25)
    bound = point_bound(CFG, PROF, scheme, TRIALS, rng)
    genie = point_genie(CFG, PROF, scheme, TRIALS, rng)
    slack = 4.0 * (genie.stderr_r_e2e + bound.stderr_r_e2e) + 1e-3
    np.testing.assert_array_less(bound.r_e2e, genie.r_e2e + slack)
    assert genie.sum_rate > 0


def test_wishart_inverse_moment_closed_form():
    variances = np.array([0.5, 1.0, 2.0])
    mean, stderr = wishart_inverse_moment(16, variances, TRIALS, np.random.default_rng(26))
    expect = 1.0 / ((16 - 3) * variances)
    assert_within_stderr(mean, expect, stderr, floor=0.0)


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


@pytest.mark.parametrize("scheme,ntx", [("zf", 24), ("mr", 24), ("mr", 2)])
def test_loop_power_probe_is_its_exact_value(scheme, ntx):
    # alpha_zf and alpha_mrt make E||A||_F^2 = 1, so the probe
    # sigma_li^2 (er/Ntx) E||A||_F^2 is exactly sigma_li^2 er/Ntx, also for
    # MR with fewer transmit antennas than pairs, and it draws nothing
    # (test_average_transmit_power_is_unit simulates E||A||_F^2 = 1)
    cfg = replace(CFG, Ntx=ntx, sigma_li_sq=0.7)
    er, rng = 12.0, np.random.default_rng(47)
    before = rng.bit_generator.state
    value = convergence_probe("loop_power", cfg, PROF, scheme, 4000, rng, er=er)
    assert value == cfg.sigma_li_sq * er / cfg.Ntx
    assert rng.bit_generator.state == before


def test_scheme_and_zf_dimensions_are_checked_before_the_first_draw():
    two = make_profile([0.6, 1.0], [1.4, 0.7], CFG.tau, CFG.Pp)
    pairs = "profile has 2 pairs but cfg.K is 3"
    for scheme, cfg, prof, msg in (("svd", CFG, PROF, "unknown scheme"),
                                   ("zf", replace(CFG, Nrx=CFG.K), PROF, "zero forcing needs"),
                                   ("mr", CFG, two, pairs)):
        rng = np.random.default_rng(48)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=msg):
            simulate([(cfg, prof)], scheme, 40, rng)
        assert rng.bit_generator.state == before
    # simulate checks every point, not only the first
    rng = np.random.default_rng(48)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=pairs):
        simulate([(CFG, PROF), (CFG, two)], "mr", 40, rng)
    assert rng.bit_generator.state == before


def test_the_bound_is_deterministic_per_seed():
    a = point_bound(CFG, PROF, "zf", 600, np.random.default_rng(99))
    b = point_bound(CFG, PROF, "zf", 600, np.random.default_rng(99))
    np.testing.assert_array_equal(a.r_e2e, b.r_e2e)
    np.testing.assert_array_equal(a.sr_terms.loop, b.sr_terms.loop)
    assert a.sum_rate == b.sum_rate


def test_trials_and_batch_guards():
    # two trials give a standard error, and a probe, which reports none, takes one
    res, genie = simulate([(CFG, PROF)], "zf", 2, np.random.default_rng(0))[0]
    assert np.all(np.isfinite(res.r_e2e)) and np.isfinite(res.stderr_sum_rate)
    assert np.isfinite(genie.sum_rate) and np.isfinite(genie.stderr_sum_rate)
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


def _trial_terms(cfg, prof, scheme, draw):
    """Reference: per trial the whole matrices gain_sr = [w_k^T g_j], loop =
    [w_k^T G_RR a_j], gain_rd = [g_k^T a_j] and the norms ||w_k||^2, from the
    scaled factors with a general inverse and per-point matmuls."""
    r_sr_h, r_rd_h, z_e, z_l, z_r = draw
    f_sr = np.sqrt(prof.sigma_sr_sq)[:, None] * r_sr_h
    f_rd = np.sqrt(prof.sigma_rd_sq)[:, None] * r_rd_h
    if scheme == "zf":
        u_w = np.swapaxes(np.linalg.inv(f_sr), 1, 2).conj()
        u_a = alpha_zf(cfg, prof) * np.swapaxes(np.linalg.inv(f_rd), 1, 2).conj()
    else:
        u_w, u_a = f_sr, alpha_mrt(cfg, prof) * f_rd
    u_a_t = np.swapaxes(u_a, 1, 2)
    d_sr = np.sqrt(prof.beta_sr - prof.sigma_sr_sq)
    d_rd = np.sqrt(prof.beta_rd - prof.sigma_rd_sq)
    gain_sr = u_w @ (np.swapaxes(f_sr, 1, 2).conj() + z_e * d_sr)
    loop = np.sqrt(cfg.sigma_li_sq) * (u_w @ z_l @ u_a_t)
    noise = np.sum(np.abs(u_w) ** 2, axis=2)
    gain_rd = (f_rd.conj() + d_rd[:, None] * z_r) @ u_a_t
    return gain_sr, loop, noise, gain_rd


def _reference_rows(cfg, prof, scheme, draw):
    """The (n, 12, K) feature rows of montecarlo._features, from _trial_terms."""
    gain_sr, loop, noise, gain_rd = _trial_terms(cfg, prof, scheme, draw)
    st = _per_pair(gain_sr, loop, noise, gain_rd)
    gain2_sr = st["gain_sr"] ** 2 + st["gain_sr_im"] ** 2
    gain2_rd = st["gain_rd"] ** 2 + st["gain_rd_im"] ** 2
    sinr_sr = cfg.Ps * gain2_sr / (cfg.Ps * st["multipair_sr"] + cfg.Pr * st["loop"] + noise)
    sinr_rd = cfg.Pr * gain2_rd / (cfg.Pr * st["multipair_rd"] + 1.0)
    return np.stack([
        st["gain_sr"], st["gain_sr_im"], gain2_sr, st["multipair_sr"], st["loop"], noise,
        st["gain_rd"], st["gain_rd_im"], gain2_rd, st["multipair_rd"],
        np.log2(1.0 + sinr_sr), np.log2(1.0 + sinr_rd)], axis=1)


def _weak_pilots(nrx, ntx):
    """Weak pilots, so the error variances beta - sigma^2 differ between pairs and hops."""
    cfg = replace(CFG, Nrx=nrx, Ntx=ntx, Pp=0.5, sigma_li_sq=0.7)
    return cfg, make_profile([0.3, 1.0, 3.0], [2.5, 0.4, 1.2], cfg.tau, cfg.Pp)


_SHAPES = [("zf", 8, 6), ("mr", 8, 6), ("mr", 2, 6), ("mr", 8, 2)]


@pytest.mark.parametrize("scheme,nrx,ntx", _SHAPES + [("zf", 24, 24), ("mr", 24, 24)])
def test_features_equal_the_per_trial_reference(scheme, nrx, ntx):
    # the bases and their per-point scalings give every feature row of the
    # reference on the same draw, to rounding; the reference reads the draw
    # first, because the ZF bases overwrite its factors
    cfg, prof = _weak_pilots(nrx, ntx)
    draw = tuple(montecarlo._draw(cfg, 400, np.random.default_rng(49)))
    want = _reference_rows(cfg, prof, scheme, draw)
    bases = montecarlo._bases(scheme, draw)
    np.testing.assert_allclose(montecarlo._features(cfg, prof, scheme, bases), want, rtol=1e-9)


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_a_sweep_pools_the_reference_rows_of_each_point(scheme):
    # three points on one draw, with their own powers, loop level and profile
    cfg, prof = _weak_pilots(8, 6)
    points = [(cfg, prof), (replace(cfg, Ps=9.0, Pr=0.3), prof),
              (replace(cfg, sigma_li_sq=3.0), make_profile([1.0, 0.5, 2.0], [0.7, 1.9, 1.0],
                                                          cfg.tau, 2.0))]
    n = 300
    accs = montecarlo._simulate(points, scheme, n, np.random.default_rng(50))
    draw = tuple(montecarlo._draw(cfg, n, np.random.default_rng(50)))
    for (c, p), acc in zip(points, accs):
        want = _reference_rows(c, p, scheme, draw)
        np.testing.assert_allclose(acc.mean, np.mean(want, axis=0), rtol=1e-9)


@pytest.mark.parametrize("scheme,nrx,ntx", _SHAPES)
def test_trial_terms_match_brute_force_oracle(scheme, nrx, ntx):
    # the feature rows of the bases against explicit N-dimensional channels
    cfg, prof = _weak_pilots(nrx, ntx)
    n = 20_000
    rng = np.random.default_rng(41)
    draw = tuple(montecarlo._draw(cfg, n, rng))
    # ||A||_F^2 = alpha^2 tr(Gram_rd^-1) for ZF and alpha^2 tr(Gram_rd) for MR,
    # read before the ZF bases overwrite the factors
    f_rd = np.sqrt(prof.sigma_rd_sq)[:, None] * draw[1]
    gram_rd = f_rd @ np.swapaxes(f_rd, 1, 2).conj()
    if scheme == "zf":
        a_f2 = alpha_zf(cfg, prof) ** 2 * np.trace(np.linalg.inv(gram_rd), axis1=1, axis2=2)
    else:
        a_f2 = alpha_mrt(cfg, prof) ** 2 * np.trace(gram_rd, axis1=1, axis2=2)
    rows = montecarlo._features(cfg, prof, scheme, montecarlo._bases(scheme, draw))
    stats_oracle = _per_pair(*_oracle_terms(cfg, prof, scheme, n, rng))
    # the same statistics are the feature rows 0, 1, 3, 4, 5, 6, 7 and 9
    stats_drawn = dict(zip(stats_oracle, np.moveaxis(rows[:, [0, 1, 3, 4, 5, 6, 7, 9]], 1, 0)))
    for name in stats_drawn:
        x, y = stats_drawn[name], stats_oracle[name]
        assert x.shape == y.shape == (n, cfg.K), name
        assert np.all(_two_sample_z(x, y) < 4.0), name
        assert np.all(_two_sample_z(x**2, y**2) < 4.0), name + " squared"

    # given the Grams, E[loop_k] = sigma_li^2 ||w_k||^2 ||A||_F^2 exactly
    resid = stats_drawn["loop"] - cfg.sigma_li_sq * stats_drawn["noise"] * a_f2.real[:, None]
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
@pytest.mark.parametrize("scheme,nrx,ntx", _SHAPES)
def test_probe_terms_match_the_n_dimensional_probe(kind, scheme, nrx, ntx):
    # the weak-pilot profile of the _trial_terms oracle test; the probe is a
    # conditional mean of the oracle's residual, so its variance is at most
    # the oracle's and sqrt(2) se_oracle bounds the stderr of the difference
    cfg, prof = _weak_pilots(nrx, ntx)
    n = 20_000
    rng = np.random.default_rng(43)
    value = convergence_probe(kind, cfg, prof, scheme, n, rng, er=10.0)
    oracle = _oracle_probe(kind, cfg, prof, scheme, n, rng, er=10.0)
    se = np.std(oracle, ddof=1) / np.sqrt(n)
    assert abs(value - np.mean(oracle)) < 4.0 * np.sqrt(2.0) * se


def _closed_probes(cfg, scheme, er, mc):
    """decode and forward in the pooled bound terms of one simulated bound."""
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
    # bound's pooled terms, and loop_power its exact value sigma_li^2 er/Ntx
    cfg, er, n = replace(CFG, Nrx=16, Ntx=12), 5.0, 300
    for scheme in ("zf", "mr"):
        expected = _closed_probes(
            cfg, scheme, er, point_bound(cfg, PROF, scheme, n, np.random.default_rng(44)))
        expected["loop_power"] = cfg.sigma_li_sq * er / cfg.Ntx
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
            point_bound(big, PROF, scheme, 40, rng)
            point_genie(big, PROF, scheme, 40, rng)
            simulate([(big, PROF), (replace(big, Ps=8.0), PROF)], scheme, 40, rng)
            for kind in ("decode", "loop_power", "forward"):
                convergence_probe(kind, big, PROF, scheme, 40, rng, er=10.0)
        wishart_inverse_moment(big.Nrx, PROF.sigma_sr_sq, 40, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < column_block / 8, f"traced peak {peak} B"


@pytest.mark.parametrize("scheme,trials,limit_mb", [
    ("zf", 100, 0.90), ("mr", 100, 1.45), ("zf", 2000, 15.8), ("mr", 2000, 24.0)])
def test_a_bound_call_keeps_no_scaled_copy_of_its_draw(scheme, trials, limit_mb):
    # the traced peak of one K = 10 call, at an mc_fig op's 100 trials and
    # at fig2's 2 000-trial chunk: each Z is drawn only when its product is
    # formed and dies with it, and no unit factor is kept beside a scaled copy
    cfg = SystemConfig(K=10, Nrx=128, Ntx=128, tau=20, Pp=1.0, Ps=1.0, Pr=10.0)
    prof = make_profile(np.ones(10), np.ones(10), cfg.tau, cfg.Pp)
    point_bound(cfg, prof, scheme, trials, np.random.default_rng(0))
    tracemalloc.start()
    try:
        point_bound(cfg, prof, scheme, trials, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6, f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_a_lazy_draw_gives_the_bases_of_a_materialized_one(scheme):
    # _bases pulls each Z from the generator only when it forms its product;
    # the bytes are those of the same draw taken whole first
    cfg, _ = _weak_pilots(8, 6)
    lazy = montecarlo._bases(scheme, montecarlo._draw(cfg, 50, np.random.default_rng(9)))
    whole = montecarlo._bases(scheme, tuple(montecarlo._draw(cfg, 50, np.random.default_rng(9))))
    assert [x.tobytes() for x in lazy] == [x.tobytes() for x in whole]


def test_a_rate_gradient_near_the_float_range_keeps_a_finite_stderr():
    # at Ps = Pr = Pp = 1e300 the second hop's ZF rate gradient reaches
    # about 7.6e300, past what an unscaled quadratic form can square; the
    # repo's error::RuntimeWarning filter turns any overflow into a failure
    cfg = SystemConfig(K=4, Nrx=32, Ntx=32, tau=8, Pp=1e300, Ps=1e300, Pr=1e300)
    prof = make_profile(np.ones(4), np.ones(4), cfg.tau, cfg.Pp)
    for bound, genie in simulate([(cfg, prof)], "zf", 4, np.random.default_rng(0)):
        for name, x in _leaves([bound, genie]):
            assert np.all(np.isfinite(x)), name
    assert bound.stderr_sum_rate == pytest.approx(1.164, abs=1e-3)


def test_zf_inverts_the_estimated_channels():
    # saturated estimates (sigma^2 = beta) leave no error, so in every trial
    # W^T G_SR = I and G_RD^T A = alpha I
    prof = LargeScaleProfile(beta_sr=PROF.sigma_sr_sq, beta_rd=PROF.sigma_rd_sq,
                             sigma_sr_sq=PROF.sigma_sr_sq, sigma_rd_sq=PROF.sigma_rd_sq)
    rows = _rows(CFG, prof, "zf", 500, np.random.default_rng(45))
    # gain real and imaginary parts, |gain|^2 and multipair of each hop
    want = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0,
            6: alpha_zf(CFG, prof), 7: 0.0, 8: alpha_zf(CFG, prof) ** 2, 9: 0.0}
    for row, value in want.items():
        np.testing.assert_allclose(rows[:, row], value, rtol=0, atol=1e-10, err_msg=row)


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
    # LIBRARY_REFUSALS (test_boundary.py) holds ZF's refusal at these
    # dimensions; MR has no such boundary
    for nrx, ntx in ((2, 24), (24, 2), (CFG.K, 24), (24, CFG.K)):
        cfg = replace(CFG, Nrx=nrx, Ntx=ntx)
        assert np.all(np.isfinite(point_bound(cfg, PROF, "mr", 40,
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
    res = point_bound(CFG, PROF, scheme, n, np.random.default_rng(77))
    features = _rows(CFG, PROF, scheme, n, np.random.default_rng(77))[:, :10]
    for name, row in (("multipair", 3), ("loop", 4), ("noise", 5)):
        x = features[:, row]
        np.testing.assert_allclose(getattr(res.sr_terms, name), np.mean(x, axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(getattr(res.sr_terms, "stderr_" + name),
                                   np.std(x, axis=0, ddof=1) / np.sqrt(n), rtol=1e-9)

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
    rd = point_bound(CFG, PROF, "mr", 400, np.random.default_rng(5)).rd_terms
    np.testing.assert_array_equal(rd.noise, 1.0)
    np.testing.assert_array_equal(rd.loop, 0.0)
    np.testing.assert_array_equal(rd.stderr_noise, 0.0)
    np.testing.assert_array_equal(rd.stderr_loop, 0.0)


@pytest.mark.parametrize("width", range(6))
def test_small_k_products_match_matmul(width):
    # montecarlo._mm's multiply-add branch against `@`, contracted over
    # width: a matrix product, a _tri_inv row (n, 1, i) @ (n, i, i) (width 0
    # is the first row) and the (n, K, K) @ (K,) matvecs of _features, on
    # complex and on real |.|^2 batches; the bound is 1e-13 of the sum of
    # |a_ij b_jk|, the scale of a dot product's rounding
    rng = np.random.default_rng(60 + width)
    n = 50
    for a, b in ((_cn(rng, n, 3, width), _cn(rng, n, width, 2)),
                 (_cn(rng, n, 1, width), _cn(rng, n, width, width)),
                 (_cn(rng, n, width, width), _cn(rng, width)),
                 (np.abs(_cn(rng, n, width, width)) ** 2, rng.random(width))):
        got, want = montecarlo._mm(a, b, montecarlo._BROADCAST_MAX_K), a @ b
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(a) @ np.abs(b)))


def _leaves(x, name=""):
    """(name, array) for every numeric leaf of nested results, tuples and lists."""
    if is_dataclass(x):
        for field in fields(x):
            yield from _leaves(getattr(x, field.name), f"{name}.{field.name}")
    elif isinstance(x, (tuple, list)):
        for i, item in enumerate(x):
            yield from _leaves(item, f"{name}[{i}]")
    elif not isinstance(x, str):
        yield name, np.asarray(x)


def _entry_point_results(k):
    """A one-point bound and genie pass, a two-point simulate and
    wishart_inverse_moment at K = k."""
    cfg = SystemConfig(K=k, Nrx=2 * k + 4, Ntx=2 * k + 5, tau=2 * k, Pp=4.0, Ps=1.0,
                       Pr=2.0, sigma_li_sq=2.0)
    prof = make_profile(np.linspace(0.6, 1.8, k), np.linspace(1.5, 0.7, k), cfg.tau, cfg.Pp)
    out = []
    for scheme in ("zf", "mr"):
        out += [point_bound(cfg, prof, scheme, 300, np.random.default_rng(k)),
                point_genie(cfg, prof, scheme, 300, np.random.default_rng(k)),
                simulate([(cfg, prof), (replace(cfg, Ps=4.0), prof)], scheme, 300,
                         np.random.default_rng(k))]
    out.append(wishart_inverse_moment(cfg.Nrx, prof.sigma_sr_sq, 300, np.random.default_rng(k)))
    return list(_leaves(out))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 10])
def test_the_small_k_branch_changes_only_rounding(k, monkeypatch):
    # every entry point against the same call with `@` at every K: bit for
    # bit from K = 4, and at K <= 3 a stderr may move more than its estimate,
    # since the covariance's sum-of-products form scales a feature's
    # rounding by about mean^2 / var
    small_k = k <= 3
    got = _entry_point_results(k)
    monkeypatch.setattr(montecarlo, "_BROADCAST_MAX_K", 0)
    want = _entry_point_results(k)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, x), (_, y) in zip(got, want):
        if small_k:
            rtol = 1e-10 if "stderr" in name else 1e-12
            np.testing.assert_allclose(x, y, rtol=rtol, atol=0, err_msg=name)
        else:
            np.testing.assert_array_equal(x, y, err_msg=name)


@pytest.mark.parametrize("scheme", ["zf", "mr"])
@pytest.mark.parametrize("k", [2, 10])
def test_a_gradient_stack_gives_the_stderrs_of_its_gradients(scheme, k):
    cfg = SystemConfig(K=k, Nrx=3 * k, Ntx=3 * k, tau=2 * k, Pp=4.0, Ps=1.0, Pr=2.0)
    prof = make_profile(np.linspace(0.6, 1.8, k), np.ones(k), cfg.tau, cfg.Pp)
    acc = montecarlo._simulate([(cfg, prof)], scheme, 400, np.random.default_rng(k))[0]
    grads = np.random.default_rng(8).standard_normal((7, montecarlo._FEATURES, k))
    se, se_sum = acc.stderr(grads)
    assert se.shape == (7, k) and se_sum.shape == (7,)
    for grad, row, total in zip(grads, se, se_sum):
        one, one_sum = acc.stderr(grad[None])
        assert one.shape == (1, k) and one_sum.shape == (1,)
        np.testing.assert_allclose(row, one[0], rtol=1e-12)
        assert total == pytest.approx(one_sum[0], rel=1e-12)
