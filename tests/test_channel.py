"""Channel sampling, pilot books, and MMSE estimation statistics."""
import numpy as np
import pytest

from fdrelay import SystemConfig, make_profile, montecarlo
from fdrelay.montecarlo import gram_factor_batch
from pilot_oracle import estimate_via_pilots, generate_pilots, sample_true_channels

CFG = SystemConfig(K=3, Nrx=16, Ntx=16, tau=6, Pp=10.0, sigma_li_sq=2.0)
PROF = make_profile([0.5, 1.0, 2.0], [1.5, 0.8, 1.2], CFG.tau, CFG.Pp)


def test_true_channel_shapes_and_variances():
    rng = np.random.default_rng(0)
    n = 4000
    acc = np.zeros(CFG.K)
    acc_rr = 0.0
    for _ in range(n):
        g_sr, g_rd, g_rr = sample_true_channels(CFG, PROF, rng)
        acc += np.mean(np.abs(g_sr) ** 2, axis=0)
        acc_rr += np.mean(np.abs(g_rr) ** 2)
    assert g_sr.shape == (CFG.Nrx, CFG.K)
    assert g_rd.shape == (CFG.Ntx, CFG.K)
    assert g_rr.shape == (CFG.Nrx, CFG.Ntx)
    # per-entry variance of column k is beta_k; stderr ~ beta/sqrt(n*Nrx)
    np.testing.assert_allclose(acc / n, PROF.beta_sr, rtol=0.05)
    assert acc_rr / n == pytest.approx(CFG.sigma_li_sq, rel=0.05)


def test_true_channel_circular_symmetry():
    rng = np.random.default_rng(1)
    draws = np.stack([sample_true_channels(CFG, PROF, rng)[0] for _ in range(3000)])
    re_var = np.var(draws.real[:, :, 1])
    im_var = np.var(draws.imag[:, :, 1])
    assert re_var == pytest.approx(PROF.beta_sr[1] / 2, rel=0.06)
    assert im_var == pytest.approx(PROF.beta_sr[1] / 2, rel=0.06)


def test_zero_li_gives_zero_loop_channel():
    cfg = SystemConfig(K=3, Nrx=8, Ntx=8, tau=6, sigma_li_sq=0.0)
    _, _, g_rr = sample_true_channels(cfg, PROF, np.random.default_rng(2))
    assert np.all(g_rr == 0)


def test_pilot_books_orthonormal():
    book = generate_pilots(10, 20)
    np.testing.assert_allclose(book.phi_s @ book.phi_s.conj().T, np.eye(10), atol=1e-12)
    np.testing.assert_allclose(book.phi_d @ book.phi_d.conj().T, np.eye(10), atol=1e-12)
    assert np.max(np.abs(book.phi_s @ book.phi_d.conj().T)) < 1e-12


def test_pilot_books_longer_than_minimum():
    book = generate_pilots(10, 25)
    assert book.phi_s.shape == (10, 25)
    np.testing.assert_allclose(book.phi_s @ book.phi_s.conj().T, np.eye(10), atol=1e-12)


def test_pilots_reject_short_training():
    with pytest.raises(ValueError, match="^pilot length tau must be at least 2K$"):
        generate_pilots(10, 19)


def test_pilot_estimation_identity_and_moments():
    rng = np.random.default_rng(3)
    book = generate_pilots(CFG.K, CFG.tau)
    n = 4000
    var_hat = np.zeros(CFG.K)
    var_err = np.zeros(CFG.K)
    cross = 0.0
    var_hat_rd = np.zeros(CFG.K)
    var_err_rd = np.zeros(CFG.K)
    for _ in range(n):
        g_sr, g_rd, g_rr = sample_true_channels(CFG, PROF, rng)
        ghat_sr, ghat_rd = estimate_via_pilots((g_sr, g_rd, g_rr), book, CFG, PROF, rng)
        err_sr, err_rd = g_sr - ghat_sr, g_rd - ghat_rd
        var_hat += np.mean(np.abs(ghat_sr) ** 2, axis=0)
        var_err += np.mean(np.abs(err_sr) ** 2, axis=0)
        cross += np.mean((ghat_sr * err_sr.conj()).real)
        var_hat_rd += np.mean(np.abs(ghat_rd) ** 2, axis=0)
        var_err_rd += np.mean(np.abs(err_rd) ** 2, axis=0)
    np.testing.assert_allclose(var_hat / n, PROF.sigma_sr_sq, rtol=0.05)
    np.testing.assert_allclose(var_err / n, PROF.beta_sr - PROF.sigma_sr_sq, rtol=0.05)
    np.testing.assert_allclose(var_hat_rd / n, PROF.sigma_rd_sq, rtol=0.05)
    np.testing.assert_allclose(var_err_rd / n, PROF.beta_rd - PROF.sigma_rd_sq, rtol=0.05)
    # MMSE orthogonality: estimate and error are uncorrelated
    assert abs(cross / n) < 0.01


def test_pilot_estimation_perfect_limit():
    cfg = SystemConfig(K=3, Nrx=16, Ntx=16, tau=6, Pp=10**8 / 6)
    prof = make_profile([0.5, 1.0, 2.0], [1.5, 0.8, 1.2], cfg.tau, cfg.Pp)
    book = generate_pilots(cfg.K, cfg.tau)
    rng = np.random.default_rng(4)
    true = sample_true_channels(cfg, prof, rng)
    ghat_sr, ghat_rd = estimate_via_pilots(true, book, cfg, prof, rng)
    assert np.linalg.norm(ghat_sr - true[0]) / np.linalg.norm(true[0]) < 1e-3
    assert np.linalg.norm(ghat_rd - true[1]) / np.linalg.norm(true[1]) < 1e-3


def test_pilot_estimation_requires_pilot_power():
    cfg = SystemConfig(K=3, Nrx=16, Ntx=16, tau=6, Pp=0.0)
    book = generate_pilots(3, 6)
    with pytest.raises(ValueError, match=r"^pilot estimation requires Pp > 0$"):
        estimate_via_pilots(sample_true_channels(CFG, PROF, np.random.default_rng(0)),
                            book, cfg, PROF, np.random.default_rng(0))


def test_pilot_contamination_absent():
    # the cross channel enters the received pilots only through gbar @ phi_d,
    # and de-spreading with phi_s removes it exactly
    book = generate_pilots(CFG.K, CFG.tau)
    rng = np.random.default_rng(9)
    gbar = rng.standard_normal((CFG.Nrx, CFG.K)) + 1j * rng.standard_normal((CFG.Nrx, CFG.K))
    leak = (gbar @ book.phi_d) @ book.phi_s.conj().T
    assert np.max(np.abs(leak)) < 1e-12


def _two_sample_z(x, y):
    """Per-column |mean(x) - mean(y)| in units of the combined standard error."""
    se = np.sqrt(np.var(x, axis=0, ddof=1) / len(x) + np.var(y, axis=0, ddof=1) / len(y))
    return np.abs(np.mean(x, axis=0) - np.mean(y, axis=0)) / se


@pytest.mark.parametrize("n_ant", [2, 8])
def test_gram_factor_matches_explicit_gram(n_ant):
    # F F^H against G^H G with G drawn as n_ant x K independent CN(0, var_k) columns
    variances = np.array([0.5, 1.0, 2.0])
    k, n = variances.size, 20_000
    rng = np.random.default_rng(60 + n_ant)
    f = np.sqrt(variances)[:, None] * gram_factor_batch(n_ant, k, n, rng)
    assert f.shape == (n, k, min(n_ant, k))
    drawn = f @ np.swapaxes(f, 1, 2).conj()
    g = np.sqrt(variances / 2.0) * (rng.standard_normal((n, n_ant, k))
                                    + 1j * rng.standard_normal((n, n_ant, k)))
    oracle = np.swapaxes(g, 1, 2).conj() @ g
    off = np.triu_indices(k, 1)

    def stats(gram):
        return np.concatenate([gram.real.reshape(n, -1), gram.imag[:, off[0], off[1]],
                               np.abs(gram.reshape(n, -1)) ** 2], axis=1)

    assert np.all(_two_sample_z(stats(drawn), stats(oracle)) < 4.0)


def test_gram_factor_gives_the_zf_noise_moment():
    # ||w_k||^2 = [Gram^-1]_kk, the squared norm of column k of F^-1, has mean
    # 1/((N - K) sigma_k^2)
    variances = np.array([0.5, 1.0, 2.0])
    n_ant, n = 8, 20_000
    f = np.sqrt(variances)[:, None] * gram_factor_batch(
        n_ant, variances.size, n, np.random.default_rng(70))
    noise = np.sum(np.abs(np.linalg.inv(f)) ** 2, axis=1)
    se = np.std(noise, axis=0, ddof=1) / np.sqrt(n)
    expect = 1.0 / ((n_ant - variances.size) * variances)
    np.testing.assert_array_less(np.abs(np.mean(noise, axis=0) - expect), 4.0 * se)


def _two_call_cn(shape, rng):
    """The two-draw complex normal the one-buffer sampler must reproduce."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _two_call_gram(n_ant, k, n, rng):
    m = min(n_ant, k)
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, 1, k)
    r = np.zeros((n, m, k), dtype=complex)
    r[:, diag, diag] = np.sqrt(rng.standard_gamma(n_ant - diag, size=(n, m)))
    r[:, rows, cols] = _two_call_cn((n, rows.size), rng)
    return np.swapaxes(r.conj(), 1, 2)


@pytest.mark.parametrize("k,nrx,ntx,n", [(10, 100, 100, 100), (3, 2, 6, 101), (3, 8, 2, 7)])
def test_draws_are_the_two_call_construction_bit_for_bit(k, nrx, ntx, n):
    # the sampler's stream and bits are fixed: a Monte Carlo draw (also with
    # fewer antennas than pairs, and an odd trial count) is exactly the
    # Bartlett factors and Z blocks of (a + 1j b) / sqrt(2) from two calls
    cfg = SystemConfig(K=k, Nrx=nrx, Ntx=ntx, tau=2 * k)
    rng = np.random.default_rng(80)
    l_sr, l_rd = _two_call_gram(nrx, k, n, rng), _two_call_gram(ntx, k, n, rng)
    m_sr, m_rd = min(nrx, k), min(ntx, k)
    want = (l_sr, l_rd, _two_call_cn((n, m_sr, k), rng), _two_call_cn((n, m_sr, m_rd), rng),
            _two_call_cn((n, k, m_rd), rng))
    got = montecarlo._draw(cfg, n, np.random.default_rng(80))
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert (gram_factor_batch(nrx, k, n, np.random.default_rng(81)).tobytes()
            == _two_call_gram(nrx, k, n, np.random.default_rng(81)).tobytes())
