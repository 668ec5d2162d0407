"""Monte Carlo validation of the closed-form rates.

One vectorized engine draws, in memory-capped chunks, every per-trial K x K
term behind the rate bounds and accumulates the per-pair quantities:

    mean_gain  E{w_k^T g_k}            (effective gain the decoder relies on)
    var_gain   Var{w_k^T g_k}          (gain uncertainty, treated as noise)
    multipair  sum_{j != k} E|w_k^T g_j|^2
    loop       E||w_k^T G_RR A||^2     (relay self-interference, first hop only)
    noise      E||w_k||^2              (amplified receiver noise)

No trial draws a length-N vector: all of these depend on the channels only
through K x K matrices. Write each estimate as Ghat = Q F^H, with Q (N x m,
m = min(N, K)) orthonormal and F F^H = Ghat^H Ghat; the complex Bartlett
decomposition draws F = diag(sigma) R^H with R^H of unit variance
(:func:`fdrelay.channel.gram_factor_batch`).
Both schemes factor as W^T = U_w Q_sr^H and A = Q_rd^* U_a^T:

    ZF:  U_w = F_sr^-H,  U_a = alpha F_rd^-H   (U_w U_w^H = Gram_sr^-1 = W^T W^*)
    MR:  U_w = F_sr,     U_a = alpha F_rd      (U_a U_a^H = A^T A^*)

The errors E_sr, E_rd and the loop channel G_RR are iid Gaussian and
independent of the estimates, and Q has orthonormal columns, so
Z_e = Q_sr^H E_sr D_sr^-1, Z_l = Q_sr^H G_RR Q_rd^* / sigma_li and
Z_r = D_rd^-1 E_rd^T Q_rd^* are iid CN(0, 1), mutually independent and
independent of both factors (D = diag(sqrt(beta - sigma^2))). Per trial,
exactly:

    w_k^T g_j       = [U_w (F_sr^H + Z_e D_sr)]_kj
    w_k^T G_RR a_j  = [sigma_li U_w Z_l U_a^T]_kj
    ||w_k||^2       = sum_j |U_w[k, j]|^2
    g_k^T a_j       = [(F_rd^* + D_rd Z_r) U_a^T]_kj
    ||a_k||^2       = sum_j |U_a[k, j]|^2

In matrix-normal terms: given the estimates, W^T E_sr ~ MN(0, W^T W^*, D_sr^2),
E_rd^T A ~ MN(0, D_rd^2, A^T A^*) and W^T G_RR A ~ MN(0, sigma_li^2 W^T W^*,
A^T A^*), mutually independent, and every covariance and deterministic gain
(W^T Ghat_sr = U_w F_sr^H, Ghat_rd^T A = F_rd^* U_a^T) is a function of the
two Grams alone. So each trial has the law of an explicit N-dimensional draw,
the bound's moments and the genie SINR are both exact, and a trial costs
O(K^3) whatever the array size. Each chunk draws R_sr^H, R_rd^H, Z_e, Z_l,
Z_r in that order. No power or variance enters these draws: sigma^2,
beta - sigma^2, alpha, sqrt(Ps), sqrt(Pr) and sigma_li only scale them, so
one draw serves every point with the same (K, Nrx, Ntx), and
:func:`simulate` gives a whole sweep the bound and genie rates of common
random numbers. The inverse-Gram moment uses the same factors:
[(Ghat^H Ghat)^-1]_kk is the squared norm of column k of F^-1.

The convergence probes read the same pass. With x and x_fwd the source
and forwarded symbols (iid CN(0, 1)), the relay noise n ~ CN(0, I_Nrx) and
the relay transmit vector s = sqrt(er/Ntx) A x_fwd, they are the residual
powers |[W^T y]_k / c_k - sqrt(Ps) x_k|^2 (decode; c_k = 1 for ZF, Nrx
sigma_sr,k^2 for MR), ||G_RR s||^2 / Nrx (loop_power) and
|g_k^T s - limit_k x_fwd,k|^2 (forward, limit_k the large-array amplitude).
Their expectations over x, x_fwd, n and, given s, G_RR are closed in the
per-trial terms above, so each probe is a function of the pooled feature
means (mp and li the multipair and loop rows, an = ||w_k||^2):

    decode      mean_k Ps E|S_kk/c_k - 1|^2 + (Ps mp_k + Pr li_k + an_k)/c_k^2
    loop_power  sigma_li^2 (er/Ntx) sum_k E||a_k||^2
    forward     mean_k (er/Ntx) E(|R_kk|^2 + mp_rd,k)
                       - 2 sqrt(er/Ntx) limit_k E Re R_kk + limit_k^2

with S = [w_k^T g_j] and R = [g_k^T a_j]. A conditional mean has the
expectation of the residual it replaces and no more variance (Rao-Blackwell;
Casella & Berger, 7.3), and a probe costs what a bound pass costs.

Assembling the bound from the pooled estimates reproduces the closed forms;
the instantaneous-SINR ("genie") rates quantify what perfect gain knowledge
at the decoders would add. Point estimates use all trials pooled. Every
reported quantity is a smooth function of the pooled means of a few real
per-trial features per pair (the rows listed at _FEATURES), and trials are
iid, so every standard error comes from the delta method (Casella & Berger,
Statistical Inference, 5.5.4): sqrt(g^T S g / T), with S the sample
covariance of one trial's features and g the gradient of the quantity at
the pooled means. A plain per-trial mean (multipair, loop, noise, a genie
rate, the inverse-Gram diagonal) has a unit gradient, and its stderr is the
iid one.

Everything consumes a caller-supplied Generator in a fixed chunk order, so a
given seed reproduces results exactly regardless of available memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import _cn, gram_factor_batch
from .model import LargeScaleProfile, SystemConfig
from .rates import _check_zf

# Feature rows of one simulated trial, K columns (pairs) each: first-hop
# gain real part, imaginary part, |gain|^2, multipair, loop and noise;
# second-hop gain real part, imaginary part, |gain|^2 and multipair; the
# genie log2(1 + SINR) of the first and second hop; the precoder column
# power ||a_k||^2.
_FEATURES = 13
_SR_ROWS = range(0, 6)
_RD_ROWS = range(6, 10)
_GENIE_SR, _GENIE_RD = 10, 11


@dataclass(frozen=True)
class HopTerms:
    """Per-pair bound ingredients for one hop, with their standard errors.

    multipair, loop and noise are plain per-trial means, so their stderr is
    the iid one; stderr_mean_gain (of the magnitude |mean_gain|) and
    stderr_var_gain are delta-method stderrs of functions of the pooled
    gain moments. The second hop has no loop term and unit noise.
    """

    mean_gain: np.ndarray  # complex
    var_gain: np.ndarray
    multipair: np.ndarray
    loop: np.ndarray
    noise: np.ndarray
    stderr_mean_gain: np.ndarray
    stderr_var_gain: np.ndarray
    stderr_multipair: np.ndarray
    stderr_loop: np.ndarray
    stderr_noise: np.ndarray


@dataclass(frozen=True)
class McRateResult:
    """Bound rates assembled from simulated moments."""

    r_sr: np.ndarray
    r_rd: np.ndarray
    r_e2e: np.ndarray
    stderr_r_sr: np.ndarray
    stderr_r_rd: np.ndarray
    stderr_r_e2e: np.ndarray
    sum_rate: float
    stderr_sum_rate: float
    sr_terms: HopTerms
    rd_terms: HopTerms
    scheme: str
    trials: int


@dataclass(frozen=True)
class GenieResult:
    """E{log2(1 + instantaneous SINR)} with known realized gains."""

    r_sr: np.ndarray
    r_rd: np.ndarray
    r_e2e: np.ndarray
    stderr_r_sr: np.ndarray
    stderr_r_rd: np.ndarray
    stderr_r_e2e: np.ndarray
    sum_rate: float
    stderr_sum_rate: float
    scheme: str
    trials: int


def _chunks(trials: int, per_trial: float):
    """Successive chunk sizes adding up to trials: ~64 MB of complex128 for
    per_trial entries a trial holds, and at most 4096 trials. A trial of a
    pass (which the bound, the genie rates and the probes all read) holds
    about 16 K x K arrays (factors, their inverses, the three Z draws and
    the products), an inverse-Gram trial about 4, so no chunk depends on
    the array size.
    """
    chunk = max(1, min(4096, int(64e6 / (16.0 * per_trial))))
    for done in range(0, trials, chunk):
        yield min(chunk, trials - done)


def _check_trials(trials: int, least: int = 1) -> None:
    # entry points that report a standard error need a sample covariance
    if trials < least:
        raise ValueError(f"trials must be >= {least}")


def alpha_zf(cfg: SystemConfig, profile: LargeScaleProfile) -> float:
    """ZF precoder normalization: E||A||_F^2 = alpha^2 E tr(Gram_rd^-1) = 1."""
    return float(np.sqrt((cfg.Ntx - cfg.K) / np.sum(1.0 / profile.sigma_rd_sq)))


def alpha_mrt(cfg: SystemConfig, profile: LargeScaleProfile) -> float:
    """MRT precoder normalization: E||A||_F^2 = alpha^2 E tr(Gram_rd) = 1."""
    return float(np.sqrt(1.0 / (cfg.Ntx * np.sum(profile.sigma_rd_sq))))


def _draw(cfg: SystemConfig, n: int, rng: np.random.Generator):
    """The unit-variance (R_sr^H, R_rd^H, Z_e, Z_l, Z_r) of n trials; they
    depend on cfg only through (K, Nrx, Ntx), and _trial_terms scales them."""
    r_sr_h = gram_factor_batch(cfg.Nrx, cfg.K, n, rng)
    r_rd_h = gram_factor_batch(cfg.Ntx, cfg.K, n, rng)
    m_sr, m_rd = r_sr_h.shape[2], r_rd_h.shape[2]
    return (r_sr_h, r_rd_h, _cn((n, m_sr, cfg.K), rng), _cn((n, m_sr, m_rd), rng),
            _cn((n, cfg.K, m_rd), rng))


def _trial_terms(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str, draw):
    """One exact draw per trial of (gain_sr, loop, noise, gain_rd, power), from the Grams.

    gain_sr[t, k, j] = w_k^T g_j, loop[t, k, j] = w_k^T G_RR a_j,
    noise[t, k] = ||w_k||^2, gain_rd[t, k, j] = g_k^T a_j and
    power[t, k] = ||a_k||^2, with draw from _draw; the module docstring
    derives the law and the draw order.
    """
    r_sr_h, r_rd_h, z_e, z_l, z_r = draw
    f_sr = np.sqrt(profile.sigma_sr_sq)[:, None] * r_sr_h
    f_rd = np.sqrt(profile.sigma_rd_sq)[:, None] * r_rd_h
    if scheme == "zf":
        _check_zf(cfg)
        u_w = np.swapaxes(np.linalg.inv(f_sr), 1, 2).conj()
        u_a = alpha_zf(cfg, profile) * np.swapaxes(np.linalg.inv(f_rd), 1, 2).conj()
    elif scheme == "mr":
        u_w, u_a = f_sr, alpha_mrt(cfg, profile) * f_rd
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    u_a_t = np.swapaxes(u_a, 1, 2)

    d_sr = np.sqrt(profile.beta_sr - profile.sigma_sr_sq)
    d_rd = np.sqrt(profile.beta_rd - profile.sigma_rd_sq)
    gain_sr = u_w @ (np.swapaxes(f_sr, 1, 2).conj() + z_e * d_sr)
    loop = np.sqrt(cfg.sigma_li_sq) * (u_w @ z_l @ u_a_t)
    noise = np.sum(np.abs(u_w) ** 2, axis=2)
    gain_rd = (f_rd.conj() + d_rd[:, None] * z_r) @ u_a_t
    return gain_sr, loop, noise, gain_rd, np.sum(np.abs(u_a) ** 2, axis=2)


class _Accumulator:
    """Pooled sums and cross-products of per-trial feature rows.

    A row holds F features for each of K pairs. Read mean and stderr only
    after the last add: the sample covariance is built once, on first use.
    The sum-of-products form is accurate enough here: these features vary
    by far more than its rounding error.
    """

    def __init__(self, features: int, k: int):
        self.shape = (features, k)
        self.trials = 0
        self.sums = np.zeros(features * k)
        self.cross = np.zeros((features * k, features * k))

    def add(self, rows: np.ndarray) -> None:
        """Add n trials, rows of shape (n, F, K)."""
        rows = rows.reshape(rows.shape[0], -1)
        self.trials += rows.shape[0]
        # numpy sums a contiguous row pairwise but an axis-0 reduction row by
        # row; the gain variance, a difference of two of these sums, needs
        # the pairwise accuracy
        self.sums += np.sum(np.ascontiguousarray(rows.T), axis=1)
        self.cross += rows.T @ rows

    @property
    def mean(self) -> np.ndarray:
        return (self.sums / self.trials).reshape(self.shape)

    @cached_property
    def cov(self) -> np.ndarray:
        mean = self.sums / self.trials
        return (self.cross - self.trials * np.outer(mean, mean)) / (self.trials - 1.0)

    def stderr(self, grad: np.ndarray):
        """Delta-method stderrs of K per-pair estimates and of their sum.

        grad (F, K): column k is the gradient of estimate k in the features
        of pair k, the only ones it depends on. The sum's gradient is the
        sum of the per-pair ones, so its stderr counts the covariance
        between pairs.
        """
        f, k = grad.shape
        g = (grad[:, :, None] * np.eye(k)).reshape(f * k, k)
        cov = g.T @ self.cov @ g / self.trials
        return (np.sqrt(np.maximum(np.diagonal(cov), 0.0)),
                float(np.sqrt(max(np.sum(cov), 0.0))))


def _grad(k: int, rows: dict) -> np.ndarray:
    """A (_FEATURES, K) gradient: the given rows set, every other row zero."""
    grad = np.zeros((_FEATURES, k))
    for row, value in rows.items():
        grad[row] = value
    return grad


def _features(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
              draw) -> np.ndarray:
    """The (n, _FEATURES, K) feature rows of one point's trials."""
    gain_sr, loop, an, gain_rd, power = _trial_terms(cfg, profile, scheme, draw)
    abs2_sr = np.abs(gain_sr) ** 2
    diag_sr = np.diagonal(gain_sr, axis1=1, axis2=2)
    abs2_diag_sr = np.diagonal(abs2_sr, axis1=1, axis2=2)
    mp_sr = np.sum(abs2_sr, axis=2) - abs2_diag_sr
    li = np.sum(np.abs(loop) ** 2, axis=2)

    abs2_rd = np.abs(gain_rd) ** 2
    diag_rd = np.diagonal(gain_rd, axis1=1, axis2=2)
    abs2_diag_rd = np.diagonal(abs2_rd, axis1=1, axis2=2)
    mp_rd = np.sum(abs2_rd, axis=2) - abs2_diag_rd

    sinr_sr = cfg.Ps * abs2_diag_sr / (cfg.Ps * mp_sr + cfg.Pr * li + an)
    sinr_rd = cfg.Pr * abs2_diag_rd / (cfg.Pr * mp_rd + 1.0)
    return np.stack([
        diag_sr.real, diag_sr.imag, abs2_diag_sr, mp_sr, li, an,
        diag_rd.real, diag_rd.imag, abs2_diag_rd, mp_rd,
        np.log2(1.0 + sinr_sr), np.log2(1.0 + sinr_rd), power,
    ], axis=1)


def _simulate(points, scheme: str, trials: int, rng: np.random.Generator,
              least: int = 2) -> list:
    """One _Accumulator per (cfg, profile) point, every point on the same
    draws; least is the fewest trials the caller takes (2 for a stderr)."""
    if not points:
        raise ValueError("need at least one point")
    cfg = points[0][0]
    if any((c.K, c.Nrx, c.Ntx) != (cfg.K, cfg.Nrx, cfg.Ntx) for c, _ in points):
        raise ValueError("all points must share K, Nrx and Ntx")
    _check_trials(trials, least)
    accs = [_Accumulator(_FEATURES, cfg.K) for _ in points]
    for n in _chunks(trials, 16 * cfg.K ** 2):
        draw = _draw(cfg, n, rng)
        for (c, profile), acc in zip(points, accs):
            acc.add(_features(c, profile, scheme, draw))
    return accs


def _hop_terms(acc: _Accumulator, rows: range) -> HopTerms:
    """Pooled bound ingredients of one hop, from its feature rows."""
    re, im, gain2, *plain = acc.mean[rows.start:rows.stop]
    mean = re + 1j * im
    mag = np.abs(mean)
    k = mag.size
    first = rows.start

    def stderr(grad_rows):
        return acc.stderr(_grad(k, grad_rows))[0]

    # the second hop draws no loop or noise rows: its loop term is exactly
    # zero and its noise exactly one
    zero = np.zeros(k)
    mp, li, an = (plain + [zero, np.ones(k)])[:3]
    se_mp, se_li, se_an = ([stderr({row: 1.0}) for row in rows[3:]] + [zero, zero])[:3]
    return HopTerms(
        mean_gain=mean, var_gain=np.maximum(gain2 - mag ** 2, 0.0),
        multipair=mp, loop=li, noise=an,
        stderr_mean_gain=stderr({first: re / mag, first + 1: im / mag}),
        stderr_var_gain=stderr({first: -2.0 * re, first + 1: -2.0 * im, first + 2: 1.0}),
        stderr_multipair=se_mp, stderr_loop=se_li, stderr_noise=se_an,
    )


def _hop_rate(cfg: SystemConfig, p: float, terms: HopTerms, rows: range):
    """Bound rate of one hop (transmit power p) and its gradient in the features.

    With m = E{w_k^T g_k}, D = p var + p multipair + Pr loop + noise and
    P = D + p|m|^2 = p E|w_k^T g_k|^2 + p multipair + Pr loop + noise, the
    rate log2(1 + p|m|^2 / D) is log2(P / D). P is linear in the feature
    means, so the gradient is 2p (Re m, Im m) / D in the gain's real and
    imaginary rows and (1/P - 1/D) times the power in every other row, all
    over ln 2.
    """
    m = terms.mean_gain
    signal = p * np.abs(m) ** 2
    den = p * terms.var_gain + p * terms.multipair + cfg.Pr * terms.loop + terms.noise
    shrink = 1.0 / (den + signal) - 1.0 / den
    slopes = (2.0 * p * m.real / den, 2.0 * p * m.imag / den,
              p * shrink, p * shrink, cfg.Pr * shrink, shrink)
    grad = _grad(m.size, dict(zip(rows, slopes))) / np.log(2.0)
    return np.log2(1.0 + signal / den), grad


def _rate_fields(acc: _Accumulator, r_sr, r_rd, grad_sr, grad_rd) -> dict:
    """Hop, end-to-end and sum rates with their stderrs, from the hop gradients.

    min(r_sr, r_rd) takes the gradient of the smaller hop; it has none at a
    tie, and there the first hop's gradient stands in.
    """
    r_e2e = np.minimum(r_sr, r_rd)
    se_e2e, se_sum = acc.stderr(np.where(r_sr <= r_rd, grad_sr, grad_rd))
    return dict(
        r_sr=r_sr, r_rd=r_rd, r_e2e=r_e2e,
        stderr_r_sr=acc.stderr(grad_sr)[0], stderr_r_rd=acc.stderr(grad_rd)[0],
        stderr_r_e2e=se_e2e, sum_rate=float(np.sum(r_e2e)), stderr_sum_rate=se_sum,
    )


def _bound(cfg: SystemConfig, acc: _Accumulator, scheme: str) -> McRateResult:
    """The bound rates assembled from one point's pooled features."""
    sr_terms, rd_terms = _hop_terms(acc, _SR_ROWS), _hop_terms(acc, _RD_ROWS)
    r_sr, grad_sr = _hop_rate(cfg, cfg.Ps, sr_terms, _SR_ROWS)
    r_rd, grad_rd = _hop_rate(cfg, cfg.Pr, rd_terms, _RD_ROWS)
    return McRateResult(**_rate_fields(acc, r_sr, r_rd, grad_sr, grad_rd),
                        sr_terms=sr_terms, rd_terms=rd_terms, scheme=scheme,
                        trials=acc.trials)


def _genie(cfg: SystemConfig, acc: _Accumulator, scheme: str) -> GenieResult:
    """The genie rates of one point's pooled features."""
    r_sr, r_rd = acc.mean[_GENIE_SR], acc.mean[_GENIE_RD]
    grad_sr, grad_rd = _grad(cfg.K, {_GENIE_SR: 1.0}), _grad(cfg.K, {_GENIE_RD: 1.0})
    return GenieResult(**_rate_fields(acc, r_sr, r_rd, grad_sr, grad_rd),
                       scheme=scheme, trials=acc.trials)


def simulate(points, scheme: str, trials: int,
             rng: np.random.Generator) -> list:
    """One (McRateResult, GenieResult) pair per (cfg, profile) point, all
    from the same draws: each chunk is drawn once and scaled to every point,
    so the points must share K, Nrx and Ntx. A single point gives what
    mc_rate and genie_rates each give for the same seed.
    """
    accs = _simulate(points, scheme, trials, rng)
    return [(_bound(cfg, acc, scheme), _genie(cfg, acc, scheme))
            for (cfg, _), acc in zip(points, accs)]


def mc_rate(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
            trials: int, rng: np.random.Generator) -> McRateResult:
    """Simulate the bound ingredients and assemble the per-pair rates."""
    return _bound(cfg, _simulate([(cfg, profile)], scheme, trials, rng)[0], scheme)


def genie_rates(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
                trials: int, rng: np.random.Generator) -> GenieResult:
    """Average instantaneous-SINR rates (decoder knows each realized gain)."""
    return _genie(cfg, _simulate([(cfg, profile)], scheme, trials, rng)[0], scheme)


def wishart_inverse_moment(n_ant: int, variances, trials: int,
                           rng: np.random.Generator):
    """MC estimate of E{[(G^H G)^-1]_kk} for G with iid CN(0, var_k) columns.

    Returns (mean, stderr) arrays; the closed form is 1/((n_ant - K) var_k).
    Each trial draws only the K x K Gram factor; the stderr is the iid one of
    a plain per-trial mean.
    """
    variances = np.asarray(variances, dtype=float)
    k = variances.size
    if n_ant <= k:
        raise ValueError("need more antennas than columns")
    _check_trials(trials, 2)
    acc = _Accumulator(1, k)
    root_var = np.sqrt(variances)
    for n in _chunks(trials, 4 * k ** 2):
        f_inv = np.linalg.inv(root_var[:, None] * gram_factor_batch(n_ant, k, n, rng))
        acc.add(np.sum(np.abs(f_inv) ** 2, axis=1)[:, None])  # (F F^H)^-1 = F^-H F^-1
    return acc.mean[0], acc.stderr(np.ones((1, k)))[0]


def convergence_probe(kind: str, cfg: SystemConfig, profile: LargeScaleProfile,
                      scheme: str, trials: int, rng: np.random.Generator,
                      er: float | None = None) -> float:
    """Scalar figures that must vanish as the arrays grow.

    kind "decode": mean square of the decoded first-hop symbol around
    sqrt(Ps) x_k, after removing the ZF unit gain or the Nrx sigma^2 MRC gain.
    kind "loop_power": per-antenna received self-interference power when the
    relay spends Pr = er/Ntx.
    kind "forward": mean square of the destination signal around its
    deterministic large-array amplitude, again with Pr = er/Ntx.

    All three average over pairs (antennas for "loop_power") and trials and
    return a single float: the closed form of the module docstring in the
    pooled feature means of one pass, so the cost does not grow with the
    arrays and the draws are those of mc_rate on the same rng.
    """
    if kind not in ("decode", "loop_power", "forward"):
        raise ValueError(f"unknown probe kind {kind!r}")
    if kind != "decode" and (er is None or er <= 0):
        raise ValueError(f"kind {kind!r} needs er > 0")
    means = _simulate([(cfg, profile)], scheme, trials, rng, least=1)[0].mean
    re_sr, _, gain2_sr, mp_sr, li, an, re_rd, _, gain2_rd, mp_rd, _, _, power = means
    if kind == "decode":
        c = 1.0 if scheme == "zf" else cfg.Nrx * profile.sigma_sr_sq
        resid = (cfg.Ps * (gain2_sr / c ** 2 - 2.0 * re_sr / c + 1.0)
                 + (cfg.Ps * mp_sr + cfg.Pr * li + an) / c ** 2)
    elif kind == "loop_power":
        return float(cfg.sigma_li_sq * er / cfg.Ntx * np.sum(power))
    else:  # "forward"
        if scheme == "zf":
            limit = np.sqrt(er / np.sum(1.0 / profile.sigma_rd_sq))
        else:
            limit = np.sqrt(er * profile.sigma_rd_sq**2 / np.sum(profile.sigma_rd_sq))
        pr = er / cfg.Ntx
        resid = pr * (gain2_rd + mp_rd) - 2.0 * np.sqrt(pr) * limit * re_rd + limit ** 2
    return float(np.mean(resid))
