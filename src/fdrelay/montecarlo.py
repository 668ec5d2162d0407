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
(:func:`gram_factor_batch`, O(K^2) per trial).
Both schemes factor as W^T = U_w Q_sr^H and A = Q_rd^* U_a^T:

    ZF:  U_w = F_sr^-H,  U_a = alpha F_rd^-H   (U_w U_w^H = Gram_sr^-1 = W^T W^*)
    MR:  U_w = F_sr,     U_a = alpha F_rd      (U_a U_a^H = A^T A^*)

The errors E_sr, E_rd and the loop channel G_RR are iid Gaussian and
independent of the estimates, and Q has orthonormal columns, so
Z_e = Q_sr^H E_sr D_sr^-1, Z_l = Q_sr^H G_RR Q_rd^* / sigma_li and
Z_r = D_rd^-1 E_rd^T Q_rd^* are iid CN(0, 1), mutually independent and
independent of both factors (D = diag(d), d = sqrt(beta - sigma^2)). With
L = R^H (so F = S L, S = diag(sigma)), X = L^-1 and M = X^H, per trial exactly:

    w_k^T g_j      = [U_w (F_sr^H + Z_e D_sr)]_kj = u_k [P_sr S_sr + Q_sr D_sr]_kj
    w_k^T G_RR a_j = [sigma_li U_w Z_l U_a^T]_kj = sigma_li alpha u_k [B_l]_kj v_j
    g_k^T a_j      = [(F_rd^* + D_rd Z_r) U_a^T]_kj = alpha [S_rd P_rd + D_rd Q_rd]_kj v_j
    ||w_k||^2      = sum_j |U_w[k, j]|^2 = u_k^2 N_k

    ZF:  u, v = 1/sigma_sr, 1/sigma_rd;  P = I, Q_sr = M_sr Z_e, B_l = M_sr Z_l Xbar_rd,
         Q_rd = Z_r Xbar_rd, N_k = ||column k of X_sr||^2
    MR:  u, v = sigma_sr, sigma_rd;  P_sr = L_sr L_sr^H, P_rd = Lbar_rd L_rd^T,
         Q_sr = L_sr Z_e, B_l = L_sr Z_l L_rd^T, Q_rd = Z_r L_rd^T, N_k = [P_sr]_kk

In matrix-normal terms: given the estimates, W^T E_sr ~ MN(0, W^T W^*, D_sr^2),
E_rd^T A ~ MN(0, D_rd^2, A^T A^*) and W^T G_RR A ~ MN(0, sigma_li^2 W^T W^*,
A^T A^*), mutually independent, and every covariance and deterministic gain
(W^T Ghat_sr = U_w F_sr^H, Ghat_rd^T A = F_rd^* U_a^T) is a function of the
two Grams alone. So each trial has the law of an explicit N-dimensional draw,
the bound's moments and the genie SINR are both exact, and a trial costs
O(K^3) whatever the array size. Each chunk draws R_sr^H, R_rd^H, Z_e, Z_l,
Z_r in that order, and no power or variance enters them, only the diagonal
scalings above: _bases forms a chunk's P, Q, B_l and N once (X by forward
substitution), and _features gives each point its rows with no matmul or
inverse. The loop row and ZF's multipair rows are (n, K, K) real |.|^2 bases
times per-point (K,) weights; MR combines P and Q per point elementwise. So
one draw serves every point with the same (K, Nrx, Ntx), and
:func:`simulate` gives a whole sweep the bound and genie rates of common
random numbers. The inverse-Gram moment reads the same inverse:
[(Ghat^H Ghat)^-1]_kk = ||column k of X||^2 / sigma_k^2.

Every batched product of _tri_inv, _bases and _features goes through _mm,
which chooses its method by the pair count K. `@` makes one numpy call per
K x K matrix, so at K <= 3 a product is instead one whole-batch
multiply-add per contracted index; from K = 4 it is `@`, bit for bit.
Complex (n, K, K) products, one BLAS thread, µs (best of 15 on a 2-core
x86 VM):

    K    n      @      multiply-adds
    2    600    179     41
    3    600    198     89
    4    100     34     38
    5    600    220    825
    10   100     67    330

The decode and forward probes read the same pass. With x and x_fwd the
source and forwarded symbols (iid CN(0, 1)), the relay noise n ~ CN(0, I_Nrx)
and the relay transmit vector s = sqrt(er/Ntx) A x_fwd, they are the residual
powers |[W^T y]_k / c_k - sqrt(Ps) x_k|^2 (decode; c_k = 1 for ZF, Nrx
sigma_sr,k^2 for MR) and |g_k^T s - limit_k x_fwd,k|^2 (forward, limit_k the
large-array amplitude). Their expectations over x, x_fwd and n are closed in
the per-trial terms above, so each probe is a function of the pooled feature
means (mp and li the multipair and loop rows, an = ||w_k||^2):

    decode      mean_k Ps E|S_kk/c_k - 1|^2 + (Ps mp_k + Pr li_k + an_k)/c_k^2
    forward     mean_k (er/Ntx) E(|R_kk|^2 + mp_rd,k)
                       - 2 sqrt(er/Ntx) limit_k E Re R_kk + limit_k^2

with S = [w_k^T g_j] and R = [g_k^T a_j]. A conditional mean has the
expectation of the residual it replaces and no more variance (Rao-Blackwell;
Casella & Berger, 7.3), and each costs what a bound pass costs. The
loop_power probe ||G_RR s||^2 / Nrx draws nothing: its expectation
sigma_li^2 (er/Ntx) E||A||_F^2 is exactly sigma_li^2 er/Ntx, since alpha_zf
and alpha_mrt make E||A||_F^2 = 1.

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
iid one. A result's stderrs all come from one product G^T S G of its
stacked gradients: 11 for a bound, 3 for the genie rates.

Everything consumes a caller-supplied Generator in a fixed chunk order, so a
given seed reproduces results exactly regardless of available memory, and
rates._check_inputs refuses a bad (cfg, profile, scheme) before the first draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LargeScaleProfile, SystemConfig, _check_count, _check_real
from .rates import _check_inputs, _rd_limit

# Feature rows of one simulated trial, K columns (pairs) each: first-hop
# gain real part, imaginary part, |gain|^2, multipair, loop and noise;
# second-hop gain real part, imaginary part, |gain|^2 and multipair; the
# genie log2(1 + SINR) of the first and second hop.
_FEATURES = 12
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
class _Rates:
    """Per-pair hop and end-to-end rates, the sum rate, and their stderrs."""

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


@dataclass(frozen=True)
class McRateResult(_Rates):
    """Bound rates assembled from simulated moments."""

    sr_terms: HopTerms
    rd_terms: HopTerms


@dataclass(frozen=True)
class GenieResult(_Rates):
    """E{log2(1 + instantaneous SINR)} with known realized gains."""


def _chunks(trials: int, per_trial: float):
    """Successive chunk sizes adding up to trials: ~64 MB of complex128 for
    per_trial entries a trial holds, and at most 4096 trials. A pass (which
    the bound, the genie rates and two of the probes read) budgets 16 K x K
    arrays a trial and holds at most about 10 (the five draws and the
    chunk's products while _bases runs); the inverse-Gram moment budgets 4
    and holds about 3. So no chunk depends on the array size.
    """
    chunk = max(1, min(4096, int(64e6 / (16.0 * per_trial))))
    for done in range(0, trials, chunk):
        yield min(chunk, trials - done)


def alpha_zf(cfg: SystemConfig, profile: LargeScaleProfile) -> float:
    """ZF precoder normalization: E||A||_F^2 = alpha^2 E tr(Gram_rd^-1) = 1."""
    return float(np.sqrt((cfg.Ntx - cfg.K) / np.sum(1.0 / profile.sigma_rd_sq)))


def alpha_mrt(cfg: SystemConfig, profile: LargeScaleProfile) -> float:
    """MRT precoder normalization: E||A||_F^2 = alpha^2 E tr(Gram_rd) = 1."""
    return float(np.sqrt(1.0 / (cfg.Ntx * np.sum(profile.sigma_rd_sq))))


def _cn(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian samples from one buffer,
    real parts first; 1/sqrt(2) scales it as numpy rounds (a + 1j b) / sqrt(2)."""
    x = rng.standard_normal((2, *shape)) * (1.0 / np.sqrt(2.0))
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = x
    return z


def gram_factor_batch(n_ant: int, k: int, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Unit-variance Bartlett factors R^H (n x k x m, m = min(n_ant, k)).

    G is n_ant x k with independent CN(0, variances[j] I) columns. By the
    complex Bartlett decomposition G = Q R diag(sqrt(variances)), with Q
    n_ant x m orthonormal and R m x k upper trapezoidal, independent of Q:
    |R_ii|^2 ~ Gamma(n_ant - i, 1) and R_ij (j > i) iid CN(0, 1). So
    F = diag(sqrt(variances)) R^H has F F^H ~ G^H G, in O(k^2) per trial;
    no variance enters the draw, so one R serves every variance profile,
    and the caller scales it. m < k covers fewer antennas than columns.
    Draw order: the n x m Gamma variates, then the strictly upper entries
    of each R in row-major order.
    """
    m = min(n_ant, k)
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, 1, k)
    r = np.zeros((n, m, k), dtype=complex)
    r[:, diag, diag] = np.sqrt(rng.standard_gamma(n_ant - diag, size=(n, m)))
    r[:, rows, cols] = _cn((n, rows.size), rng)
    return np.swapaxes(np.conjugate(r, out=r), 1, 2)


def _draw(cfg: SystemConfig, n: int, rng: np.random.Generator):
    """The unit-variance (R_sr^H, R_rd^H, Z_e, Z_l, Z_r) of n trials; they
    depend on cfg only through (K, Nrx, Ntx), and _bases forms their products."""
    r_sr_h = gram_factor_batch(cfg.Nrx, cfg.K, n, rng)
    r_rd_h = gram_factor_batch(cfg.Ntx, cfg.K, n, rng)
    m_sr, m_rd = r_sr_h.shape[2], r_rd_h.shape[2]
    return (r_sr_h, r_rd_h, _cn((n, m_sr, cfg.K), rng), _cn((n, m_sr, m_rd), rng),
            _cn((n, cfg.K, m_rd), rng))


# Up to this pair count a batched product is one whole-batch multiply-add
# per contracted index; above it the product is `@`, which makes one numpy
# call per matrix. Complex (n, K, K) products, one BLAS thread, µs for `@` /
# multiply-adds:
#
#     K = 2,  n = 600:  179 /  41      K = 5,  n = 600:  220 / 825
#     K = 3,  n = 600:  198 /  89      K = 10, n = 100:   67 / 330
#     K = 4,  n = 100:   34 /  38
#
# The rule goes by K, not by the contracted length, so every product at
# K >= 4 (the short first rows of _tri_inv among them) keeps the bits of `@`.
_BROADCAST_MAX_K = 3


def _mm(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """a @ b for a batch of products at pair count k: a matrix or, for a 1-D b,
    a vector over the last axis of a (_BROADCAST_MAX_K chooses the method)."""
    width = a.shape[-1]
    if k > _BROADCAST_MAX_K or width == 0:  # an empty contraction is @'s zeros
        return a @ b
    if b.ndim == 1:
        out = a[..., 0] * b[0]
        for j in range(1, width):
            out += a[..., j] * b[j]
        return out
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, width):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def _tri_inv(low: np.ndarray) -> np.ndarray:
    """Invert a batch (n, K, K) of lower-triangular L with real diagonals in place
    by forward substitution: X[i, :i] = -L[i, :i] X[:i, :i] / L_ii, X_ii = 1 / L_ii."""
    k = low.shape[-1]
    for i in range(k):
        recip = 1.0 / low[:, i, i, None].real
        low[:, i, :i] = _mm(low[:, i, None, :i], low[:, :i, :i], k)[:, 0] * -recip
        low[:, i, i] = recip[:, 0]
    return low


def _bases(scheme: str, draw) -> tuple:
    """A chunk's point-independent products (module docstring): per hop ZF's
    diag(Q) and |Q|^2 or MR's P and Q, and the first hop's norms N and |B_l|^2."""
    l_sr, l_rd, z_e, z_l, z_r = draw
    k = l_sr.shape[1]
    if scheme == "zf":  # Xbar_sr and Xbar_rd overwrite the draw's factors
        xbar_sr = np.conjugate(_tri_inv(l_sr), out=l_sr)
        xbar_rd = np.conjugate(_tri_inv(l_rd), out=l_rd)
        m_sr = np.swapaxes(xbar_sr, 1, 2)
        q_sr, q_rd = _mm(m_sr, z_e, k), _mm(z_r, xbar_rd, k)
        return (np.diagonal(q_sr, axis1=1, axis2=2).copy(), np.abs(q_sr) ** 2,
                np.sum(np.abs(xbar_sr) ** 2, axis=1),
                np.abs(_mm(_mm(m_sr, z_l, k), xbar_rd, k)) ** 2,
                np.diagonal(q_rd, axis1=1, axis2=2).copy(), np.abs(q_rd) ** 2)
    l_rd_t = np.swapaxes(l_rd, 1, 2)
    p_sr = _mm(l_sr, np.swapaxes(l_sr, 1, 2).conj(), k)
    p_rd = _mm(l_rd.conj(), l_rd_t, k)
    return (p_sr, _mm(l_sr, z_e, k), np.diagonal(p_sr, axis1=1, axis2=2).real,
            np.abs(_mm(_mm(l_sr, z_l, k), l_rd_t, k)) ** 2,
            p_rd, _mm(z_r, l_rd_t, k))


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
        between pairs. Returns a (K,) array and a float; a stack (M, F, K)
        of gradients returns (M, K) and (M,) arrays, all from one product.
        """
        stack = grad.reshape(-1, *grad.shape[-2:])
        m, f, k = stack.shape
        # column i K + j: estimate j of gradient i, in the features of pair j
        g = (stack[..., None] * np.eye(k)).transpose(1, 2, 0, 3).reshape(f * k, m * k)
        cov = (g.T @ self.cov @ g / self.trials).reshape(m, k, m, k)
        own = cov[np.arange(m), :, np.arange(m)]  # (M, K, K): each estimate's own block
        se = np.sqrt(np.maximum(np.diagonal(own, axis1=1, axis2=2), 0.0))
        se_sum = np.sqrt(np.maximum(np.sum(own, axis=(1, 2)), 0.0))
        return (se[0], float(se_sum[0])) if grad.ndim == 2 else (se, se_sum)


def _grad(k: int, rows: dict) -> np.ndarray:
    """A (_FEATURES, K) gradient: the given rows set, every other row zero."""
    grad = np.zeros((_FEATURES, k))
    for row, value in rows.items():
        grad[row] = value
    return grad


def _features(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
              bases) -> np.ndarray:
    """The (n, _FEATURES, K) feature rows of one point's trials, from a chunk's
    _bases: gd is the diagonal and go the off-diagonal sum of each bracket."""
    a_sr, b_sr, norm_sr, loop2, a_rd, b_rd = bases
    s_sr, s_rd = np.sqrt(profile.sigma_sr_sq), np.sqrt(profile.sigma_rd_sq)
    d_sr = np.sqrt(profile.beta_sr - profile.sigma_sr_sq)
    d_rd = np.sqrt(profile.beta_rd - profile.sigma_rd_sq)
    if scheme == "zf":
        alpha, u, v = alpha_zf(cfg, profile), 1.0 / s_sr, 1.0 / s_rd
        gd_sr, gd_rd = s_sr + d_sr * a_sr, s_rd + d_rd * a_rd
        go_sr = _mm(b_sr, d_sr ** 2, cfg.K) - np.abs(a_sr) ** 2 * d_sr ** 2
        go_rd = d_rd ** 2 * (_mm(b_rd, v ** 2, cfg.K) - np.abs(a_rd) ** 2 * v ** 2)
    else:  # "mr"
        alpha, u, v = alpha_mrt(cfg, profile), s_sr, s_rd
        g_sr, g_rd = a_sr * s_sr + b_sr * d_sr, a_rd * s_rd[:, None] + b_rd * d_rd[:, None]
        gd_sr, gd_rd = np.diagonal(g_sr, axis1=1, axis2=2), np.diagonal(g_rd, axis1=1, axis2=2)
        go_sr = np.sum(np.abs(g_sr) ** 2, axis=2) - np.abs(gd_sr) ** 2
        go_rd = _mm(np.abs(g_rd) ** 2, v ** 2, cfg.K) - np.abs(gd_rd) ** 2 * v ** 2
    diag_sr, mp_sr = u * gd_sr, u ** 2 * go_sr
    diag_rd, mp_rd = alpha * v * gd_rd, alpha ** 2 * go_rd
    li = cfg.sigma_li_sq * alpha ** 2 * u ** 2 * _mm(loop2, v ** 2, cfg.K)
    an = u ** 2 * norm_sr
    abs2_sr, abs2_rd = np.abs(diag_sr) ** 2, np.abs(diag_rd) ** 2
    sinr_sr = cfg.Ps * abs2_sr / (cfg.Ps * mp_sr + cfg.Pr * li + an)
    sinr_rd = cfg.Pr * abs2_rd / (cfg.Pr * mp_rd + 1.0)
    return np.stack([
        diag_sr.real, diag_sr.imag, abs2_sr, mp_sr, li, an,
        diag_rd.real, diag_rd.imag, abs2_rd, mp_rd,
        np.log2(1.0 + sinr_sr), np.log2(1.0 + sinr_rd)], axis=1)


def _simulate(points, scheme: str, trials: int, rng: np.random.Generator,
              least: int = 2) -> list:
    """One _Accumulator per (cfg, profile) point, every point on the same
    draws; least is the fewest trials the caller takes (2 for a stderr).
    Every check, rates._check_inputs on each point among them, runs before
    the first draw."""
    if not points:
        raise ValueError("need at least one point")
    cfg = points[0][0]
    if any((c.K, c.Nrx, c.Ntx) != (cfg.K, cfg.Nrx, cfg.Ntx) for c, _ in points):
        raise ValueError("all points must share K, Nrx and Ntx")
    for c, profile in points:
        _check_inputs(c, profile, scheme)
    _check_count("trials", trials, least)
    accs = [_Accumulator(_FEATURES, cfg.K) for _ in points]
    for n in _chunks(trials, 16 * cfg.K ** 2):
        bases = _bases(scheme, _draw(cfg, n, rng))
        for (c, profile), acc in zip(points, accs):
            acc.add(_features(c, profile, scheme, bases))
    return accs


def _hop_terms(acc: _Accumulator, rows: range):
    """Pooled bound ingredients of one hop, from its feature rows, and the
    gradients of its drawn fields' stderrs in HopTerms order."""
    re, im, gain2, *plain = acc.mean[rows.start:rows.stop]
    mean = re + 1j * im
    mag = np.abs(mean)
    k = mag.size
    first = rows.start
    # the second hop draws no loop or noise rows: its loop term is exactly
    # zero and its noise exactly one
    mp, li, an = (plain + [np.zeros(k), np.ones(k)])[:3]
    grads = [_grad(k, {first: re / mag, first + 1: im / mag}),
             _grad(k, {first: -2.0 * re, first + 1: -2.0 * im, first + 2: 1.0})]
    grads += [_grad(k, {row: 1.0}) for row in rows[3:]]
    terms = dict(mean_gain=mean, var_gain=np.maximum(gain2 - mag ** 2, 0.0),
                 multipair=mp, loop=li, noise=an)
    return terms, grads


def _hop_rate(cfg: SystemConfig, p: float, terms: dict, rows: range):
    """Bound rate of one hop (transmit power p) and its gradient in the features.

    With m = E{w_k^T g_k}, D = p var + p multipair + Pr loop + noise and
    P = D + p|m|^2 = p E|w_k^T g_k|^2 + p multipair + Pr loop + noise, the
    rate log2(1 + p|m|^2 / D) is log2(P / D). P is linear in the feature
    means, so the gradient is 2p (Re m, Im m) / D in the gain's real and
    imaginary rows and (1/P - 1/D) times the power in every other row, all
    over ln 2.
    """
    m = terms["mean_gain"]
    signal = p * np.abs(m) ** 2
    den = (p * terms["var_gain"] + p * terms["multipair"] + cfg.Pr * terms["loop"]
           + terms["noise"])
    shrink = 1.0 / (den + signal) - 1.0 / den
    slopes = (2.0 * p * m.real / den, 2.0 * p * m.imag / den,
              p * shrink, p * shrink, cfg.Pr * shrink, shrink)
    grad = _grad(m.size, dict(zip(rows, slopes))) / np.log(2.0)
    return np.log2(1.0 + signal / den), grad


def _rate_fields(acc: _Accumulator, r_sr, r_rd, grad_sr, grad_rd, more=()):
    """Hop, end-to-end and sum rates with their stderrs, from the hop gradients,
    and the (M, K) stderrs of M more gradients, all from one stderr product.

    min(r_sr, r_rd) takes the gradient of the smaller hop; it has none at a
    tie, and there the first hop's gradient stands in.
    """
    r_e2e = np.minimum(r_sr, r_rd)
    grad_e2e = np.where(r_sr <= r_rd, grad_sr, grad_rd)
    se, se_sum = acc.stderr(np.stack([grad_e2e, grad_sr, grad_rd, *more]))
    return dict(
        r_sr=r_sr, r_rd=r_rd, r_e2e=r_e2e,
        stderr_r_sr=se[1], stderr_r_rd=se[2], stderr_r_e2e=se[0],
        sum_rate=float(np.sum(r_e2e)), stderr_sum_rate=float(se_sum[0]),
    ), se[3:]


_HOP_STDERRS = ("stderr_mean_gain", "stderr_var_gain", "stderr_multipair",
                "stderr_loop", "stderr_noise")


def _bound(cfg: SystemConfig, acc: _Accumulator, scheme: str) -> McRateResult:
    """The bound rates assembled from one point's pooled features."""
    sr_terms, sr_grads = _hop_terms(acc, _SR_ROWS)
    rd_terms, rd_grads = _hop_terms(acc, _RD_ROWS)
    r_sr, grad_sr = _hop_rate(cfg, cfg.Ps, sr_terms, _SR_ROWS)
    r_rd, grad_rd = _hop_rate(cfg, cfg.Pr, rd_terms, _RD_ROWS)
    fields, se = _rate_fields(acc, r_sr, r_rd, grad_sr, grad_rd, sr_grads + rd_grads)
    # the second hop's loop and noise are exact: zero stderr
    zero, n = np.zeros(cfg.K), len(sr_grads)
    se_sr = dict(zip(_HOP_STDERRS, se[:n]))
    se_rd = dict(zip(_HOP_STDERRS, [*se[n:], zero, zero]))
    return McRateResult(**fields, sr_terms=HopTerms(**sr_terms, **se_sr),
                        rd_terms=HopTerms(**rd_terms, **se_rd), scheme=scheme,
                        trials=acc.trials)


def _genie(cfg: SystemConfig, acc: _Accumulator, scheme: str) -> GenieResult:
    """The genie rates of one point's pooled features."""
    r_sr, r_rd = acc.mean[_GENIE_SR], acc.mean[_GENIE_RD]
    grad_sr, grad_rd = _grad(cfg.K, {_GENIE_SR: 1.0}), _grad(cfg.K, {_GENIE_RD: 1.0})
    return GenieResult(**_rate_fields(acc, r_sr, r_rd, grad_sr, grad_rd)[0],
                       scheme=scheme, trials=acc.trials)


def simulate(points, scheme: str, trials: int,
             rng: np.random.Generator) -> list:
    """One (McRateResult, GenieResult) pair per (cfg, profile) point, all
    from the same draws: each chunk is drawn once and scaled to every point,
    so the points must share K, Nrx and Ntx. points may be any iterable of
    pairs (a list, a zip, a generator). The library's one Monte Carlo entry
    point: a single point gives what mc_rate and genie_rates each give for
    the same seed.
    """
    points = list(points)
    accs = _simulate(points, scheme, trials, rng)
    return [(_bound(cfg, acc, scheme), _genie(cfg, acc, scheme))
            for (cfg, _), acc in zip(points, accs)]


def mc_rate(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
            trials: int, rng: np.random.Generator) -> McRateResult:
    """Simulate the bound ingredients and assemble the per-pair rates.

    Kept only because perfbench/workloads.py calls it; the entry point is
    simulate, whose [0][0] this is bit for bit.
    """
    return _bound(cfg, _simulate([(cfg, profile)], scheme, trials, rng)[0], scheme)


def genie_rates(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
                trials: int, rng: np.random.Generator) -> GenieResult:
    """Average instantaneous-SINR rates (decoder knows each realized gain).

    Kept only because perfbench/workloads.py calls it; the entry point is
    simulate, whose [0][1] this is bit for bit.
    """
    return _genie(cfg, _simulate([(cfg, profile)], scheme, trials, rng)[0], scheme)


def wishart_inverse_moment(n_ant: int, variances, trials: int,
                           rng: np.random.Generator):
    """MC estimate of E{[(G^H G)^-1]_kk} for G with iid CN(0, var_k) columns.

    Returns (mean, stderr) arrays; the closed form is 1/((n_ant - K) var_k).
    Each trial draws only the K x K Gram factor; the stderr is the iid one of
    a plain per-trial mean. Needs a non-empty 1-D variances, n_ant > K,
    trials >= 2 and finite var_k > 0. Kept only because perfbench/workloads.py
    calls it; the entry point is simulate, whose ZF pass reads the same
    inverse (module docstring).
    """
    variances = np.asarray(variances, dtype=float)
    if variances.ndim != 1 or variances.size == 0:
        raise ValueError("variances must be a non-empty 1-D vector")
    for v in variances:
        _check_real("variances", v, strict=True)
    k = variances.size
    _check_count("n_ant", n_ant)
    if n_ant <= k:
        raise ValueError("need more antennas than columns")
    _check_count("trials", trials, 2)
    acc = _Accumulator(1, k)
    for n in _chunks(trials, 4 * k ** 2):
        # (F F^H)^-1 = F^-H F^-1 with F^-1 = R^-H diag(1/sqrt(variances))
        inv = _tri_inv(gram_factor_batch(n_ant, k, n, rng))
        acc.add((np.sum(np.abs(inv) ** 2, axis=1) / variances)[:, None])
    return acc.mean[0], acc.stderr(np.ones((1, k)))[0]


def convergence_probe(kind: str, cfg: SystemConfig, profile: LargeScaleProfile,
                      scheme: str, trials: int, rng: np.random.Generator,
                      er: float | None = None) -> float:
    """Scalar figures that must vanish as the arrays grow.

    kind "decode": mean square of the decoded first-hop symbol around
    sqrt(Ps) x_k, after removing the ZF unit gain or the Nrx sigma^2 MRC gain.
    kind "loop_power": per-antenna received self-interference power when the
    relay spends Pr = er/Ntx, where er is finite and > 0 (decode ignores it).
    kind "forward": mean square of the destination signal around its
    deterministic large-array amplitude, again with Pr = er/Ntx.

    Each returns a single float. decode and forward average over pairs and
    trials: the closed form of the module docstring in the pooled feature
    means of one pass (trials >= 1), so the cost does not grow with the
    arrays and the draws are those of a one-point simulate on the same
    rng. loop_power is its exact value sigma_li^2 er/Ntx (module docstring)
    after the same checks, trials among them, and draws nothing from rng.
    """
    if kind not in ("decode", "loop_power", "forward"):
        raise ValueError(f"unknown probe kind {kind!r}")
    if kind != "decode":
        _check_real("er", er, strict=True)
    if kind == "loop_power":
        _check_inputs(cfg, profile, scheme)
        _check_count("trials", trials)
        return float(cfg.sigma_li_sq * er / cfg.Ntx)
    means = _simulate([(cfg, profile)], scheme, trials, rng, least=1)[0].mean
    re_sr, _, gain2_sr, mp_sr, li, an, re_rd, _, gain2_rd, mp_rd, _, _ = means
    if kind == "decode":
        c = 1.0 if scheme == "zf" else cfg.Nrx * profile.sigma_sr_sq
        resid = (cfg.Ps * (gain2_sr / c ** 2 - 2.0 * re_sr / c + 1.0)
                 + (cfg.Ps * mp_sr + cfg.Pr * li + an) / c ** 2)
    else:  # "forward"
        limit = np.sqrt(_rd_limit(scheme, profile.sigma_rd_sq, er))
        pr = er / cfg.Ntx
        resid = pr * (gain2_rd + mp_rd) - 2.0 * np.sqrt(pr) * limit * re_rd + limit ** 2
    return float(np.mean(resid))
