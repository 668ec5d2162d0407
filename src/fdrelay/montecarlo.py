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
decomposition draws F directly (:func:`fdrelay.channel.gram_factor_batch`).
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

In matrix-normal terms: given the estimates, W^T E_sr ~ MN(0, W^T W^*, D_sr^2),
E_rd^T A ~ MN(0, D_rd^2, A^T A^*) and W^T G_RR A ~ MN(0, sigma_li^2 W^T W^*,
A^T A^*), mutually independent, and every covariance and deterministic gain
(W^T Ghat_sr = U_w F_sr^H, Ghat_rd^T A = F_rd^* U_a^T) is a function of the
two Grams alone. So each trial has the law of an explicit N-dimensional draw,
the bound's moments and the genie SINR are both exact, and a trial costs
O(K^3) whatever the array size. Each chunk draws F_sr, F_rd, Z_e, Z_l, Z_r
in that order. The inverse-Gram moment uses the same factors:
[(Ghat^H Ghat)^-1]_kk is the squared norm of column k of F^-1.

The convergence probes reuse the same draw. With x and x_fwd the source and
forwarded symbols (iid CN(0, 1)), the relay noise n ~ CN(0, I_Nrx) and the
relay transmit vector s = sqrt(er/Ntx) A x_fwd, exactly:

    W^T y          = sqrt(Ps) S x + sqrt(Pr) L x_fwd + U_w z,   z ~ CN(0, I_m)
    ||G_RR s||^2   = sigma_li^2 ||s||^2 Gamma(Nrx, 1),  ||s||^2 = (er/Ntx) ||U_a^T x_fwd||^2
    G_RD^T A x_fwd = R x_fwd

with S, L and R the per-trial [w_k^T g_j], [w_k^T G_RR a_j] and [g_k^T a_j]
above: z = Q_sr^H n is iid and independent of the rest, given s the entries
of G_RR s are iid CN(0, sigma_li^2 ||s||^2), and Q_rd has orthonormal
columns. So a probe trial costs O(K^3) too.

Assembling the bound from the pooled estimates reproduces the closed forms;
the instantaneous-SINR ("genie") rates quantify what perfect gain knowledge
at the decoders would add. Point estimates use all trials pooled. Trials are
iid, so the standard error of a moment that is a plain per-trial mean
(multipair, loop, noise, the inverse-Gram diagonal) comes from its pooled
per-trial variance; the stderr of a function of means (the gain magnitude
and variance, every rate) comes from the spread of per-batch estimates (20
batches by default).

Everything consumes a caller-supplied Generator in a fixed chunk order, so a
given seed reproduces results exactly regardless of available memory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _cn, gram_factor_batch
from .model import LargeScaleProfile, SystemConfig

DEFAULT_BATCHES = 20


@dataclass(frozen=True)
class HopTerms:
    """Per-pair bound ingredients for one hop, with their standard errors.

    multipair, loop and noise are plain per-trial means, so their stderr is
    the iid one from the pooled per-trial variance; mean_gain (as a
    magnitude) and var_gain are functions of means and take the batch-means
    stderr. The second hop has no loop term and unit noise.
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


def _chunk_size(per_trial: float) -> int:
    # ~64 MB of complex128 per chunk for per_trial entries a trial holds, and
    # at most 4096 trials. A Gram-path trial (bound, genie and probe alike)
    # holds about 16 K x K arrays (factors, their inverses, the three Z draws
    # and the products), an inverse-Gram trial about 4, so no chunk depends
    # on the array size.
    return max(1, min(4096, int(64e6 / (16.0 * per_trial))))


def _batch_edges(trials: int, batches: int) -> np.ndarray:
    if trials < batches:
        raise ValueError("need at least one trial per batch")
    return (np.arange(batches + 1) * trials) // batches


def _batch_runs(start: int, n: int, edges: np.ndarray):
    """Batches met by trials start..start+n-1, with each run's first offset and length.

    Trials fill batches in order, so a chunk covers contiguous runs of one
    batch each: summing values over a run is np.add.reduceat at its offsets.
    """
    idx = np.searchsorted(edges, np.arange(start, start + n), side="right") - 1
    offsets = np.flatnonzero(np.diff(idx, prepend=-1))
    return idx[offsets], offsets, np.diff(offsets, append=n)


def _check_zf(cfg: SystemConfig) -> None:
    if cfg.Nrx <= cfg.K or cfg.Ntx <= cfg.K:
        raise ValueError("zero forcing needs Nrx > K and Ntx > K")


def alpha_zf(cfg: SystemConfig, profile: LargeScaleProfile) -> float:
    """ZF precoder normalization: E||A||_F^2 = alpha^2 E tr(Gram_rd^-1) = 1."""
    return float(np.sqrt((cfg.Ntx - cfg.K) / np.sum(1.0 / profile.sigma_rd_sq)))


def alpha_mrt(cfg: SystemConfig, profile: LargeScaleProfile) -> float:
    """MRT precoder normalization: E||A||_F^2 = alpha^2 E tr(Gram_rd) = 1."""
    return float(np.sqrt(1.0 / (cfg.Ntx * np.sum(profile.sigma_rd_sq))))


def _trial_terms(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
                 n: int, rng: np.random.Generator):
    """One exact draw per trial of (gain_sr, loop, noise, gain_rd), from the Grams.

    gain_sr[t, k, j] = w_k^T g_j, loop[t, k, j] = w_k^T G_RR a_j,
    noise[t, k] = ||w_k||^2 and gain_rd[t, k, j] = g_k^T a_j; the module
    docstring derives the law and the draw order. The factors U_w and U_a^T
    follow, for the probes.
    """
    f_sr = gram_factor_batch(cfg.Nrx, profile.sigma_sr_sq, n, rng)
    f_rd = gram_factor_batch(cfg.Ntx, profile.sigma_rd_sq, n, rng)
    if scheme == "zf":
        _check_zf(cfg)
        u_w = np.swapaxes(np.linalg.inv(f_sr), 1, 2).conj()
        u_a = alpha_zf(cfg, profile) * np.swapaxes(np.linalg.inv(f_rd), 1, 2).conj()
    elif scheme == "mr":
        u_w, u_a = f_sr, alpha_mrt(cfg, profile) * f_rd
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    u_a_t = np.swapaxes(u_a, 1, 2)
    z_e = _cn((n, f_sr.shape[2], cfg.K), rng)
    z_l = _cn((n, f_sr.shape[2], f_rd.shape[2]), rng)
    z_r = _cn((n, cfg.K, f_rd.shape[2]), rng)

    d_sr = np.sqrt(profile.beta_sr - profile.sigma_sr_sq)
    d_rd = np.sqrt(profile.beta_rd - profile.sigma_rd_sq)
    gain_sr = u_w @ (np.swapaxes(f_sr, 1, 2).conj() + z_e * d_sr)
    loop = np.sqrt(cfg.sigma_li_sq) * (u_w @ z_l @ u_a_t)
    noise = np.sum(np.abs(u_w) ** 2, axis=2)
    gain_rd = (f_rd.conj() + d_rd[:, None] * z_r) @ u_a_t
    return gain_sr, loop, noise, gain_rd, u_w, u_a_t


def _stderr(batch_means: np.ndarray) -> np.ndarray:
    # spread of per-batch estimates around their mean, standard error of the mean
    b = batch_means.shape[0]
    return np.std(batch_means, axis=0, ddof=1) / np.sqrt(b)


def _iid_stderr(sums: np.ndarray, squares: np.ndarray, trials: int) -> np.ndarray:
    # standard error of a plain per-trial mean from its pooled sums of values
    # and of squares: iid trials let every trial count, not just the spread of
    # the batch means. The sum-of-squares form is accurate enough here: these
    # moments vary by far more than its rounding error.
    mean = np.sum(sums, axis=0) / trials
    ss = np.maximum(np.sum(squares, axis=0) - trials * mean ** 2, 0.0)
    return np.sqrt(ss / (trials * (trials - 1.0)))


class _Accumulator:
    """Per-batch sums of every per-pair quantity the bounds need.

    Names ending in 2 hold sums of squares: gain2 of the gain magnitude (the
    second moment the variance needs), mp2/li2/an2 of the plain moments
    (for their iid stderr).
    """

    def __init__(self, batches: int, k: int):
        self.counts = np.zeros(batches)
        shape = (batches, k)
        self.sr_gain = np.zeros(shape, dtype=complex)
        self.sr_gain2 = np.zeros(shape)
        self.sr_mp = np.zeros(shape)
        self.sr_li = np.zeros(shape)
        self.sr_an = np.zeros(shape)
        self.sr_mp2 = np.zeros(shape)
        self.sr_li2 = np.zeros(shape)
        self.sr_an2 = np.zeros(shape)
        self.rd_gain = np.zeros(shape, dtype=complex)
        self.rd_gain2 = np.zeros(shape)
        self.rd_mp = np.zeros(shape)
        self.rd_mp2 = np.zeros(shape)
        self.genie_sr = np.zeros(shape)
        self.genie_rd = np.zeros(shape)

    def add(self, runs, **vals) -> None:
        batch, offsets, sizes = runs
        self.counts[batch] += sizes
        for name, v in vals.items():
            getattr(self, name)[batch] += np.add.reduceat(v, offsets, axis=0)


def _simulate(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
              trials: int, rng: np.random.Generator,
              batches: int = DEFAULT_BATCHES) -> _Accumulator:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    edges = _batch_edges(trials, batches)
    acc = _Accumulator(batches, cfg.K)
    chunk = _chunk_size(16 * cfg.K ** 2)
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        gain_sr, loop, an, gain_rd, _, _ = _trial_terms(cfg, profile, scheme, n, rng)
        abs2_sr = np.abs(gain_sr) ** 2
        diag_sr = np.diagonal(gain_sr, axis1=1, axis2=2)
        mp_sr = np.sum(abs2_sr, axis=2) - np.diagonal(abs2_sr, axis1=1, axis2=2)
        li = np.sum(np.abs(loop) ** 2, axis=2)

        abs2_rd = np.abs(gain_rd) ** 2
        diag_rd = np.diagonal(gain_rd, axis1=1, axis2=2)
        mp_rd = np.sum(abs2_rd, axis=2) - np.diagonal(abs2_rd, axis1=1, axis2=2)

        abs2_diag_sr = np.abs(diag_sr) ** 2
        abs2_diag_rd = np.abs(diag_rd) ** 2
        sinr_sr = cfg.Ps * abs2_diag_sr / (cfg.Ps * mp_sr + cfg.Pr * li + an)
        sinr_rd = cfg.Pr * abs2_diag_rd / (cfg.Pr * mp_rd + 1.0)

        acc.add(
            _batch_runs(done, n, edges),
            sr_gain=diag_sr, sr_gain2=abs2_diag_sr, sr_mp=mp_sr,
            sr_li=li, sr_an=an, sr_mp2=mp_sr ** 2, sr_li2=li ** 2, sr_an2=an ** 2,
            rd_gain=diag_rd, rd_gain2=abs2_diag_rd, rd_mp=mp_rd, rd_mp2=mp_rd ** 2,
            genie_sr=np.log2(1.0 + sinr_sr), genie_rd=np.log2(1.0 + sinr_rd),
        )
        done += n
    return acc


def _hop_rates(cfg: SystemConfig, mean, var, mp, li, an, hop: str):
    if hop == "sr":
        sinr = cfg.Ps * np.abs(mean) ** 2 / (
            cfg.Ps * var + cfg.Ps * mp + cfg.Pr * li + an)
    else:
        sinr = cfg.Pr * np.abs(mean) ** 2 / (cfg.Pr * var + cfg.Pr * mp + 1.0)
    return np.log2(1.0 + sinr)


def mc_rate(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
            trials: int, rng: np.random.Generator,
            batches: int = DEFAULT_BATCHES) -> McRateResult:
    """Simulate the bound ingredients and assemble the per-pair rates."""
    acc = _simulate(cfg, profile, scheme, trials, rng, batches)
    cnt = acc.counts[:, None]

    def pooled(batched):
        return np.sum(batched, axis=0) / trials

    def terms_of(gain, gain2, mp, li, an, mp2, li2, an2):
        mean_b = gain / cnt
        var_b = np.maximum(gain2 / cnt - np.abs(mean_b) ** 2, 0.0)
        mp_b, li_b, an_b = mp / cnt, li / cnt, an / cnt
        mean = pooled(gain)
        var = np.maximum(pooled(gain2) - np.abs(mean) ** 2, 0.0)
        return (
            HopTerms(
                mean_gain=mean, var_gain=var, multipair=pooled(mp),
                loop=pooled(li), noise=pooled(an),
                stderr_mean_gain=_stderr(np.abs(mean_b)),
                stderr_var_gain=_stderr(var_b),
                stderr_multipair=_iid_stderr(mp, mp2, trials),
                stderr_loop=_iid_stderr(li, li2, trials),
                stderr_noise=_iid_stderr(an, an2, trials),
            ),
            (mean_b, var_b, mp_b, li_b, an_b),
        )

    sr_terms, sr_b = terms_of(acc.sr_gain, acc.sr_gain2, acc.sr_mp, acc.sr_li,
                              acc.sr_an, acc.sr_mp2, acc.sr_li2, acc.sr_an2)
    zero = np.zeros_like(acc.rd_mp)
    unit = np.broadcast_to(cnt, acc.rd_mp.shape)  # batch sums of a unit noise
    rd_terms, rd_b = terms_of(acc.rd_gain, acc.rd_gain2, acc.rd_mp, zero,
                              unit, acc.rd_mp2, zero, unit)

    r_sr = _hop_rates(cfg, sr_terms.mean_gain, sr_terms.var_gain,
                      sr_terms.multipair, sr_terms.loop, sr_terms.noise, "sr")
    r_rd = _hop_rates(cfg, rd_terms.mean_gain, rd_terms.var_gain,
                      rd_terms.multipair, 0.0, 0.0, "rd")
    r_sr_b = _hop_rates(cfg, sr_b[0], sr_b[1], sr_b[2], sr_b[3], sr_b[4], "sr")
    r_rd_b = _hop_rates(cfg, rd_b[0], rd_b[1], rd_b[2], 0.0, 0.0, "rd")
    e2e_b = np.minimum(r_sr_b, r_rd_b)
    r_e2e = np.minimum(r_sr, r_rd)

    return McRateResult(
        r_sr=r_sr, r_rd=r_rd, r_e2e=r_e2e,
        stderr_r_sr=_stderr(r_sr_b), stderr_r_rd=_stderr(r_rd_b),
        stderr_r_e2e=_stderr(e2e_b),
        sum_rate=float(np.sum(r_e2e)),
        stderr_sum_rate=float(_stderr(np.sum(e2e_b, axis=1))),
        sr_terms=sr_terms, rd_terms=rd_terms, scheme=scheme, trials=trials,
    )


def genie_rates(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str,
                trials: int, rng: np.random.Generator,
                batches: int = DEFAULT_BATCHES) -> GenieResult:
    """Average instantaneous-SINR rates (decoder knows each realized gain)."""
    acc = _simulate(cfg, profile, scheme, trials, rng, batches)
    cnt = acc.counts[:, None]
    sr_b, rd_b = acc.genie_sr / cnt, acc.genie_rd / cnt
    e2e_b = np.minimum(sr_b, rd_b)
    r_sr = np.sum(acc.genie_sr, axis=0) / trials
    r_rd = np.sum(acc.genie_rd, axis=0) / trials
    r_e2e = np.minimum(r_sr, r_rd)
    return GenieResult(
        r_sr=r_sr, r_rd=r_rd, r_e2e=r_e2e,
        stderr_r_sr=_stderr(sr_b), stderr_r_rd=_stderr(rd_b),
        stderr_r_e2e=_stderr(e2e_b),
        sum_rate=float(np.sum(r_e2e)),
        stderr_sum_rate=float(_stderr(np.sum(e2e_b, axis=1))),
        scheme=scheme, trials=trials,
    )


def wishart_inverse_moment(n_ant: int, variances, trials: int,
                           rng: np.random.Generator,
                           batches: int = DEFAULT_BATCHES):
    """MC estimate of E{[(G^H G)^-1]_kk} for G with iid CN(0, var_k) columns.

    Returns (mean, stderr) arrays; the closed form is 1/((n_ant - K) var_k).
    Each trial draws only the K x K Gram factor; the stderr is the iid one of
    a plain per-trial mean.
    """
    variances = np.asarray(variances, dtype=float)
    k = variances.size
    if n_ant <= k:
        raise ValueError("need more antennas than columns")
    edges = _batch_edges(trials, batches)
    sums = np.zeros((batches, k))
    squares = np.zeros((batches, k))
    chunk = _chunk_size(4 * k ** 2)
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        f_inv = np.linalg.inv(gram_factor_batch(n_ant, variances, n, rng))
        inv_diag = np.sum(np.abs(f_inv) ** 2, axis=1)  # (F F^H)^-1 = F^-H F^-1
        batch, offsets, _ = _batch_runs(done, n, edges)
        sums[batch] += np.add.reduceat(inv_diag, offsets, axis=0)
        squares[batch] += np.add.reduceat(inv_diag ** 2, offsets, axis=0)
        done += n
    return np.sum(sums, axis=0) / trials, _iid_stderr(sums, squares, trials)


def li_approx_oracle(cfg: SystemConfig, profile: LargeScaleProfile,
                     trials: int, rng: np.random.Generator, pair: int = 0,
                     batches: int = DEFAULT_BATCHES):
    """Measured ZF loop-interference power for one pair vs its closed form.

    Returns (mc, approx): mc is the sample mean of Pr E{|w_k^T G_RR A|^2}
    under ZF processing; approx is sigma_li_sq Pr (Ntx-K) / (sigma_sr_k^2
    Ntx (Nrx-K)). The gap between the two is the only approximation step in
    the first-hop ZF rate formula.
    """
    if not 0 <= pair < cfg.K:
        raise ValueError("pair index out of range")
    acc = _simulate(cfg, profile, "zf", trials, rng, batches)
    mc = cfg.Pr * float(np.sum(acc.sr_li[:, pair]) / trials)
    s2 = float(profile.sigma_sr_sq[pair])
    approx = (cfg.sigma_li_sq * cfg.Pr * (cfg.Ntx - cfg.K)
              / (s2 * cfg.Ntx * (cfg.Nrx - cfg.K)))
    return mc, approx


def _mv(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-trial matrix-vector product of (n, a, b) and (n, b) arrays."""
    return (m @ v[..., None])[..., 0]


def _probe_terms(kind: str, cfg: SystemConfig, profile: LargeScaleProfile,
                 scheme: str, n: int, rng: np.random.Generator,
                 er: float | None = None) -> np.ndarray:
    """Per-trial residual power of one probe chunk, averaged over pairs (or antennas).

    The module docstring gives the law, convergence_probe the draw order.
    """
    gain_sr, loop, _, gain_rd, u_w, u_a_t = _trial_terms(cfg, profile, scheme, n, rng)
    x = _cn((n, cfg.K), rng)
    x_fwd = _cn((n, cfg.K), rng)
    if kind == "decode":
        z = _cn((n, u_w.shape[2]), rng)
        r = (np.sqrt(cfg.Ps) * _mv(gain_sr, x) + np.sqrt(cfg.Pr) * _mv(loop, x_fwd)
             + _mv(u_w, z))
        if scheme == "mr":
            r = r / (cfg.Nrx * profile.sigma_sr_sq)
        resid = r - np.sqrt(cfg.Ps) * x
    elif kind == "loop_power":  # ||G_RR s||^2 / Nrx
        s_sq = er / cfg.Ntx * np.sum(np.abs(_mv(u_a_t, x_fwd)) ** 2, axis=1)
        return cfg.sigma_li_sq * s_sq * rng.standard_gamma(cfg.Nrx, size=n) / cfg.Nrx
    else:  # "forward"
        recv = np.sqrt(er / cfg.Ntx) * _mv(gain_rd, x_fwd)
        if scheme == "zf":
            limit = np.sqrt(er / np.sum(1.0 / profile.sigma_rd_sq))
        else:
            limit = np.sqrt(er * profile.sigma_rd_sq**2 / np.sum(profile.sigma_rd_sq))
        resid = recv - limit * x_fwd
    return np.mean(np.abs(resid) ** 2, axis=1)


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
    return a single float. Each trial is drawn in K x K terms from the law
    in the module docstring, so the cost does not grow with the arrays. Per
    chunk the draws are F_sr, F_rd, Z_e, Z_l, Z_r, then x, x_fwd, then z
    ("decode") or the Gamma(Nrx, 1) variates ("loop_power").
    """
    if kind not in ("decode", "loop_power", "forward"):
        raise ValueError(f"unknown probe kind {kind!r}")
    if kind != "decode" and (er is None or er <= 0):
        raise ValueError(f"kind {kind!r} needs er > 0")
    chunk = _chunk_size(16 * cfg.K ** 2)
    total = 0.0
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        total += float(np.sum(_probe_terms(kind, cfg, profile, scheme, n, rng, er)))
        done += n
    return total / trials
