"""Small-scale channel sampling, the pilot phase, and MMSE estimation.

Two routes produce a ChannelSet: an explicit pilot-phase simulation
(:func:`estimate_via_pilots`) and direct sampling from the known estimate
and error statistics (:func:`sample_estimate_direct`). They are statistically
equivalent; the direct route is the cheap default for Monte Carlo work and
the pilot route is the fidelity oracle.

Only :func:`sample_true_channels`, :func:`estimate_via_pilots` and
:func:`direct_channel_batch` (behind :func:`sample_estimate_direct` and the
Monte Carlo convergence probes) draw length-N arrays, and only the first and
the ``with_rr=True`` branch of the last draw the Nrx x Ntx loop channel G_RR.
The Monte Carlo rate and inverse-Gram estimators draw no length-N array:
the rates depend on the estimates only through their K x K Gram matrices,
which :func:`gram_factor_batch` draws from the complex Bartlett decomposition
in O(K^2) per trial, and every other K x K term is drawn from its exact law
given the two Grams (see :mod:`fdrelay.montecarlo`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LargeScaleProfile, SystemConfig


@dataclass(frozen=True)
class PilotBook:
    """Row-orthonormal pilot sequences for sources (phi_s) and destinations (phi_d)."""

    phi_s: np.ndarray  # K x tau
    phi_d: np.ndarray  # K x tau


@dataclass(frozen=True)
class ChannelSet:
    """One joint realization of true channels, estimates, and errors.

    The identities g_sr = ghat_sr + err_sr and g_rd = ghat_rd + err_rd hold
    exactly by construction.
    """

    g_sr: np.ndarray    # Nrx x K
    g_rd: np.ndarray    # Ntx x K
    g_rr: np.ndarray    # Nrx x Ntx loop-interference channel
    ghat_sr: np.ndarray
    ghat_rd: np.ndarray
    err_sr: np.ndarray
    err_rd: np.ndarray


def _cn(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly-symmetric complex Gaussian samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_true_channels(
    cfg: SystemConfig, profile: LargeScaleProfile, rng: np.random.Generator
):
    """Draw (G_SR, G_RD, G_RR): columns scaled by sqrt(beta), LI entries CN(0, sigma_li_sq)."""
    g_sr = _cn((cfg.Nrx, cfg.K), rng) * np.sqrt(profile.beta_sr)
    g_rd = _cn((cfg.Ntx, cfg.K), rng) * np.sqrt(profile.beta_rd)
    g_rr = _cn((cfg.Nrx, cfg.Ntx), rng) * np.sqrt(cfg.sigma_li_sq)
    return g_sr, g_rd, g_rr


def generate_pilots(K: int, tau: int) -> PilotBook:
    """Deterministic pilot books from normalized DFT rows.

    Rows 0..K-1 of the tau-point DFT basis serve the sources and rows
    K..2K-1 the destinations, so the two books are exactly orthonormal and
    mutually orthogonal. Requires tau >= 2K.
    """
    if tau < 2 * K:
        raise ValueError("pilot length tau must be at least 2K")
    m = np.arange(2 * K)[:, None] * np.arange(tau)[None, :]
    basis = np.exp(-2j * np.pi * m / tau) / np.sqrt(tau)
    return PilotBook(phi_s=basis[:K], phi_d=basis[K:])


def estimate_via_pilots(
    true_channels,
    pilots: PilotBook,
    cfg: SystemConfig,
    profile: LargeScaleProfile,
    rng: np.random.Generator,
) -> ChannelSet:
    """Simulate the pilot phase and form MMSE estimates by de-spreading.

    Both arrays hear both pilot books: the receive array sees the sources
    plus the destination cross channel, the transmit array sees the
    destinations plus the source cross channel. Pilot orthogonality removes
    the cross terms exactly; the MMSE shrinkage is the diagonal
    (D^-1/(tau*Pp) + I)^-1 applied per pair. Errors are defined by
    subtraction so the ChannelSet sum identity is exact.
    """
    if cfg.Pp <= 0:
        raise ValueError("pilot estimation requires Pp > 0")
    g_sr, g_rd, g_rr = true_channels
    root_ep = np.sqrt(cfg.tau * cfg.Pp)

    # cross channels seen only during training
    gbar_rd = _cn((cfg.Nrx, cfg.K), rng) * np.sqrt(profile.beta_rd)
    gbar_sr = _cn((cfg.Ntx, cfg.K), rng) * np.sqrt(profile.beta_sr)

    y_rp = root_ep * (g_sr @ pilots.phi_s + gbar_rd @ pilots.phi_d) + _cn((cfg.Nrx, cfg.tau), rng)
    y_tp = root_ep * (gbar_sr @ pilots.phi_s + g_rd @ pilots.phi_d) + _cn((cfg.Ntx, cfg.tau), rng)

    # shrinkage (D^-1/(tau*Pp) + I)^-1 collapses to sigma^2/beta per pair
    shrink_sr = profile.sigma_sr_sq / profile.beta_sr
    shrink_rd = profile.sigma_rd_sq / profile.beta_rd
    ghat_sr = (y_rp @ pilots.phi_s.conj().T) / root_ep * shrink_sr
    ghat_rd = (y_tp @ pilots.phi_d.conj().T) / root_ep * shrink_rd

    return ChannelSet(
        g_sr=g_sr, g_rd=g_rd, g_rr=g_rr,
        ghat_sr=ghat_sr, ghat_rd=ghat_rd,
        err_sr=g_sr - ghat_sr, err_rd=g_rd - ghat_rd,
    )


def direct_channel_batch(
    cfg: SystemConfig,
    profile: LargeScaleProfile,
    n: int,
    rng: np.random.Generator,
    with_rr: bool = True,
):
    """Stacked direct draws for n trials: (ghat_sr, err_sr, ghat_rd, err_rd, g_rr).

    Leading axis is the trial index. Estimates and errors are independent
    with per-entry variances sigma^2 and beta - sigma^2; g_rr is None when
    with_rr is False. This is the vectorized core behind
    sample_estimate_direct and the Monte Carlo convergence probes; the probes
    pass with_rr=False and draw G_RR v from its law given v instead.
    """
    sig_sr = np.sqrt(profile.sigma_sr_sq)
    sig_rd = np.sqrt(profile.sigma_rd_sq)
    ghat_sr = _cn((n, cfg.Nrx, cfg.K), rng) * sig_sr
    err_sr = _cn((n, cfg.Nrx, cfg.K), rng) * np.sqrt(profile.beta_sr - profile.sigma_sr_sq)
    ghat_rd = _cn((n, cfg.Ntx, cfg.K), rng) * sig_rd
    err_rd = _cn((n, cfg.Ntx, cfg.K), rng) * np.sqrt(profile.beta_rd - profile.sigma_rd_sq)
    g_rr = _cn((n, cfg.Nrx, cfg.Ntx), rng) * np.sqrt(cfg.sigma_li_sq) if with_rr else None
    return ghat_sr, err_sr, ghat_rd, err_rd, g_rr


def gram_factor_batch(n_ant: int, variances, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Factors F (n x K x m, m = min(n_ant, K)) with F F^H ~ G^H G.

    G is n_ant x K with independent CN(0, variances[k] I) columns. By the
    complex Bartlett decomposition G = Q R diag(sqrt(variances)), with Q
    n_ant x m orthonormal and R m x K upper trapezoidal, independent of Q:
    |R_ii|^2 ~ Gamma(n_ant - i, 1) and R_ij (j > i) iid CN(0, 1). So
    F = diag(sqrt(variances)) R^H draws the Gram matrix in O(K^2) per trial.
    m < K covers fewer antennas than columns. Draw order: the n x m Gamma
    variates, then the strictly upper entries of each R in row-major order.
    """
    root_var = np.sqrt(np.asarray(variances, dtype=float))
    k = root_var.size
    m = min(n_ant, k)
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, 1, k)
    r = np.zeros((n, m, k), dtype=complex)
    r[:, diag, diag] = np.sqrt(rng.standard_gamma(n_ant - diag, size=(n, m)))
    r[:, rows, cols] = _cn((n, rows.size), rng)
    return root_var[:, None] * np.swapaxes(r, 1, 2).conj()


def sample_estimate_direct(
    cfg: SystemConfig, profile: LargeScaleProfile, rng: np.random.Generator
) -> ChannelSet:
    """Draw a ChannelSet straight from the estimate/error statistics."""
    ghat_sr, err_sr, ghat_rd, err_rd, g_rr = direct_channel_batch(cfg, profile, 1, rng)
    return ChannelSet(
        g_sr=ghat_sr[0] + err_sr[0], g_rd=ghat_rd[0] + err_rd[0], g_rr=g_rr[0],
        ghat_sr=ghat_sr[0], ghat_rd=ghat_rd[0],
        err_sr=err_sr[0], err_rd=err_rd[0],
    )
