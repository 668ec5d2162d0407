"""Small-scale channel sampling, the pilot phase, and MMSE estimation.

:func:`sample_true_channels` and :func:`estimate_via_pilots` simulate one
explicit pilot phase and are the fidelity oracle; they are the only
functions here that draw length-N arrays, and the first is the only one
that draws the Nrx x Ntx loop channel G_RR. The Monte Carlo engine draws no
length-N array: the rates and the convergence probes depend on the
estimates only through their K x K Gram matrices, whose unit-variance
factors :func:`gram_factor_batch` draws in O(K^2) per trial; every other
K x K term has an exact unit-variance law given the two Grams. Powers and
variances only scale these draws, so one draw serves every point with the
same (K, Nrx, Ntx) (see :mod:`fdrelay.montecarlo`).
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
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the pilot phase and return the MMSE estimates (ghat_sr, ghat_rd).

    Both arrays hear both pilot books: the receive array sees the sources
    plus the destination cross channel, the transmit array sees the
    destinations plus the source cross channel. Pilot orthogonality removes
    the cross terms exactly; the MMSE shrinkage is the diagonal
    (D^-1/(tau*Pp) + I)^-1 applied per pair. The estimation errors are the
    true channels minus these estimates.
    """
    if cfg.Pp <= 0:
        raise ValueError("pilot estimation requires Pp > 0")
    g_sr, g_rd, _ = true_channels
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
    return ghat_sr, ghat_rd


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
