"""The explicit pilot phase, a fidelity oracle for the channel statistics.

:func:`sample_true_channels` draws length-N channels (and the Nrx x Ntx loop
channel G_RR) and :func:`estimate_via_pilots` simulates one pilot phase on
them with MMSE shrinkage. The engine never draws these arrays; the tests
check that the estimates have the variances fdrelay's closed forms assume.
"""
from dataclasses import dataclass

import numpy as np

from fdrelay.montecarlo import _cn
from fdrelay.model import LargeScaleProfile, SystemConfig


@dataclass(frozen=True)
class PilotBook:
    """Row-orthonormal pilot sequences for sources (phi_s) and destinations (phi_d)."""

    phi_s: np.ndarray  # K x tau
    phi_d: np.ndarray  # K x tau


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
