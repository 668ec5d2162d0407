"""System configuration, large-scale fading profiles, and the urban drop model.

All powers and gains are linear. dB values are converted at the CLI/config
boundary, never inside formulas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_real(name: str, x, strict: bool = False) -> None:
    """The scalar rule: x is finite and >= 0 (> 0 if strict); NaN and None fail."""
    if x is None or not (0 < x if strict else 0 <= x) or not x < np.inf:
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0")


def _check_count(name: str, n, least: int = 1) -> None:
    if not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{name} must be >= {least} and an integer")


@dataclass(frozen=True)
class SystemConfig:
    """Scalar parameters of the multipair full-duplex relay link.

    Attributes
    ----------
    K : number of source-destination pairs
    Nrx : relay receive antennas
    Ntx : relay transmit antennas
    T : coherence interval in symbols
    tau : training length in symbols (2K <= tau < T)
    Pp : pilot power (linear)
    Ps : per-source data power (linear, uniform case)
    Pr : relay total transmit power (linear)
    sigma_li_sq : loop-interference variance (linear)
    """

    K: int
    Nrx: int
    Ntx: int
    T: int = 200
    tau: int = 20
    Pp: float = 10.0
    Ps: float = 10.0
    Pr: float = 100.0
    sigma_li_sq: float = 1.0

    def __post_init__(self) -> None:
        for name in ("K", "Nrx", "Ntx", "T", "tau"):
            _check_count(name, getattr(self, name))
        if not 2 * self.K <= self.tau < self.T:
            raise ValueError("training length must satisfy 2K <= tau < T")
        for name in ("Pp", "Ps", "Pr", "sigma_li_sq"):
            _check_real(name, getattr(self, name))


def _mmse_variance(beta: np.ndarray, pilot_energy: float) -> np.ndarray:
    """tau*Pp*beta^2 / (tau*Pp*beta + 1) at pilot_energy = tau*Pp, unchecked.

    The quotient rounds one ulp above beta once tau*Pp*beta exceeds about
    7e15, so it is clamped to beta, the perfect-CSI limit.
    """
    return np.minimum(pilot_energy * beta**2 / (pilot_energy * beta + 1.0), beta)


def estimation_variance(beta, tau: int, Pp: float):
    """MMSE estimate variance tau*Pp*beta^2 / (tau*Pp*beta + 1).

    Accepts scalar or array ``beta`` and broadcasts. The result is at most
    beta and approaches it as tau*Pp grows.
    """
    beta = np.asarray(beta, dtype=float)
    if not ((0 <= beta) & (beta < np.inf)).all():  # NaN fails too
        raise ValueError("beta must be finite and >= 0")
    _check_count("tau", tau)
    _check_real("Pp", Pp)
    out = _mmse_variance(beta, tau * Pp)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LargeScaleProfile:
    """Per-pair large-scale gains and the derived estimation variances.

    Arrays are stored read-only; instances are safe to share across threads.
    Use :func:`make_profile` instead of constructing directly so the sigma
    vectors stay consistent with (beta, tau, Pp). The vectors are 1-D of one
    length K >= 1 and the gains positive and finite. Every estimation variance
    must be positive and at most its gain: sigma^2 = beta is perfect CSI,
    sigma^2 > beta is no pilot phase's outcome, and sigma^2 = 0, which
    tau*Pp = 0 gives, has no estimate for the decoders and precoders to use.
    """

    beta_sr: np.ndarray
    beta_rd: np.ndarray
    sigma_sr_sq: np.ndarray
    sigma_rd_sq: np.ndarray

    def __post_init__(self) -> None:
        names = ("beta_sr", "beta_rd", "sigma_sr_sq", "sigma_rd_sq")
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shapes = {getattr(self, name).shape for name in names}
        if len(shapes) != 1 or self.beta_sr.ndim != 1 or self.beta_sr.size < 1:
            raise ValueError("profile vectors must be 1-D of one length K >= 1")
        if not all(((0 < g) & (g < np.inf)).all() for g in (self.beta_sr, self.beta_rd)):
            raise ValueError("large-scale gains must be positive and finite")
        for name, gain in (("sigma_sr_sq", "beta_sr"), ("sigma_rd_sq", "beta_rd")):
            sigma_sq = getattr(self, name)
            if not (sigma_sq > 0).all():  # NaN fails too
                raise ValueError(f"{name} must be positive: tau*Pp = 0 leaves "
                                 "no channel estimate")
            if (sigma_sq > getattr(self, gain)).any():
                raise ValueError(f"{name} must not exceed {gain}: an estimate "
                                 "cannot carry more power than its channel")

    @property
    def K(self) -> int:
        return self.beta_sr.shape[0]


def make_profile(beta_sr, beta_rd, tau: int, Pp: float) -> LargeScaleProfile:
    """Build a LargeScaleProfile, deriving sigma^2 from the pilot phase."""
    # LargeScaleProfile checks the shapes, the gains and the variances
    return LargeScaleProfile(
        beta_sr=beta_sr,
        beta_rd=beta_rd,
        sigma_sr_sq=estimation_variance(beta_sr, tau, Pp),
        sigma_rd_sq=estimation_variance(beta_rd, tau, Pp),
    )


# Fixed ten-pair urban profile: one saved draw of the drop model below,
# used by the power-allocation experiments so results are reproducible.
SNAPSHOT_BETA_SR = (0.749, 0.246, 0.125, 0.635, 4.468, 0.031, 0.064, 0.257, 0.195, 0.315)
SNAPSHOT_BETA_RD = (0.070, 0.121, 0.134, 0.209, 0.198, 0.184, 0.065, 0.051, 0.236, 1.641)


def snapshot_profile(tau: int, Pp: float) -> LargeScaleProfile:
    """The fixed K=10 urban snapshot profile with sigma^2 for (tau, Pp)."""
    return make_profile(SNAPSHOT_BETA_SR, SNAPSHOT_BETA_RD, tau, Pp)


@dataclass(frozen=True)
class DropGeometry:
    """Urban cell geometry: nodes drop uniformly on a disk, relay at center."""

    disk_diameter: float = 1000.0
    shadow_sigma_db: float = 8.0
    path_exponent: float = 3.8
    ref_distance: float = 200.0

    def __post_init__(self) -> None:
        for name in ("disk_diameter", "path_exponent", "ref_distance"):
            _check_real(name, getattr(self, name), strict=True)
        _check_real("shadow_sigma_db", self.shadow_sigma_db)


def draw_urban_profile(
    geometry: DropGeometry, K: int, tau: int, Pp: float, rng: np.random.Generator
) -> LargeScaleProfile:
    """Draw one random large-scale realization of the urban drop model.

    Each gain is beta = z / (1 + (l/l0)^nu) where l is the distance of a
    uniform point on the disk from the center and 10*log10(z) is zero-mean
    normal with std shadow_sigma_db. Source and destination sides use the
    same model with independent draws.
    """
    _check_count("K", K)
    radius = geometry.disk_diameter / 2.0

    def gains(n: int) -> np.ndarray:
        # uniform over the disk area: r = R*sqrt(u)
        dist = radius * np.sqrt(rng.uniform(size=n))
        shadow = 10.0 ** (geometry.shadow_sigma_db * rng.standard_normal(n) / 10.0)
        return shadow / (1.0 + (dist / geometry.ref_distance) ** geometry.path_exponent)

    return make_profile(gains(K), gains(K), tau, Pp)
