"""System configuration, large-scale fading profiles, and the urban drop model.

All powers and gains are linear. dB values are converted at the CLI/config
boundary, never inside formulas.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def _check_real(name: str, x, strict: bool = False) -> None:
    """The scalar rule: x is >= 0 (> 0 if strict) and finite as a float64, so
    an int beyond the float range fails; NaN and None fail."""
    try:
        ok = x is not None and (0 < x if strict else 0 <= x) and float(x) < np.inf
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0")


def _check_integer(name: str, n, least: int) -> None:
    """n is an int or numpy integer, not a bool, and >= least; a seed needs no more."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < least:
        raise ValueError(f"{name} must be >= {least} and an integer")


def _check_count(name: str, n, least: int = 1) -> None:
    """The count rule: an integer >= least, and finite as a float64, since the
    rates compute in float64."""
    _check_integer(name, n, least)
    if n > sys.float_info.max:
        raise ValueError(f"{name} must be finite as a float64")


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


_SQUARE_MAX = np.sqrt(np.finfo(float).max)  # beta**2 overflows above this


def _mmse_variance(beta: np.ndarray, pilot_energy) -> np.ndarray:
    """tau*Pp*beta^2 / (tau*Pp*beta + 1) at pilot_energy = tau*Pp, unchecked.

    pilot_energy is a float or an array that broadcasts against beta. The
    quotient rounds one ulp above beta once tau*Pp*beta exceeds about 7e15,
    so it is clamped to beta, the perfect-CSI limit. Where tau*Pp*beta^2 or
    tau*Pp*beta + 1 overflows (a huge gain, a huge pilot energy or both),
    the entry takes the same value as beta / (1 + 1/(tau*Pp*beta)), which is
    beta there (tau*Pp = 0 gives 0); every other entry is the quotient. A zero
    gain gives 0 at any pilot energy, an infinite one (an overflowed tau*Pp)
    included.
    """
    # below this gain neither product comes within a factor 2 of the float
    # range; an infinite pilot energy puts the bound at 0, so it always takes
    # the guarded form
    peak = pilot_energy.max() if isinstance(pilot_energy, np.ndarray) else pilot_energy
    if beta.max(initial=0.0) < 0.5 * _SQUARE_MAX / math.sqrt(max(peak, 1.0)):
        return np.minimum(pilot_energy * beta**2 / (pilot_energy * beta + 1.0), beta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        square, denominator = pilot_energy * beta**2, pilot_energy * beta + 1.0
        out = np.minimum(square / denominator, beta)
        return np.where(np.isfinite(square) & np.isfinite(denominator), out,
                        np.where(beta > 0, beta / (1.0 + 1.0 / (pilot_energy * beta)), 0.0))


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


_PROFILE_ROWS = ("beta_sr", "beta_rd", "sigma_sr_sq", "sigma_rd_sq")


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
        vectors = [np.asarray(getattr(self, name), dtype=float) for name in _PROFILE_ROWS]
        if len({v.shape for v in vectors}) != 1 or vectors[0].ndim != 1 or vectors[0].size < 1:
            raise ValueError("profile vectors must be 1-D of one length K >= 1")
        rows = np.array(vectors)  # one read-only (4, K) copy; the fields are its rows
        rows.setflags(write=False)
        for name, row in zip(_PROFILE_ROWS, rows):
            object.__setattr__(self, name, row)
        gains, variances = rows[:2], rows[2:]
        if ((0 < variances) & (variances <= gains) & (gains < np.inf)).all():
            return  # 0 < sigma^2 <= beta < inf meets every rule below
        if not ((0 < gains) & (gains < np.inf)).all():
            raise ValueError("large-scale gains must be positive and finite")
        positive, exceeds = (variances > 0).all(1), (variances > gains).any(1)  # NaN fails
        for name, gain, pos, over in zip(_PROFILE_ROWS[2:], _PROFILE_ROWS[:2], positive, exceeds):
            if not pos:
                raise ValueError(f"{name} must be positive, or there is no channel estimate")
            if over:
                raise ValueError(f"{name} must not exceed {gain}: an estimate "
                                 "cannot carry more power than its channel")

    @property
    def K(self) -> int:
        return self.beta_sr.shape[0]


def make_profile(beta_sr, beta_rd, tau: int, Pp: float) -> LargeScaleProfile:
    """Build a LargeScaleProfile, deriving sigma^2 from the pilot phase."""
    gains = (beta_sr, beta_rd)
    variances = [estimation_variance(beta, tau, Pp) for beta in gains]
    try:  # LargeScaleProfile checks the shapes, the gains and the variances
        return LargeScaleProfile(*gains, *variances)
    except ValueError:
        if tau * Pp > 0:  # a positive gain with no estimate then underflows
            for name, gain, beta, sigma_sq in zip(_PROFILE_ROWS[2:], _PROFILE_ROWS[:2], gains,
                                                  variances):
                beta = np.asarray(beta, dtype=float)
                tiny = beta[(sigma_sq == 0) & (beta > 0)]
                if tiny.size:
                    raise ValueError(f"{name} must be positive: {gain} = {tiny[0]:g} "
                                     f"underflows it to 0 at tau*Pp = {tau * Pp:g}") from None
        raise


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


def draw_urban_profile(geometry: DropGeometry, K: int, tau: int, Pp: float,
                       rng: np.random.Generator | Sequence[np.random.Generator]
                       ) -> LargeScaleProfile | list[LargeScaleProfile]:
    """Draw one random large-scale realization of the urban drop model.

    Each gain is beta = z / (1 + (l/l0)^nu) where l is the distance of a
    uniform point on the disk from the center and 10*log10(z) is zero-mean
    normal with std shadow_sigma_db. Source and destination sides use the
    same model with independent draws.

    rng is one Generator, which returns one profile, or a sequence of them,
    which returns one profile per Generator, each the profile that Generator
    alone gives: every Generator draws its own drop, K uniforms and K normals
    per side, and the gains and variances of all drops are formed at once.
    """
    _check_count("K", K)
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise ValueError("rng must be a Generator or a non-empty sequence of them")
    draws = np.empty((len(rngs), 2, 2, K))  # (drop, side, uniform/normal, pair)
    for gen, drop in zip(rngs, draws):
        for side in drop:
            gen.random(out=side[0])
            gen.standard_normal(out=side[1])
    # uniform over the disk area: r = R*sqrt(u)
    dist = geometry.disk_diameter / 2.0 * np.sqrt(draws[:, :, 0])
    shadow = 10.0 ** (geometry.shadow_sigma_db * draws[:, :, 1] / 10.0)
    gains = shadow / (1.0 + (dist / geometry.ref_distance) ** geometry.path_exponent)
    # a bad gain or a zero variance (tau*Pp = 0 or an underflow) is refused as
    # drop by drop: the first bad drop raises
    if (not ((0 <= gains) & (gains < np.inf)).all()
            or not ((variances := estimation_variance(gains, tau, Pp)) > 0).all()):
        for sr, rd in gains:
            make_profile(sr, rd, tau, Pp)
    profiles = [LargeScaleProfile(*g, *v) for g, v in zip(gains, variances)]
    return profiles[0] if single else profiles
