"""Closed-form achievable rates and spectral efficiencies.

Everything here is deterministic in (cfg, profile): the finite-antenna
SINR expressions for ZF and MRC/MRT, full-duplex and half-duplex sum
spectral efficiencies, the large-array power-scaling limits, and the
inverse problem of the transmit power required for a target per-pair rate.

The SINRs are evaluated through the per-source-power coefficient form

    SINR_SR,k = a_k p_k / (sum_j b_j p_j + c_k P_r + 1)
    SINR_RD,k = d_k P_r / (e_k P_r + 1)

which reduces to the uniform-power expressions when all p_k equal Ps.
SinrCoefficients holds (a, b, c, d, e) for one scheme; the power-allocation
module and the CLI read the same type. rate_zf and rate_mr evaluate it at
the uniform powers (Ps, Pr) of the config; per-source powers go through
sinr_coefficients(cfg, profile, scheme).sinrs(p_s, p_r). rate_zf and rate_mr
also take a batch of points of one K; one point is a batch of one. _batch
stacks it into a _Batch, a (P, 1) column per config field and a (P, K) row
per profile vector, for several rate calls to share, holds each point's pair
count to K and runs _check_inputs, the scheme rules, on the stack once per
scheme of each call. required_power bisects one point, a batch of one of
_required_powers, which the CLI's fig4 runs in lockstep. Every entry point
checks its points before any work, a lone point as a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .model import (_PROFILE_ROWS, LargeScaleProfile, SystemConfig, _check_count, _check_real,
                    _mmse_variance)

SCHEMES = ("zf", "mr")
_COLUMNS = tuple(f.name for f in fields(SystemConfig))


@dataclass(frozen=True)
class RateReport:
    """Per-pair rates (bits/channel use) and the sum SE: (K,), float or (P, K), (P,)."""

    r_sr: np.ndarray
    r_rd: np.ndarray
    r_e2e: np.ndarray
    sum_se: float | np.ndarray
    scheme: str
    mode: str  # "fd" or "hd"


class SinrCoefficients(NamedTuple):
    """Per-pair coefficients (a, b, c, d, e) of one scheme's SINR form.

    Every rate evaluation builds one, so it is a plain named tuple with no
    checks; optimize_powers checks the positivity its GP rounds need.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    scheme: str

    @property
    def K(self) -> int:
        return self.a.shape[-1]

    def sinrs(self, p_s, p_r: float):
        """Per-pair (SINR_SR, SINR_RD) at source powers p_s and relay power p_r,
        (P, K) and (P, 1) on stacked points; a scalar or a (P, 1) p_s is a
        uniform power. p_s is copied into a full stack first, so the
        interference matmul rounds as np.dot whatever its strides."""
        p_s = np.full(np.broadcast(self.a, p_s).shape, p_s)
        interference = (self.b[..., None, :] @ p_s[..., :, None])[..., 0]
        sr = self.a * p_s / (interference + self.c * p_r + 1.0)
        rd = self.d * p_r / (self.e * p_r + 1.0)
        return sr, rd


def _check_inputs(cfg, profile, scheme: str) -> None:
    """The scheme rules of a _batch stack: the scheme is "zf" or "mr", and ZF has
    Nrx > K and Ntx > K, one count_nonzero (a cheap np.any) over its columns."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "zf" and np.count_nonzero(np.minimum(cfg.Nrx, cfg.Ntx) <= cfg.K):
        raise ValueError("zero forcing needs Nrx > K and Ntx > K")


def sinr_coefficients(cfg: SystemConfig, profile: LargeScaleProfile,
                      scheme: str) -> SinrCoefficients:
    """The ZF or MRC/MRT coefficients of the SINR form at (cfg, profile)."""
    _batch([cfg], [profile], scheme)
    return _coefficients(cfg, profile, scheme)


def _coefficients(cfg: SystemConfig, profile: LargeScaleProfile, scheme: str) -> SinrCoefficients:
    """The formulas at the profile's gains and variances, unchecked."""
    k, sigma_sr_sq, sigma_rd_sq = cfg.K, profile.sigma_sr_sq, profile.sigma_rd_sq
    if scheme == "zf":
        a = (cfg.Nrx - k) * sigma_sr_sq
        b = profile.beta_sr - sigma_sr_sq
        c = np.full(sigma_sr_sq.shape, cfg.sigma_li_sq * (1.0 - k / cfg.Ntx))
        d = np.full(sigma_sr_sq.shape, (cfg.Ntx - k) / (1.0 / sigma_rd_sq).sum(-1, keepdims=True))
        e = profile.beta_rd - sigma_rd_sq
    else:  # "mr"
        a = cfg.Nrx * sigma_sr_sq
        b = profile.beta_sr
        c = np.full(sigma_sr_sq.shape, cfg.sigma_li_sq)
        d = sigma_rd_sq**2 / sigma_rd_sq.sum(-1, keepdims=True) * cfg.Ntx
        e = profile.beta_rd
    return SinrCoefficients(a, b, c, d, e, scheme)


class _Batch(NamedTuple):
    """Points of one K: a (P, 1) column per config field, a (P, K) row per profile vector."""

    cfg: SimpleNamespace
    profile: SimpleNamespace


def _batch(cfgs, profiles, *schemes) -> _Batch:
    """The points stacked, or a _Batch as it is, and the stack checked (_check_inputs)
    for each scheme; a bad shape or a profile of another pair count is refused first."""
    if not isinstance(cfgs, _Batch):
        cfgs, profiles = list(cfgs), list(profiles)
        if not cfgs or len(cfgs) != len(profiles) or len({c.K for c in cfgs}) > 1:
            raise ValueError("a batch needs one profile per config, one K and at least one point")
        for profile in profiles:
            if profile.K != cfgs[0].K:
                raise ValueError(f"profile has {profile.K} pairs but cfg.K is {cfgs[0].K}")
        columns = np.array(list(map(attrgetter(*_COLUMNS), cfgs)), float).T[:, :, None]
        cfgs = _Batch(SimpleNamespace(**dict(zip(_COLUMNS, columns))),
                      SimpleNamespace(**{name: np.array([getattr(p, name) for p in profiles])
                                         for name in _PROFILE_ROWS}))
    for scheme in schemes:
        _check_inputs(*cfgs, scheme)
    return cfgs


def _report(cfg, profile, scheme: str, mode: str) -> RateReport:
    """Rates of one point, or of a batch of points of one K (see _batch)."""
    single = isinstance(cfg, SystemConfig)
    cfg, profile = _batch(*(([cfg], [profile]) if single else (cfg, profile)), scheme)
    coeffs = _coefficients(cfg, profile, scheme)
    p_s, p_r = cfg.Ps, cfg.Pr
    if mode == "hd":
        # half duplex: no loop interference (c = 0), both hops at doubled power
        coeffs = coeffs._replace(c=np.zeros_like(coeffs.c))
        p_s, p_r = 2.0 * p_s, 2.0 * p_r
    sr, rd = coeffs.sinrs(p_s, p_r)
    r_sr = np.log2(1.0 + sr)
    r_rd = np.log2(1.0 + rd)
    r_e2e = np.minimum(r_sr, r_rd)
    # the row sums over the contiguous last axis equal 1-D np.sum bit for bit
    se = _prelog(cfg.T, cfg.tau, mode)[:, 0] * r_e2e.sum(-1)
    if single:
        r_sr, r_rd, r_e2e, se = r_sr[0], r_rd[0], r_e2e[0], float(se[0])
    return RateReport(r_sr=r_sr, r_rd=r_rd, r_e2e=r_e2e, sum_se=se,
                      scheme=scheme, mode=mode)


def rate_zf(cfg: SystemConfig, profile: LargeScaleProfile, mode: str = "fd") -> RateReport:
    """Closed-form ZF rates (approximate in the LI term) at one point or a batch."""
    return _report(cfg, profile, "zf", mode)


def rate_mr(cfg: SystemConfig, profile: LargeScaleProfile, mode: str = "fd") -> RateReport:
    """Closed-form MRC/MRT rates (exact) at one point or a batch, as rate_zf."""
    return _report(cfg, profile, "mr", mode)


def _prelog(T, tau, mode: str):
    """(T - tau)/T in full duplex, half that in half duplex; T and tau may be arrays."""
    if mode not in ("fd", "hd"):
        raise ValueError("mode must be 'fd' or 'hd'")
    return (T - tau) / T / (2.0 if mode == "hd" else 1.0)


def sum_se(r_e2e, T: int, tau: int, mode: str = "fd") -> float:
    """Sum spectral efficiency: the training prelog applied to the summed rates.

    Full duplex uses (T - tau)/T; half duplex halves it for the two-slot
    protocol. The rates passed in must already match the mode (the rate_*
    functions handle the half-duplex power doubling and LI removal).
    """
    _check_count("T", T)
    _check_count("tau", tau)
    if not tau < T:
        raise ValueError("tau must be below T")
    return float(_prelog(T, tau, mode) * np.sum(r_e2e))


def asymptotic_se(case: str, scheme: str, cfg: SystemConfig, profile: LargeScaleProfile,
                  Es: float, Er: float, kappa: float | None = None) -> float:
    """Large-array sum SE limit under the two power-scaling regimes.

    Case I: Pp fixed, Ps = Es/Nrx, Pr = Er/Ntx; the hops see sigma^2 and Er.
    Case II: Pp = Ps = Es/sqrt(Nrx), Pr = Er/sqrt(Ntx), Ntx = kappa*Nrx; they see
    the leading orders tau*Es*beta^2 of sqrt(Nrx)*sigma^2 (estimation squaring)
    and sqrt(kappa)*Er of Pr*Ntx. The hop SINRs are Es*variance and _rd_limit.
    Es and Er are finite and >= 0; case II needs a finite kappa > 0.
    """
    _batch([cfg], [profile], scheme)
    _check_real("Es", Es)
    _check_real("Er", Er)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        if case == "I":
            v_sr, v_rd, er = profile.sigma_sr_sq, profile.sigma_rd_sq, Er
        elif case == "II":
            _check_real("kappa", kappa, strict=True)
            v_sr, v_rd = cfg.tau * Es * profile.beta_sr**2, cfg.tau * Es * profile.beta_rd**2
            er = np.sqrt(kappa) * Er
        else:
            raise ValueError("case must be 'I' or 'II'")
        sr, rd = Es * v_sr, _rd_limit(scheme, v_rd, er)
    # a hop SINR that overflowed is named; a zero variance's 0/0 (case II's
    # rd at Es = 0) is no overflow, and fmin drops it
    for name, term, ok in (("Es", "first-hop SINR Es*variance", np.isfinite(sr)),
                           ("Er" if case == "I" else "Es, Er or kappa",
                            "second-hop SINR limit", np.isfinite(rd) | (v_rd == 0))):
        if not np.all(ok):
            raise ValueError(f"{name} too large: the case {case} {term} is not finite")
    return sum_se(np.log2(1.0 + np.fmin(sr, rd)), cfg.T, cfg.tau, "fd")


def _rd_limit(scheme: str, sigma_rd_sq, er: float):
    """Per-pair large-array second-hop SINR at variances sigma_rd_sq and relay energy
    er = Pr*Ntx: er / sum(1/sigma_rd^2) for ZF, er sigma_rd^4 / sum(sigma_rd^2) for MR."""
    if scheme == "zf":
        return er / np.sum(1.0 / sigma_rd_sq)
    return sigma_rd_sq**2 * er / np.sum(sigma_rd_sq)


_LOOKAHEAD = 5  # bisection levels resolved per numpy evaluation
_CEILINGS = (1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12)  # 1e6 grown tenfold, each product exact


def _edges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each bracket [lo, hi] with the next _LOOKAHEAD levels of bisection
    midpoints below it, sorted: lo, the 2^_LOOKAHEAD - 1 midpoints, hi, one
    row per bracket, each midpoint sqrt(a * b) of its bracket as one
    bisection step computes it."""
    edges = np.empty((len(lo), 2**_LOOKAHEAD + 1))
    edges[:, 0], edges[:, -1] = lo, hi
    for h in [2**level for level in reversed(range(_LOOKAHEAD))]:
        edges[:, h::2 * h] = np.sqrt(edges[:, :-1:2 * h] * edges[:, 2 * h::2 * h])
    return edges


# the first evaluation's powers, ascending: the floor, the midpoints below 1e6, the ceilings
_FIRST = np.concatenate([_edges(np.array([1e-6]), np.array([1e6]))[0], _CEILINGS[1:]])


def _required_powers(target_rate_per_pair: float, scheme: str, cfgs, profiles,
                     pilot_tracks_data: bool = False) -> list:
    """required_power at each point of a batch of one K, as a list of floats.

    Every point walks its own bisection, and the points walk in lockstep:
    each numpy evaluation holds the next 31 midpoints of every point still
    bisecting, stacked as one (P * 31, 1) power column over its points'
    repeated coefficient rows. Fixed pilots build the rows once per call,
    tracking pilots once per evaluation. The result of each point is the
    float a call on it alone returns.
    """
    target = target_rate_per_pair
    if not target > 0:
        raise ValueError("target rate must be positive")
    cfg, profile = _batch(cfgs, profiles, scheme)
    n, k = len(cfg.K), cfg.K[0, 0]
    fixed = None if pilot_tracks_data else _coefficients(cfg, profile, scheme)

    def reaches(points: list, powers: np.ndarray) -> list:
        """Whether each power reaches the target, a row of powers per point."""
        rows, column = np.array(points).repeat(powers.shape[1]), powers.reshape(-1, 1)
        if fixed is not None:
            coeffs = SinrCoefficients(*(x.take(rows, 0) for x in fixed[:5]), scheme)
        else:  # Pp = ps: only sigma^2(ps) changes, from the gains
            at = SimpleNamespace(**{name: x.take(rows, 0) for name, x in vars(cfg).items()})
            gains = SimpleNamespace(beta_sr=profile.beta_sr.take(rows, 0),
                                    beta_rd=profile.beta_rd.take(rows, 0))
            energy = at.tau * column
            gains.sigma_sr_sq = _mmse_variance(gains.beta_sr, energy)
            gains.sigma_rd_sq = _mmse_variance(gains.beta_rd, energy)
            coeffs = _coefficients(at, gains, scheme)
        sr, rd = coeffs.sinrs(column, k * column)
        rate = np.minimum(np.log2(1.0 + sr), np.log2(1.0 + rd)).min(-1)
        # Python floats: numpy cannot convert an int target above the float range
        return [[r >= target for r in row] for row in rate.reshape(powers.shape).tolist()]

    def walk(points: list, mids: list, ok: list) -> None:
        """Move each point's bracket in los and his by binary search over its
        row of sorted midpoints, whose bracket ends sit at indices -1 and
        len(row), as many steps as the stop rule lets it take."""
        for p, row, reached in zip(points, mids, ok):
            lo, hi, i, j = los[p], his[p], -1, len(row)
            while j - i > 1 and (hi - lo) > 1e-6 * hi:
                m = (i + j) // 2
                if reached[m]:
                    hi, j = row[m], m
                else:
                    lo, i = row[m], m
            los[p], his[p] = lo, hi

    # the first evaluation holds the floor, the midpoints below 1e6 and every
    # ceiling at every point: it speculates that 1e6 reaches the target
    ok = reaches(list(range(n)), np.tile(_FIRST, (n, 1)))
    los, his = [1e-6] * n, []
    for reached in ok:
        hi = next((h for h, r in zip(_CEILINGS, reached[32:]) if r), math.inf)
        his.append(1e-6 if reached[0] and hi < math.inf else hi)  # a target met at the floor
    # min rate is nondecreasing in Ps under the Pr = K*Ps coupling
    at_1e6 = [p for p in range(n) if his[p] == 1e6]
    walk(at_1e6, [_FIRST[1:32].tolist()] * len(at_1e6), [ok[p][1:32] for p in at_1e6])
    live = [p for p in range(n) if los[p] < his[p] < math.inf]
    while live := [p for p in live if (his[p] - los[p]) > 1e-6 * his[p]]:
        mids = _edges(np.array([los[p] for p in live]), np.array([his[p] for p in live]))[:, 1:-1]
        walk(live, mids.tolist(), reaches(live, mids))
    return his


def required_power(target_rate_per_pair: float, scheme: str, cfg: SystemConfig,
                   profile: LargeScaleProfile, pilot_tracks_data: bool = False) -> float:
    """Smallest Ps with Pr = K*Ps reaching the per-pair rate target on every pair.

    The target is in bits/channel use without the training prelog. With
    pilot_tracks_data the pilot power follows Ps (and the estimation
    variances with it); otherwise the profile's variances, set by cfg.Pp,
    stay as they are, and the SINR coefficients are built once per call.

    Bisection in log power (at the geometric mean) on the bracket
    [1e-6, 1e6]. The ceiling grows tenfold until it reaches the target, and
    past 1e12 the result is math.inf: the SINRs stay bounded as Ps grows
    because Pr = K*Ps scales the loop interference too. A target reached at
    the floor returns the floor 1e-6. Otherwise the bracket shrinks until
    hi - lo <= 1e-6 * hi, and hi, which reaches the target, is returned.

    Each numpy evaluation resolves the next five levels of the bisection:
    the step taken at a midpoint depends only on whether it reaches the
    target, so all 31 midpoints below the bracket are evaluated at once and
    the bisection walks down them. The midpoints and the result are those
    of one step at a time. The first evaluation also holds the floor and
    every ceiling, so a call takes 5 evaluations when 1e6 reaches the
    target and at most 7. A single point is a batch of one of
    _required_powers, which bisects many points in lockstep.
    """
    return _required_powers(target_rate_per_pair, scheme, [cfg], [profile],
                            pilot_tracks_data)[0]
