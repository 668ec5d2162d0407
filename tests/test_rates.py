"""Tests for the closed-form rate expressions and derived quantities."""
import inspect
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fdrelay import (
    LargeScaleProfile,
    SystemConfig,
    asymptotic_se,
    make_profile,
    rate_mr,
    rate_zf,
    required_power,
    simulate,
    snapshot_profile,
    sum_se,
)
from fdrelay import rates
from fdrelay.model import _mmse_variance
from fdrelay.rates import sinr_coefficients
from power_oracle import min_rate_at, required_power_per_step
from test_api import public_callables

# reference configuration: symmetric gains, 10 pairs, 100 antennas each side
REF_CFG = SystemConfig(
    K=10, Nrx=100, Ntx=100, T=200, tau=20,
    Pp=10.0**0.5, Ps=10.0**0.5, Pr=10.0 * 10.0**0.5, sigma_li_sq=1.0,
)
REF_PROF = make_profile([1.0] * 10, [1.0] * 10, REF_CFG.tau, REF_CFG.Pp)


def perfect_csi_profile(beta_sr, beta_rd):
    """Profile with zero estimation error (sigma^2 = beta)."""
    return LargeScaleProfile(
        beta_sr=np.asarray(beta_sr, dtype=float),
        beta_rd=np.asarray(beta_rd, dtype=float),
        sigma_sr_sq=np.asarray(beta_sr, dtype=float),
        sigma_rd_sq=np.asarray(beta_rd, dtype=float),
    )


def test_zf_reference_values():
    rep = rate_zf(REF_CFG, REF_PROF)
    np.testing.assert_allclose(rep.r_sr, 3.3721038737942695, rtol=1e-10)
    np.testing.assert_allclose(rep.r_rd, 7.5603903234664696, rtol=1e-10)
    assert float(np.sum(rep.r_e2e)) == pytest.approx(33.72103873794269, rel=1e-10)
    assert rep.sum_se == pytest.approx(30.348934864148422, rel=1e-10)
    assert rep.scheme == "zf" and rep.mode == "fd"


def test_mr_reference_values():
    rep = rate_mr(REF_CFG, REF_PROF)
    np.testing.assert_allclose(rep.r_sr, 2.5473408932738577, rtol=1e-10)
    np.testing.assert_allclose(rep.r_rd, 3.3981566382545463, rtol=1e-10)
    assert float(np.sum(rep.r_e2e)) == pytest.approx(25.47340893273858, rel=1e-10)
    assert rep.sum_se == pytest.approx(22.92606803946472, rel=1e-10)


# a non-uniform setting: distinct gains per pair, Nrx != Ntx
ODD_CFG = SystemConfig(K=4, Nrx=32, Ntx=24, tau=8, Ps=2.0, Pr=5.0, sigma_li_sq=0.7)
ODD_PROF = make_profile([0.5, 1.0, 2.0, 0.8], [1.5, 0.8, 1.2, 0.4], ODD_CFG.tau, ODD_CFG.Pp)
ODD_PS = np.array([1.0, 2.0, 0.5, 3.0])


@pytest.mark.parametrize("scheme,builder", [("zf", rate_zf), ("mr", rate_mr)])
def test_report_matches_coefficient_form(scheme, builder):
    cfg, prof = ODD_CFG, ODD_PROF
    rep = builder(cfg, prof)
    sr, rd = sinr_coefficients(cfg, prof, scheme).sinrs(np.full(cfg.K, cfg.Ps), cfg.Pr)
    np.testing.assert_allclose(rep.r_sr, np.log2(1.0 + sr), rtol=1e-12)
    np.testing.assert_allclose(rep.r_rd, np.log2(1.0 + rd), rtol=1e-12)
    np.testing.assert_allclose(rep.r_e2e, np.minimum(rep.r_sr, rep.r_rd), rtol=0)


@pytest.mark.parametrize("scheme", ["zf", "mr"])
def test_sinr_coefficients_match_paper_expressions(scheme):
    # the SINRs written out term by term, at unequal source powers
    cfg, prof, p_s, p_r = ODD_CFG, ODD_PROF, ODD_PS, 5.0
    k, li = cfg.K, cfg.sigma_li_sq
    b_sr, s_sr = prof.beta_sr, prof.sigma_sr_sq
    b_rd, s_rd = prof.beta_rd, prof.sigma_rd_sq
    if scheme == "zf":
        sr = (cfg.Nrx - k) * s_sr * p_s / (
            np.sum((b_sr - s_sr) * p_s) + li * (1.0 - k / cfg.Ntx) * p_r + 1.0)
        rd = (cfg.Ntx - k) / np.sum(1.0 / s_rd) * p_r / ((b_rd - s_rd) * p_r + 1.0)
    else:
        sr = cfg.Nrx * s_sr * p_s / (np.sum(b_sr * p_s) + li * p_r + 1.0)
        rd = cfg.Ntx * s_rd**2 / np.sum(s_rd) * p_r / (b_rd * p_r + 1.0)
    coeffs = sinr_coefficients(cfg, prof, scheme)
    got_sr, got_rd = coeffs.sinrs(p_s, p_r)
    np.testing.assert_allclose(got_sr, sr, rtol=1e-12)
    np.testing.assert_allclose(got_rd, rd, rtol=1e-12)
    assert coeffs.K == k and coeffs.scheme == scheme


def test_zf_perfect_csi_hand_value():
    # K=1, 11 antennas, unit gains, no LI, unit powers:
    # both hops give SINR = (N - K) = 10, so R = log2(11)
    cfg = SystemConfig(K=1, Nrx=11, Ntx=11, tau=2, Ps=1.0, Pr=1.0, sigma_li_sq=0.0)
    rep = rate_zf(cfg, perfect_csi_profile([1.0], [1.0]))
    np.testing.assert_allclose(rep.r_sr, np.log2(11.0), rtol=1e-12)
    np.testing.assert_allclose(rep.r_rd, np.log2(11.0), rtol=1e-12)


def test_mr_perfect_csi_hand_value():
    # K=1, 50 antennas, unit gains, no LI, unit powers:
    # SR hop: 50*1/(1+1) = 25; RD hop: 50*1/(1+1) = 25; R = log2(26)
    cfg = SystemConfig(K=1, Nrx=50, Ntx=50, tau=2, Ps=1.0, Pr=1.0, sigma_li_sq=0.0)
    rep = rate_mr(cfg, perfect_csi_profile([1.0], [1.0]))
    np.testing.assert_allclose(rep.r_sr, np.log2(26.0), rtol=1e-12)
    np.testing.assert_allclose(rep.r_rd, np.log2(26.0), rtol=1e-12)


@pytest.mark.parametrize("builder", [rate_zf, rate_mr])
def test_zero_power_rates_vanish(builder):
    from dataclasses import replace

    silent_sources = builder(replace(REF_CFG, Ps=0.0), REF_PROF)
    np.testing.assert_array_equal(silent_sources.r_sr, 0.0)
    assert silent_sources.sum_se == 0.0
    silent_relay = builder(replace(REF_CFG, Pr=0.0), REF_PROF)
    np.testing.assert_array_equal(silent_relay.r_rd, 0.0)
    assert silent_relay.sum_se == 0.0


def test_sum_se_prelog_arithmetic():
    rates = np.array([1.0, 2.0, 3.0])
    assert sum_se(rates, T=200, tau=100, mode="fd") == pytest.approx(3.0)
    assert sum_se(rates, T=200, tau=100, mode="hd") == pytest.approx(1.5)
    with pytest.raises(ValueError):
        sum_se(rates, T=200, tau=200)
    with pytest.raises(ValueError):
        sum_se(rates, T=200, tau=20, mode="tdd")


@given(li=st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_half_duplex_ignores_loop_interference(li):
    from dataclasses import replace

    cfg = replace(REF_CFG, sigma_li_sq=li)
    base = rate_zf(replace(REF_CFG, sigma_li_sq=0.0), REF_PROF, mode="hd")
    rep = rate_zf(cfg, REF_PROF, mode="hd")
    np.testing.assert_array_equal(rep.r_e2e, base.r_e2e)


def test_half_duplex_doubles_powers_and_halves_prelog():
    from dataclasses import replace

    hd = rate_mr(REF_CFG, REF_PROF, mode="hd")
    # manual rebuild: no LI, doubled powers, half prelog
    manual_cfg = replace(REF_CFG, sigma_li_sq=0.0, Ps=2.0 * REF_CFG.Ps, Pr=2.0 * REF_CFG.Pr)
    manual = rate_mr(manual_cfg, REF_PROF)
    np.testing.assert_allclose(hd.r_e2e, manual.r_e2e, rtol=1e-12)
    assert hd.sum_se == pytest.approx(0.5 * manual.sum_se, rel=1e-12)
    assert hd.mode == "hd"


def test_hybrid_column_switches_on_loop_interference():
    # the hybrid SE column takes full duplex on a quiet loop, half duplex on
    # a loud one
    from dataclasses import replace

    from fdrelay import cli

    quiet = replace(REF_CFG, sigma_li_sq=1e-6)
    loud = replace(REF_CFG, sigma_li_sq=1e8)
    fd_q, hd_q, hybrid_q = cli._se_columns([quiet], [REF_PROF])[0][:3]
    fd_l, hd_l, hybrid_l = cli._se_columns([loud], [REF_PROF])[0][:3]
    assert fd_q > hd_q and hybrid_q == fd_q
    assert hd_l > fd_l and hybrid_l == hd_l
    assert fd_q == pytest.approx(rate_zf(quiet, REF_PROF).sum_se)
    assert hd_l == pytest.approx(rate_zf(loud, REF_PROF, mode="hd").sum_se)
    assert cli._SE_HEADER[:3] == ["se_fd_zf", "se_hd_zf", "se_hybrid_zf"]


def test_asymptotic_case_one_schemes_collapse():
    # with equal large-scale gains both schemes share the same Case I limit
    se_zf = asymptotic_se("I", "zf", REF_CFG, REF_PROF, Es=10.0, Er=20.0)
    se_mr = asymptotic_se("I", "mr", REF_CFG, REF_PROF, Es=10.0, Er=20.0)
    assert se_zf == pytest.approx(se_mr, rel=1e-12)
    # hand form: sr = Es sigma^2, rd = Er sigma^2 / K
    s2 = float(REF_PROF.sigma_sr_sq[0])
    rate = math.log2(1.0 + min(10.0 * s2, 20.0 * s2 / 10.0))
    assert se_zf == pytest.approx((REF_CFG.T - REF_CFG.tau) / REF_CFG.T * 10 * rate, rel=1e-12)


def test_asymptotic_case_two_hand_value():
    # sr = tau Es^2 beta_sr^2; rd = sqrt(kappa) tau Es Er over sum(beta_rd^-2)
    # for ZF, times beta_rd^4 over sum(beta_rd^2) for MR; K = 1 with unit
    # gains cannot tell sum(beta^2) from sum(beta^-2), the K = 2 row can
    es, er, kappa = 3.0, 5.0, 1.0
    for beta_sr, beta_rd in (([1.0], [1.0]), ([1.0, 0.5], [2.0, 0.25])):
        k = len(beta_sr)
        cfg = SystemConfig(K=k, Nrx=100, Ntx=100, tau=2 * k, Pp=1.0)
        prof = make_profile(beta_sr, beta_rd, cfg.tau, cfg.Pp)
        b_sr, b_rd = np.array(beta_sr), np.array(beta_rd)
        sr = cfg.tau * es**2 * b_sr**2
        common = math.sqrt(kappa) * cfg.tau * es * er
        for scheme, rd in (("zf", common / np.sum(b_rd**-2)),
                           ("mr", common * b_rd**4 / np.sum(b_rd**2))):
            want = (cfg.T - cfg.tau) / cfg.T * np.sum(np.log2(1.0 + np.minimum(sr, rd)))
            got = asymptotic_se("II", scheme, cfg, prof, Es=es, Er=er, kappa=kappa)
            assert got == pytest.approx(want, rel=1e-12), f"{scheme} at K={k}"
    # Es = 0 zeroes the first hop, and the second hop's 0/0 does not leak
    for scheme in rates.SCHEMES:
        assert asymptotic_se("II", scheme, cfg, prof, Es=0.0, Er=er, kappa=kappa) == 0.0


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_se("II", "zf", REF_CFG, REF_PROF, Es=1.0, Er=1.0)  # kappa missing
    with pytest.raises(ValueError):
        asymptotic_se("II", "zf", REF_CFG, REF_PROF, Es=1.0, Er=1.0, kappa=-2.0)
    with pytest.raises(ValueError):
        asymptotic_se("III", "zf", REF_CFG, REF_PROF, Es=1.0, Er=1.0)
    with pytest.raises(ValueError):
        asymptotic_se("I", "dpc", REF_CFG, REF_PROF, Es=1.0, Er=1.0)


# the arguments besides cfg and profile of each exported or module-held
# (cfg, profile) entry point, one dict per call; required_power runs in both
# pilot modes
ENTRY_CALLS = {
    "asymptotic_se": [dict(case="I", scheme="zf", Es=1.0, Er=1.0)],
    "convergence_probe": [dict(kind="forward", scheme="mr", trials=4,
                               rng=np.random.default_rng(0), er=1.0)],
    "genie_rates": [dict(scheme="zf", trials=4, rng=np.random.default_rng(0))],
    "mc_rate": [dict(scheme="mr", trials=4, rng=np.random.default_rng(0))],
    "optimize_powers": [dict(scheme="zf", s0=2.0)],
    "rate_mr": [{}],
    "rate_zf": [{}],
    "required_power": [dict(target_rate_per_pair=1.0, scheme="zf", pilot_tracks_data=tracks)
                       for tracks in (False, True)],
    "sinr_coefficients": [dict(scheme="mr")],
}


def test_every_entry_point_refuses_a_profile_of_another_pair_count():
    # unchecked, a one-pair profile under K = 4 gives plausible numbers and a
    # three-pair one numpy broadcast errors; a new entry point that takes
    # (cfg, profile) has to join ENTRY_CALLS, and so meet the check
    found = public_callables()
    entry_points = sorted(
        name for name, obj in found.items()
        if {"cfg", "profile"} <= set(inspect.signature(obj).parameters))
    assert sorted(ENTRY_CALLS) == entry_points
    cfg = SystemConfig(K=4, Nrx=32, Ntx=32, tau=8)
    for pairs in (3, 5):
        profile = make_profile(np.ones(pairs), np.ones(pairs), cfg.tau, cfg.Pp)
        for name, calls in ENTRY_CALLS.items():
            for extra in calls:
                with pytest.raises(ValueError,
                                   match=f"profile has {pairs} pairs but cfg.K is 4"):
                    found[name](cfg=cfg, profile=profile, **extra)


@pytest.mark.parametrize("tracks", [False, True])
def test_required_power_checks_its_inputs_once(monkeypatch, tracks):
    # not once per bisection step, whatever the pilot mode
    calls = []
    real = rates._check_inputs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rates, "_check_inputs", counted)
    ps = required_power(1.0, "zf", REF_CFG, REF_PROF, pilot_tracks_data=tracks)
    assert 1e-6 < ps < math.inf and len(calls) == 1


# gains of 1e-10 at Pp = 1e3 and sigma_LI^2 = 1e-6: ZF needs more than 1e6 at
# these targets, so the ceiling grows to 1e7 in both pilot modes
DIM_CFG = SystemConfig(K=2, Nrx=40, Ntx=40, T=200, tau=4, Pp=1e3, sigma_li_sq=1e-6)
DIM_PROF = make_profile([1e-10, 2e-10], [1e-10, 3e-10], DIM_CFG.tau, DIM_CFG.Pp)


@pytest.mark.parametrize("tracks", [False, True])
def test_required_power_builds_coefficients_once_or_once_per_step(monkeypatch, tracks):
    # fixed pilots build the SINR coefficients once per call; tracking
    # pilots build them from sigma^2(ps) once per evaluation, no more. An
    # evaluation resolves five bisection levels, and the first also holds
    # the floor and the seven ceilings: 5 evaluations when 1e6 reaches the
    # target, at most 7 when the ceiling grows, 1 at the floor or inf. Each
    # evaluation passes sinrs one (P, 1) power column, which it copies into
    # the (P, K) stack (test_a_power_stack_equals_its_rows_bit_for_bit)
    built, steps = [], []
    coefficients, sinrs = rates._coefficients, rates.SinrCoefficients.sinrs

    def counted_coefficients(*args):
        built.append(args)
        return coefficients(*args)

    def counted_sinrs(self, *args):
        steps.append(args)
        return sinrs(self, *args)

    monkeypatch.setattr(rates, "_coefficients", counted_coefficients)
    monkeypatch.setattr(rates.SinrCoefficients, "sinrs", counted_sinrs)

    def rows(target, cfg, prof):
        built.clear()
        steps.clear()
        ps = required_power(target, "zf", cfg, prof, pilot_tracks_data=tracks)
        assert len(built) == (len(steps) if tracks else 1)
        assert all((p_r == cfg.K * p_s).all() for p_s, p_r in steps)
        return ps, [p_s.shape for p_s, _ in steps]

    ps, shapes = rows(1.0, REF_CFG, REF_PROF)
    assert 1e-6 < ps < 1e6 and shapes == [(39, 1)] + [(31, 1)] * 4
    ps, shapes = rows(1e-6 if tracks else 1e-9, DIM_CFG, DIM_PROF)
    assert 1e6 < ps < 1e7 and shapes[0] == (39, 1) and shapes[1:] == [(31, 1)] * 5
    for target, want in ((1e-9, 1e-6), (50.0, math.inf)):
        assert rows(target, REF_CFG, REF_PROF) == (want, [(39, 1)])


def test_required_power_hits_target():
    from dataclasses import replace

    target = 1.0
    ps = required_power(target, "zf", REF_CFG, REF_PROF)
    assert 0 < ps < 1e6
    cfg = replace(REF_CFG, Ps=ps, Pr=REF_CFG.K * ps)
    assert float(np.min(rate_zf(cfg, REF_PROF).r_e2e)) == pytest.approx(target, rel=1e-5)


def test_required_power_decreases_with_antennas():
    from dataclasses import replace

    small = required_power(1.0, "mr", REF_CFG, REF_PROF)
    big_cfg = replace(REF_CFG, Nrx=400, Ntx=400)
    big = required_power(1.0, "mr", big_cfg, REF_PROF)
    assert big < small


def test_required_power_unreachable_target():
    # loop interference scales with Pr = K*Ps, so the SR SINR saturates
    assert required_power(50.0, "zf", REF_CFG, REF_PROF) == math.inf


def test_required_power_tracking_pilots():
    ps = required_power(1.0, "zf", REF_CFG, REF_PROF, pilot_tracks_data=True)
    assert 0 < ps < 1e6
    from dataclasses import replace

    cfg = replace(REF_CFG, Ps=ps, Pr=REF_CFG.K * ps, Pp=ps)
    prof = make_profile(REF_PROF.beta_sr, REF_PROF.beta_rd, cfg.tau, ps)
    assert float(np.min(rate_zf(cfg, prof).r_e2e)) == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(ValueError):
        required_power(0.0, "zf", REF_CFG, REF_PROF)


def test_required_power_refuses_a_nan_target():
    with pytest.raises(ValueError, match="target rate must be positive"):
        required_power(math.nan, "zf", REF_CFG, REF_PROF)
    with pytest.raises(ValueError, match="target rate must be positive"):
        required_power(-1.0, "mr", REF_CFG, REF_PROF, pilot_tracks_data=True)
    # an infinite target is a valid request that no power reaches
    assert required_power(math.inf, "mr", REF_CFG, REF_PROF) == math.inf


SNAP_CFG = SystemConfig(K=10, Nrx=200, Ntx=200, Pp=10.0, sigma_li_sq=0.1)
POWER_SETUPS = {
    "flat": (REF_CFG, REF_PROF),
    "snapshot": (SNAP_CFG, snapshot_profile(SNAP_CFG.tau, SNAP_CFG.Pp)),
    "unequal": (ODD_CFG, ODD_PROF),
}


@pytest.mark.parametrize("setup", sorted(POWER_SETUPS))
@pytest.mark.parametrize("scheme", ["zf", "mr"])
@pytest.mark.parametrize("tracks", [False, True])
def test_required_power_equals_the_per_step_bisection(setup, scheme, tracks):
    # the evaluator built once per call returns the per-step path's power,
    # bit for bit, from the 1e-6 floor through bisected values to inf
    cfg, prof = POWER_SETUPS[setup]
    got = [required_power(t, scheme, cfg, prof, pilot_tracks_data=tracks)
           for t in (1e-9, 0.5, 1.0, 2.0, 50.0)]
    want = [required_power_per_step(t, scheme, cfg, prof, pilot_tracks_data=tracks)
            for t in (1e-9, 0.5, 1.0, 2.0, 50.0)]
    assert got == want
    assert 1e-6 < got[1] < math.inf and got[-1] == math.inf
    if setup == "flat":
        assert got[0] == 1e-6


@st.composite
def power_requests(draw):
    """Gains in [0.1, 10] per pair, a scheme, a pilot mode and two targets in (0, 3]."""
    k = draw(st.integers(1, 4))
    gains = st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k)
    cfg = SystemConfig(K=k, Nrx=32, Ntx=32, tau=2 * k, Pp=10.0, sigma_li_sq=1.0)
    prof = make_profile(draw(gains), draw(gains), cfg.tau, cfg.Pp)
    targets = sorted(draw(st.lists(st.floats(1e-3, 3.0), min_size=2, max_size=2)))
    return cfg, prof, draw(st.sampled_from(["zf", "mr"])), draw(st.booleans()), targets


@given(request=power_requests())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_required_power_is_the_bisected_threshold(request):
    cfg, prof, scheme, tracks, (low, high) = request
    ps = required_power(high, scheme, cfg, prof, pilot_tracks_data=tracks)
    if 1e-6 < ps < math.inf:
        # within the stop rule's 1e-6 of the smallest power that reaches it
        below = min_rate_at(ps * (1.0 - 1e-6), scheme, cfg, prof, tracks)
        assert below < high <= min_rate_at(ps, scheme, cfg, prof, tracks)
    assert required_power(low, scheme, cfg, prof, pilot_tracks_data=tracks) <= ps


def return_class(ps: float) -> str:
    """Which of required_power's four kinds of result ps is."""
    if ps == 1e-6:
        return "floor"
    if ps == math.inf:
        return "inf"
    return "ceiling grown" if ps > 1e6 else "bisected below 1e6"


# one request per return class: (target, scheme, cfg, profile, pilot_tracks_data)
ORACLE_TABLE = {
    "floor": (1e-9, "zf", REF_CFG, REF_PROF, False),
    "bisected below 1e6": (1.0, "mr", REF_CFG, REF_PROF, True),
    "ceiling grown": (1e-9, "zf", DIM_CFG, DIM_PROF, False),
    "inf": (50.0, "mr", REF_CFG, REF_PROF, True),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_TABLE))
def test_required_power_equals_the_oracle_in_every_return_class(kind):
    target, scheme, cfg, prof, tracks = ORACLE_TABLE[kind]
    got = required_power(target, scheme, cfg, prof, pilot_tracks_data=tracks)
    assert return_class(got) == kind
    assert got == required_power_per_step(target, scheme, cfg, prof, pilot_tracks_data=tracks)


@st.composite
def oracle_requests(draw):
    """A request anywhere in required_power's range: K of 1 to 10, Nrx and Ntx
    of K+1 to K+300, Pp and sigma_LI^2 over several decades, gains of about
    1e-12 to 10 within a decade of each other, targets of 1e-9 to 10, both
    schemes and both pilot modes."""
    def decades(lo, hi):  # a whole decade, then a point in it
        return st.tuples(st.integers(lo, hi - 1), st.floats(0.0, 1.0)).map(
            lambda e: 10.0 ** sum(e))

    k = draw(st.integers(1, 10))
    tau = draw(st.integers(2 * k, 2 * k + 20))
    cfg = SystemConfig(K=k, Nrx=draw(st.integers(k + 1, k + 300)),
                       Ntx=draw(st.integers(k + 1, k + 300)), T=tau + 100, tau=tau,
                       Pp=draw(decades(-3, 3)), sigma_li_sq=draw(decades(-6, 2)))
    scale = draw(decades(-12, 0))
    gains = st.lists(decades(0, 1).map(lambda g: scale * g), min_size=k, max_size=k)
    prof = make_profile(draw(gains), draw(gains), tau, cfg.Pp)
    return (draw(decades(-9, 1)), draw(st.sampled_from(["zf", "mr"])), cfg, prof,
            draw(st.booleans()))


@given(request=oracle_requests())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_required_power_equals_the_oracle_on_drawn_requests(request):
    # five levels per evaluation walk the per-step path's midpoints, so the
    # result is its float in every return class (the event names the class)
    target, scheme, cfg, prof, tracks = request
    want = required_power_per_step(target, scheme, cfg, prof, pilot_tracks_data=tracks)
    event(return_class(want))
    assert required_power(target, scheme, cfg, prof, pilot_tracks_data=tracks) == want


def lockstep_point(scale, n_ant, sigma_li_sq, pp):
    """A K = 2 point with gains scale * (1, 2) and scale * (1, 3)."""
    cfg = SystemConfig(K=2, Nrx=n_ant, Ntx=n_ant, tau=4, Pp=pp, sigma_li_sq=sigma_li_sq)
    return cfg, make_profile(scale * np.array([1.0, 2.0]), scale * np.array([1.0, 3.0]),
                             cfg.tau, pp)


# at a target of 1e-9: strong gains return the floor, a loop term of 1e12
# returns inf, DIM_CFG's point grows the ceiling to 1e7 with fixed pilots and
# the 1e-12 gains grow it with tracking ones; the rest are bisected below 1e6
LOCKSTEP_POINTS = [lockstep_point(*p) for p in (
    (1e7, 40, 1.0, 10.0), (1e-10, 40, 1e-6, 1e3), (1.0, 40, 1e12, 10.0),
    (1.0, 8, 1.0, 10.0), (0.1, 300, 0.01, 1.0), (10.0, 40, 1.0, 100.0),
    (3e-9, 40, 1e-6, 1e3), (1e-12, 40, 1e-8, 1e3))]


@pytest.mark.parametrize("scheme", ["zf", "mr"])
@pytest.mark.parametrize("tracks", [False, True])
def test_lockstep_bisections_equal_the_oracle_and_the_single_calls(monkeypatch, scheme,
                                                                   tracks):
    # the points leave the lockstep after different numbers of evaluations,
    # each with the float of the per-step oracle and of its own call
    rows, sinrs = [], rates.SinrCoefficients.sinrs

    def counted_sinrs(self, p_s, p_r):
        rows.append(len(p_s))
        return sinrs(self, p_s, p_r)

    monkeypatch.setattr(rates.SinrCoefficients, "sinrs", counted_sinrs)
    cfgs, profiles = zip(*LOCKSTEP_POINTS)
    assert cfgs[1] == DIM_CFG and np.array_equal(profiles[1].beta_rd, DIM_PROF.beta_rd)
    got = rates._required_powers(1e-9, scheme, cfgs, profiles, pilot_tracks_data=tracks)
    assert rows[0] == 39 * len(cfgs) and rows[1:] == sorted(rows[1:], reverse=True)
    assert len(set(rows[1:])) >= 2 and rows[-1] == 31
    monkeypatch.undo()
    assert {return_class(ps) for ps in got} == set(ORACLE_TABLE)
    assert 1e6 < got[1 if not tracks else 7] <= 1e7
    for ps, cfg, prof in zip(got, cfgs, profiles):
        assert type(ps) is float
        assert ps == required_power_per_step(1e-9, scheme, cfg, prof, pilot_tracks_data=tracks)
        assert ps == required_power(1e-9, scheme, cfg, prof, pilot_tracks_data=tracks)


def test_lockstep_bisections_refuse_a_bad_target_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("work began before the target was checked")

    monkeypatch.setattr(rates, "_stacked", fail)
    monkeypatch.setattr(rates, "_coefficients", fail)
    cfgs, profiles = zip(*LOCKSTEP_POINTS)
    for target in (math.nan, 0.0, -1.0, 0):
        with pytest.raises(ValueError, match="target rate must be positive"):
            rates._required_powers(target, "zf", cfgs, profiles)


def test_per_source_power_validation():
    with pytest.raises(ValueError):
        rate_zf(REF_CFG, REF_PROF, mode="simplex")
    with pytest.raises(ValueError):
        sinr_coefficients(REF_CFG, REF_PROF, "svd")


def test_sum_se_grows_with_antennas():
    from dataclasses import replace

    ses = [
        rate_zf(replace(REF_CFG, Nrx=n, Ntx=n), REF_PROF).sum_se
        for n in (20, 50, 100, 400)
    ]
    assert all(lo < hi for lo, hi in zip(ses, ses[1:]))


@st.composite
def small_configs(draw):
    """A small random config and profile; ZF-valid (Nrx = Ntx > K)."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 1, k + 100))
    tau = draw(st.integers(2 * k, 2 * k + 20))
    power = st.floats(-2.0, 3.0).map(lambda e: 10.0**e)
    gains = st.lists(st.floats(-2.0, 1.0).map(lambda e: 10.0**e), min_size=k, max_size=k)
    cfg = SystemConfig(K=k, Nrx=n, Ntx=n, T=draw(st.integers(tau + 1, 400)), tau=tau,
                       Pp=draw(power), Ps=draw(power), Pr=draw(power),
                       sigma_li_sq=draw(st.floats(0.0, 1e3)))
    return cfg, make_profile(draw(gains), draw(gains), tau, cfg.Pp)


@pytest.mark.parametrize("builder", [rate_zf, rate_mr])
@given(setup=small_configs(), more_li=st.floats(0.0, 1e3))
@settings(max_examples=100, deadline=None)
def test_full_duplex_se_does_not_grow_with_loop_interference(builder, setup, more_li):
    from dataclasses import replace

    cfg, prof = setup
    louder = replace(cfg, sigma_li_sq=cfg.sigma_li_sq + more_li)
    assert builder(louder, prof).sum_se <= builder(cfg, prof).sum_se


@pytest.mark.parametrize("builder", [rate_zf, rate_mr])
@pytest.mark.parametrize("mode", ["fd", "hd"])
@given(setup=small_configs(), extra=st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_sum_se_does_not_drop_as_the_arrays_grow(builder, mode, setup, extra):
    from dataclasses import replace

    cfg, prof = setup
    bigger = replace(cfg, Nrx=cfg.Nrx + extra, Ntx=cfg.Ntx + extra)
    assert builder(bigger, prof, mode=mode).sum_se >= builder(cfg, prof, mode=mode).sum_se


@st.composite
def small_mr_setups(draw):
    """A small random config, profile and seed for one Monte Carlo run."""
    k = draw(st.integers(1, 4))
    log_uniform = st.floats(-1.0, 2.0).map(lambda e: 10.0**e)
    gains = st.lists(st.floats(-1.0, 1.0).map(lambda e: 10.0**e), min_size=k, max_size=k)
    cfg = SystemConfig(K=k, Nrx=draw(st.integers(k + 1, 64)),
                       Ntx=draw(st.integers(k + 1, 64)), T=200, tau=2 * k,
                       Pp=draw(log_uniform), Ps=draw(log_uniform), Pr=draw(log_uniform),
                       sigma_li_sq=draw(log_uniform))
    prof = make_profile(draw(gains), draw(gains), cfg.tau, cfg.Pp)
    return cfg, prof, draw(st.integers(0, 2**32 - 1))


@given(setup=small_mr_setups())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_mr_closed_form_matches_simulation(setup):
    # the MRC/MRT closed form is exact, so the simulated bound centres on it
    cfg, prof, seed = setup
    sim = simulate([(cfg, prof)], "mr", 4000, np.random.default_rng(seed))[0][0]
    closed = float(np.sum(rate_mr(cfg, prof).r_e2e))
    assert abs(sim.sum_rate - closed) <= 3.0 * sim.stderr_sum_rate


@st.composite
def rate_batches(draw):
    """Up to 8 points of one K with non-flat gains, each with its own Nrx, Ntx,
    Ps, Pr, sigma_LI^2, T and tau (Nrx, Ntx > K, so ZF applies)."""
    k = draw(st.integers(1, 6))
    power = st.floats(-2.0, 3.0).map(lambda e: 10.0**e)
    gains = st.lists(st.floats(-2.0, 1.0).map(lambda e: 10.0**e), min_size=k, max_size=k)
    points = []
    for _ in range(draw(st.integers(1, 8))):
        tau = draw(st.integers(2 * k, 2 * k + 20))
        cfg = SystemConfig(K=k, Nrx=draw(st.integers(k + 1, 300)),
                           Ntx=draw(st.integers(k + 1, 300)),
                           T=draw(st.integers(tau + 1, 400)), tau=tau, Pp=draw(power),
                           Ps=draw(power), Pr=draw(power),
                           sigma_li_sq=draw(st.floats(0.0, 1e3)))
        points.append((cfg, make_profile(draw(gains), draw(gains), tau, cfg.Pp)))
    return points


@pytest.mark.parametrize("scheme,builder", [("zf", rate_zf), ("mr", rate_mr)])
@pytest.mark.parametrize("mode", ["fd", "hd"])
@given(points=rate_batches())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_batch_equals_its_points_bit_for_bit(scheme, builder, mode, points):
    # a single point is a batch of one, so every row must be the point's own
    # report; a stride-0 power operand would round the interference sum
    # differently from the coefficient form's np.dot-equal matmul
    cfgs, profs = zip(*points)
    batch = builder(cfgs, profs, mode=mode)
    assert batch.r_e2e.shape == (len(points), cfgs[0].K)
    assert batch.sum_se.shape == (len(points),)
    for i, (cfg, prof) in enumerate(points):
        one = builder(cfg, prof, mode=mode)
        assert isinstance(one.sum_se, float) and one.r_e2e.shape == (cfg.K,)
        for name in ("r_sr", "r_rd", "r_e2e"):
            assert (getattr(batch, name)[i] == getattr(one, name)).all(), name
        assert batch.sum_se[i] == one.sum_se
        coeffs, scale = sinr_coefficients(cfg, prof, scheme), 1.0
        if mode == "hd":
            coeffs, scale = coeffs._replace(c=np.zeros(cfg.K)), 2.0
        sr, rd = coeffs.sinrs(np.full(cfg.K, scale * cfg.Ps), scale * cfg.Pr)
        assert (batch.r_sr[i] == np.log2(1.0 + sr)).all()
        assert (batch.r_rd[i] == np.log2(1.0 + rd)).all()


@pytest.mark.parametrize("scheme", ["zf", "mr"])
@given(points=rate_batches(), powers=st.lists(st.floats(-6.0, 12.0).map(lambda e: 10.0**e),
                                              min_size=1, max_size=40))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_power_stack_equals_its_rows_bit_for_bit(scheme, points, powers):
    # required_power evaluates a stack of powers at once: fixed pilots put
    # (K,) coefficients under a (P, 1) power column, tracking pilots build
    # (P, K) coefficients at a (P, 1) pilot-energy column; each row must be
    # the one-power evaluation, which the per-step bisection made. sinrs
    # copies p_s into a full stack, so a scalar, a column, a full stack and
    # a stride-0 view (which would round the interference sum differently
    # from np.dot) all give the same bits
    column = np.array(powers)[:, None]
    for cfg, prof in points:
        k, fixed = cfg.K, sinr_coefficients(cfg, prof, scheme)

        def tracking(energy):
            return rates._coefficients(cfg, scheme, prof, _mmse_variance(prof.beta_sr, energy),
                                       _mmse_variance(prof.beta_rd, energy))

        rows = [(fixed.sinrs(np.full(k, ps), k * ps),
                 tracking(cfg.tau * ps).sinrs(np.full(k, ps), k * ps)) for ps in powers]
        for p_s in (column, np.full((len(powers), k), column),
                    np.broadcast_to(column, (len(powers), k))):
            stacks = (fixed.sinrs(p_s, k * column),
                      tracking(cfg.tau * column).sinrs(p_s, k * column))
            for i, row in enumerate(rows):
                for (sr, rd), (sr_row, rd_row) in zip(stacks, row):
                    assert (sr[i] == sr_row).all() and (rd[i] == rd_row).all()
        for ps, row in zip(powers, rows):
            scalar = (fixed.sinrs(ps, k * ps), tracking(cfg.tau * ps).sinrs(ps, k * ps))
            for (sr, rd), (sr_row, rd_row) in zip(scalar, row):
                assert (sr == sr_row).all() and (rd == rd_row).all()


def test_a_batch_refuses_mixed_pair_counts_and_bad_points():
    from dataclasses import replace

    small = SystemConfig(K=4, Nrx=32, Ntx=32, tau=8)
    small_prof = make_profile([1.0] * 4, [1.0] * 4, 8, small.Pp)
    for builder in (rate_zf, rate_mr):
        for cfgs, profs in (([REF_CFG, small], [REF_PROF, small_prof]),
                            ([REF_CFG, REF_CFG], [REF_PROF]), ([], [])):
            with pytest.raises(ValueError, match="one profile per config, one K"):
                builder(cfgs, profs)
        # every point is checked before any work
        with pytest.raises(ValueError, match="profile has 4 pairs"):
            builder([REF_CFG, REF_CFG], [REF_PROF, small_prof])
    with pytest.raises(ValueError, match="zero forcing"):
        rate_zf([REF_CFG, replace(REF_CFG, Nrx=10)], [REF_PROF, REF_PROF])
