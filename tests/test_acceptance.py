"""End-to-end acceptance checks, one test per shipped claim.

Each test pins a quantitative property of the toolkit: closed forms against
Monte Carlo, scaling laws, solver accuracy, allocation behavior, and exact
reproducibility. Seeds are frozen so every run sees identical draws.
"""
import math

import numpy as np
import pytest

from fdrelay import (
    SystemConfig,
    asymptotic_se,
    convergence_probe,
    energy_efficiency,
    genie_rates,
    make_profile,
    mc_rate,
    optimize_powers,
    rate_mr,
    rate_zf,
    required_power,
    sinr_coefficients,
    snapshot_profile,
)
from fdrelay.cli import main as cli_main
from fdrelay.gp import GeometricProgram, Posynomial, solve_gp
from gp_oracle import brute_force_gp

SNR_GRID_DB = (-10, 0, 10)


def grid_cfg(n_ant: int, snr_db: float) -> SystemConfig:
    """Symmetric validation point: beta = 1, Pp = Ps, Pr = K Ps."""
    ps = 10.0 ** (snr_db / 10.0)
    return SystemConfig(K=10, Nrx=n_ant, Ntx=n_ant, T=200, tau=20,
                        Pp=ps, Ps=ps, Pr=10.0 * ps, sigma_li_sq=1.0)


def flat_profile(cfg: SystemConfig):
    return make_profile(np.ones(cfg.K), np.ones(cfg.K), cfg.tau, cfg.Pp)


def seeded(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def test_exact_rate_formula_matches_simulation_grid():
    """MRC/MRT closed-form per-pair rates equal the simulated bound (3 stderr).

    Grid: SNR in {-10, 0, 10} dB, Nrx = Ntx in {50, 100}, 10^4 trials.
    """
    for n in (50, 100):
        for snr in SNR_GRID_DB:
            cfg = grid_cfg(n, snr)
            prof = flat_profile(cfg)
            res = mc_rate(cfg, prof, "mr", 10_000, seeded(2, n, snr + 10))
            ref = rate_mr(cfg, prof)
            z = np.abs(res.r_e2e - ref.r_e2e) / res.stderr_r_e2e
            assert float(np.max(z)) <= 3.0, \
                f"N={n} SNR={snr} dB: worst deviation {float(np.max(z)):.2f} stderr"


def test_zf_approximation_tightness_bands():
    """ZF closed form within 10% of the simulated bound at N=50, 5% at N=100.

    The only approximation in the ZF formula is its loop-interference term,
    which understates the exact power by the factor (Ntx - K)/Ntx.
    """
    violations = []
    for n, limit in ((50, 0.10), (100, 0.05)):
        for snr in SNR_GRID_DB:
            cfg = grid_cfg(n, snr)
            prof = flat_profile(cfg)
            res = mc_rate(cfg, prof, "zf", 10_000, seeded(1, 2, n, snr + 10))
            closed = float(np.sum(rate_zf(cfg, prof).r_e2e))
            rel = abs(closed - res.sum_rate) / res.sum_rate
            if rel > limit:
                violations.append(
                    f"N={n} SNR={snr} dB: gap {rel:.2%} > {limit:.0%}")
    assert not violations, "; ".join(violations)


def test_genie_to_bound_sum_rate_gaps():
    """Sum-rate cost of statistical (vs instantaneous) effective-channel CSI.

    At N=50, SNR=5 dB: 0.65 +- 0.25 bits/s/Hz for MRC/MRT, 0.9 +- 0.25 for ZF.
    """
    cfg = grid_cfg(50, 5)
    prof = flat_profile(cfg)
    for idx, (scheme, center) in enumerate((("mr", 0.65), ("zf", 0.9))):
        rng = seeded(1, 3, idx)
        bound = mc_rate(cfg, prof, scheme, 20_000, rng)
        genie = genie_rates(cfg, prof, scheme, 20_000, rng)
        gap = genie.sum_rate - bound.sum_rate
        assert center - 0.25 <= gap <= center + 0.25, \
            f"{scheme}: gap {gap:.3f} outside {center} +- 0.25"


def test_required_power_halving_steps():
    """Doubling both arrays from 256 to 512 saves ~3 dB of source power with a
    fixed pilot power and ~1.5 dB when the pilots track the data power."""
    for scheme in ("zf", "mr"):
        for tracks, want in ((False, 3.0), (True, 1.5)):
            ps = {}
            for n in (256, 512):
                cfg = SystemConfig(K=10, Nrx=n, Ntx=n, T=200, tau=20,
                                   Pp=10.0, Ps=1.0, Pr=10.0, sigma_li_sq=1.0)
                ps[n] = required_power(1.0, scheme, cfg, flat_profile(cfg),
                                       pilot_tracks_data=tracks)
            step = 10.0 * math.log10(ps[256] / ps[512])
            assert want - 0.5 <= step <= want + 0.5, \
                f"{scheme} tracks={tracks}: {step:.3f} dB outside {want} +- 0.5"


def test_case_one_asymptote_collapse_and_approach():
    """With equal large-scale gains the fixed-pilot large-array limits of ZF
    and MRC/MRT coincide, and finite-N rates under Ps=Es/N, Pr=Er/N sit
    within 2% of the limit at N=4096."""
    es, er, n = 10.0, 20.0, 4096
    cfg = SystemConfig(K=10, Nrx=n, Ntx=n, T=200, tau=20,
                       Pp=10.0, Ps=es / n, Pr=er / n, sigma_li_sq=1.0)
    prof = flat_profile(cfg)
    a_zf = asymptotic_se("I", "zf", cfg, prof, Es=es, Er=er)
    a_mr = asymptotic_se("I", "mr", cfg, prof, Es=es, Er=er)
    assert abs(a_zf - a_mr) <= 1e-12 * a_zf
    for fn in (rate_zf, rate_mr):
        finite = fn(cfg, prof).sum_se
        assert abs(finite - a_zf) / a_zf <= 0.02


@pytest.mark.parametrize("es,er,kappa", [(1.0, 1.0, 1), (5.0, 10.0, 2)])
def test_case_two_asymptote_approach(es, er, kappa):
    """On the snapshot profile's unequal gains, finite-N rates under
    Pp = Ps = Es/sqrt(Nrx), Pr = Er/sqrt(Ntx), Ntx = kappa Nrx sit within 2%
    of the Case II limit at Nrx = 10^6 and within 0.5% at 10^8, both schemes
    (the MR gap is not monotone in Nrx at Es = 5, Er = 10, kappa = 2)."""
    for fn, scheme in ((rate_zf, "zf"), (rate_mr, "mr")):
        for n, tol in ((10**6, 0.02), (10**8, 0.005)):
            cfg = SystemConfig(K=10, Nrx=n, Ntx=kappa * n, T=200, tau=20,
                               Pp=es / math.sqrt(n), Ps=es / math.sqrt(n),
                               Pr=er / math.sqrt(kappa * n), sigma_li_sq=1.0)
            prof = snapshot_profile(cfg.tau, cfg.Pp)
            limit = asymptotic_se("II", scheme, cfg, prof, Es=es, Er=er, kappa=kappa)
            finite = fn(cfg, prof).sum_se
            assert abs(finite - limit) / limit <= tol, \
                f"{scheme} at Nrx={n}: {finite:.4f} against limit {limit:.4f}"


def test_processing_moment_identities():
    """Simulated processing moments hit their exact expectations (3 stderr,
    10^5 trials) across (K, N) in {(2,16), (5,64), (10,128)}:
    the inverse-Gram diagonal, the unit ZF receive gain, and all five
    first-hop MRC terms (mean, variance, interpair, loop, noise)."""
    for k, n in ((2, 16), (5, 64), (10, 128)):
        cfg = SystemConfig(K=k, Nrx=n, Ntx=n, T=200, tau=2 * k,
                           Pp=4.0, Ps=1.0, Pr=2.0, sigma_li_sq=2.0)
        prof = make_profile(np.linspace(0.6, 1.8, k), np.linspace(1.5, 0.7, k),
                            cfg.tau, cfg.Pp)
        trials = 100_000
        label = f"(K={k}, N={n})"

        # the bound consumes |E{w^T g}|, and stderr_mean_gain is the
        # delta-method stderr of that magnitude, so the magnitude is the
        # tested statistic
        zf = mc_rate(cfg, prof, "zf", trials, seeded(10, k, n, 1)).sr_terms
        assert np.all(np.abs(np.abs(zf.mean_gain) - 1.0)
                      <= 3.0 * zf.stderr_mean_gain), \
            f"ZF receive gain not unit at {label}"
        # the ZF noise term ||w_k||^2 is the inverse-Gram diagonal of each trial
        expect = 1.0 / ((n - k) * prof.sigma_sr_sq)
        assert np.all(np.abs(zf.noise - expect) <= 3.0 * zf.stderr_noise), \
            f"inverse-Gram moment off at {label}"

        mr = mc_rate(cfg, prof, "mr", trials, seeded(10, k, n, 2)).sr_terms
        base = n * prof.sigma_sr_sq
        checks = (
            ("mean", np.abs(np.abs(mr.mean_gain) - base), mr.stderr_mean_gain),
            ("variance", np.abs(mr.var_gain - base * prof.beta_sr),
             mr.stderr_var_gain),
            ("interpair", np.abs(
                mr.multipair - base * (np.sum(prof.beta_sr) - prof.beta_sr)),
             mr.stderr_multipair),
            ("loop", np.abs(mr.loop - cfg.sigma_li_sq * base), mr.stderr_loop),
            ("noise", np.abs(mr.noise - base), mr.stderr_noise),
        )
        for name, err, se in checks:
            assert np.all(err <= 3.0 * se), f"MRC {name} term off at {label}"


def _grid_oracle(prog: GeometricProgram, stages: int = 6) -> float:
    """Solver-independent objective oracle: repeatedly zoomed grid search.

    Each stage re-centers on the best grid point, keeping two old grid steps
    of slack so an active constraint cannot pin the refinement short.
    """
    lo, hi = prog.lower.copy(), prog.upper.copy()
    points = 21
    best = math.inf
    for _ in range(stages):
        res = brute_force_gp(
            GeometricProgram(prog.objective, prog.inequalities,
                             prog.equalities, lo, hi), points_per_dim=points)
        if res.status == "infeasible":
            break
        best = min(best, res.value)
        step = (hi / lo) ** (1.0 / (points - 1))
        lo = np.maximum(prog.lower, res.x / step**2)
        hi = np.minimum(prog.upper, res.x * step**2)
    return best


def test_gp_solver_against_grid_oracle():
    """50 random programs with up to 3 variables match a refined grid search
    within 1% relative objective; two analytic instances solve exactly."""
    rng = seeded(1, 7)
    checked = 0
    for trial in range(50):
        nv = int(rng.integers(1, 4))
        lo, hi = np.full(nv, 0.05), np.full(nv, 50.0)
        mid = np.sqrt(lo * hi)
        obj = Posynomial(coeffs=rng.uniform(0.5, 2.0, size=3),
                         exponents=rng.uniform(-1.5, 1.5, size=(3, nv)))
        cons = []
        for _ in range(3):
            p = Posynomial(coeffs=rng.uniform(0.5, 2.0, size=2),
                           exponents=rng.uniform(-1.5, 1.5, size=(2, nv)))
            cons.append(Posynomial(coeffs=p.coeffs / (2.0 * p.value(mid)),
                                   exponents=p.exponents))
        prog = GeometricProgram(obj, tuple(cons), (), lo, hi)
        res = solve_gp(prog)
        assert res.status == "optimal", f"random program {trial} not solved"
        oracle = _grid_oracle(prog)
        assert abs(res.value - oracle) <= 0.01 * oracle, \
            f"program {trial}: solver {res.value:.6g} vs grid {oracle:.6g}"
        checked += 1
    assert checked == 50

    floor = GeometricProgram(
        Posynomial([1.0], [[1.0]]), (Posynomial([1.0], [[-1.0]]),), (),
        np.array([1e-3]), np.array([1e3]))
    res = solve_gp(floor)
    assert res.status == "optimal" and res.kkt_residual <= 1e-8
    assert res.value == pytest.approx(1.0, rel=1e-6)

    am_gm = GeometricProgram(
        Posynomial([1.0, 1.0], [[1, 0], [0, 1]]),
        (Posynomial([4.0], [[-1.0, -1.0]]),), (),
        np.full(2, 1e-3), np.full(2, 1e3))
    res = solve_gp(am_gm)
    assert res.status == "optimal" and res.kkt_residual <= 1e-8
    assert res.value == pytest.approx(4.0, rel=1e-6)
    np.testing.assert_allclose(res.x, [2.0, 2.0], rtol=1e-5)


def test_power_allocation_sweep():
    """Minimum-power allocation at Nrx=Ntx=200 over targets 2..14 bits/s/Hz:
    feasible everywhere, converged within 5 rounds, constraints met, true SE
    within 2% of the target, and EE strictly above the uniform-peak EE."""
    cfg = SystemConfig(K=10, Nrx=200, Ntx=200, T=200, tau=20,
                       Pp=10.0, sigma_li_sq=10.0)
    profile = snapshot_profile(cfg.tau, cfg.Pp)
    p0, p1 = 10.0, 100.0
    for scheme in ("zf", "mr"):
        coeffs = sinr_coefficients(cfg, profile, scheme)
        sr, rd = coeffs.sinrs(np.full(10, p0), p1)
        se_uniform = (cfg.T - cfg.tau) / cfg.T * float(
            np.sum(np.log2(1.0 + np.minimum(sr, rd))))
        ee_uniform = energy_efficiency(se_uniform, np.full(10, p0), p1,
                                       cfg.T, cfg.tau)
        for s0 in range(2, 15):
            alloc = optimize_powers(cfg, profile, scheme, float(s0), p0=p0, p1=p1)
            tag = f"{scheme} S0={s0}"
            assert alloc.status == "optimal", f"{tag}: {alloc.status}"
            assert alloc.converged and alloc.iterations <= 5, \
                f"{tag}: {alloc.iterations} rounds"
            assert np.all(alloc.p_s >= 0.0), tag
            assert np.all(alloc.p_s <= p0 * (1.0 + 1e-6)), tag
            assert 0.0 <= alloc.p_r <= p1 * (1.0 + 1e-6), tag
            assert abs(alloc.achieved_se - s0) <= 0.02 * s0, \
                f"{tag}: achieved {alloc.achieved_se:.4f}"
            assert alloc.ee > ee_uniform, \
                f"{tag}: EE {alloc.ee:.5f} not above uniform {ee_uniform:.5f}"


def test_large_array_residual_slopes():
    """Receive-side residuals vanish as the arrays grow: the decoded-symbol
    error ratio across Nrx in {64, 256, 1024}, and the per-antenna loop power
    under Pr = Er/Ntx across Ntx in {64, 256, 1024}, both with fitted log-log
    slope below -0.5 for each scheme."""
    sizes = (64, 256, 1024)
    for scheme in ("zf", "mr"):
        ratios = []
        for nrx in sizes:
            cfg = SystemConfig(K=4, Nrx=nrx, Ntx=64, T=200, tau=8,
                               Pp=4.0, Ps=1.0, Pr=10.0, sigma_li_sq=1.0)
            prof = make_profile(np.linspace(0.8, 1.2, 4), np.ones(4),
                                cfg.tau, cfg.Pp)
            value = convergence_probe("decode", cfg, prof, scheme, 1500,
                                      seeded(9, 0, nrx))
            ratios.append(value / cfg.Ps)
        slope = np.polyfit(np.log(sizes), np.log(ratios), 1)[0]
        assert slope < -0.5, f"{scheme} decode slope {slope:.3f}"

        powers = []
        for ntx in sizes:
            cfg = SystemConfig(K=4, Nrx=64, Ntx=ntx, T=200, tau=8,
                               Pp=4.0, Ps=1.0, Pr=1.0, sigma_li_sq=1.0)
            prof = make_profile(np.linspace(0.8, 1.2, 4), np.ones(4),
                                cfg.tau, cfg.Pp)
            powers.append(convergence_probe("loop_power", cfg, prof, scheme,
                                            1500, seeded(9, 1, ntx), er=40.0))
        slope = np.polyfit(np.log(sizes), np.log(powers), 1)[0]
        assert slope < -0.5, f"{scheme} loop-power slope {slope:.3f}"


def test_preset_manifest_reproducibility(tmp_path):
    """Re-running a preset from its manifest reproduces every output byte."""
    runs = (
        (["--preset", "fig2", "--trials", "60", "--seed", "11"], "fig2"),
        (["--preset", "fig3", "--trials", "60", "--seed", "11"], "fig3"),
        (["--preset", "fig4"], "fig4"),
        (["--preset", "fig6", "--set", "nrx=64"], "fig6"),
    )
    for extra, preset in runs:
        first = tmp_path / f"{preset}_a"
        second = tmp_path / f"{preset}_b"
        assert cli_main(["run", "--out", str(first)] + extra) == 0
        assert cli_main(["run", "--manifest",
                         str(first / f"{preset}.manifest.json"),
                         "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), \
                f"{preset}: {name} differs between runs"
