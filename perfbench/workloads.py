"""The benchmark's four workloads: their ops, correctness checks and warm-ups.

An op is one unit of a workload, timed on its own. A pass is a fixed list of
ops; a run repeats passes of the same shape, so wall time per pass and the
op-latency sample count stay comparable between commits. Every random input
of op number i comes from ``SeedSequence((seed, i))``.

Why these four:

* ``mc_fig`` (a bound-and-genie grid point) is where channel draws and the
  Monte Carlo engine do nearly all the work;
* ``mc_identity`` (moment identities and convergence probes) uses the same
  engine bound-only, at small K and more trials, plus a Wishart path that
  never touches the channel sampler;
* ``alloc`` (one power allocation) is all GP solver and allocator;
* ``cli_sweeps`` (one in-process CLI run) is millisecond ops bound by Python
  call overhead, the required-power bisection, urban drops and CSV writing.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from fdrelay import cli, montecarlo, powalloc, rates
from fdrelay.model import SystemConfig, make_profile, snapshot_profile

# Stderr-based identity checks run a few hundred times per run on arbitrary
# seeds; with 20 batch means the z-score is Student t with 19 degrees of
# freedom, and at 8 a spurious failure is about 2e-7 per check.
Z_LIMIT = 8.0
# Warm-up inputs use a key no op index reaches.
WARMUP_INDEX = 2**31


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output (None when it passes)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    pass_s: float  # nominal seconds per pass, single-threaded on a 2-core x86 box
    pass_ops: Callable  # (seed, first op index, scratch dir) -> list[Op]
    warmup: Callable  # (seed, scratch dir) -> Op at the workload's smallest size


def _seq(seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((seed, index))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(_seq(seed, index))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=complex))) for v in values)


def _first_failure(reasons) -> Optional[str]:
    return next((r for r in reasons if r is not None), None)


def _all_of(name: str, ops) -> Op:
    """Ops run back to back as one op (used for multi-call warm-ups)."""
    ops = list(ops)
    return Op(name, lambda: [op.run() for op in ops],
              lambda outs: _first_failure(op.check(o) for op, o in zip(ops, outs)))


# --- mc_fig: bound, genie rates and closed forms on the K=10 validation grid

MC_FIG_SIZES = (50, 100, 200)
MC_FIG_SNR_DB = (-10, 0, 10)
MC_FIG_TRIALS = 100


def _grid_cfg(n_ant: int, snr_db: float) -> SystemConfig:
    """beta = 1, Pp = Ps, Pr = K Ps, sigma_LI^2 = 1."""
    ps = 10.0 ** (snr_db / 10.0)
    return SystemConfig(K=10, Nrx=n_ant, Ntx=n_ant, T=200, tau=20,
                        Pp=ps, Ps=ps, Pr=10.0 * ps, sigma_li_sq=1.0)


def _mc_fig_op(seed: int, index: int, n_ant: int, snr_db: float) -> Op:
    cfg = _grid_cfg(n_ant, snr_db)
    prof = make_profile(np.ones(cfg.K), np.ones(cfg.K), cfg.tau, cfg.Pp)
    streams = _seq(seed, index).spawn(4)

    def run():
        out = {}
        for i, scheme in enumerate(("zf", "mr")):
            closed = getattr(rates, f"rate_{scheme}")(cfg, prof)
            bound = montecarlo.mc_rate(cfg, prof, scheme, MC_FIG_TRIALS,
                                       np.random.default_rng(streams[2 * i]))
            genie = montecarlo.genie_rates(cfg, prof, scheme, MC_FIG_TRIALS,
                                           np.random.default_rng(streams[2 * i + 1]))
            out[scheme] = (closed, bound, genie)
        return out

    def check(out):
        for scheme, (closed, bound, genie) in out.items():
            if not _finite(closed.r_e2e, bound.r_e2e, genie.r_e2e,
                           bound.stderr_sum_rate, genie.stderr_sum_rate):
                return f"{scheme}: non-finite rate"
            gap_se = math.hypot(bound.stderr_sum_rate, genie.stderr_sum_rate)
            if genie.sum_rate < bound.sum_rate - 3.0 * gap_se:
                return (f"{scheme}: genie {genie.sum_rate:.4f} below bound "
                        f"{bound.sum_rate:.4f} by more than 3 stderr")
        # the ZF closed form is an approximation (README, known red test)
        closed, bound, _ = out["mr"]
        z = abs(float(np.sum(closed.r_e2e)) - bound.sum_rate) / bound.stderr_sum_rate
        if z > Z_LIMIT:
            return f"mr: closed form {z:.1f} stderr from simulation"
        return None

    return Op(f"mc_fig N={n_ant} snr={snr_db}dB", run, check)


def _mc_fig_pass(seed: int, first: int, scratch: str):
    points = [(n, s) for n in MC_FIG_SIZES for s in MC_FIG_SNR_DB]
    return [_mc_fig_op(seed, first + i, n, s) for i, (n, s) in enumerate(points)]


# --- mc_identity: processing moment identities and large-array probes

IDENTITY_SIZES = ((2, 16), (5, 64), (10, 128))
IDENTITY_TRIALS = 600
WISHART_TRIALS = 2000
PROBE_SIZES = (64, 256, 1024)
PROBE_TRIALS = 100


def _identity_setup(k: int, n: int):
    cfg = SystemConfig(K=k, Nrx=n, Ntx=n, T=200, tau=2 * k,
                       Pp=4.0, Ps=1.0, Pr=2.0, sigma_li_sq=2.0)
    prof = make_profile(np.linspace(0.6, 1.8, k), np.linspace(1.5, 0.7, k),
                        cfg.tau, cfg.Pp)
    return cfg, prof


def _within(name: str, err, stderr) -> Optional[str]:
    if not _finite(err, stderr) or np.any(np.asarray(stderr) <= 0):
        return f"{name}: non-finite moment or zero stderr"
    worst = float(np.max(np.abs(err) / stderr))
    return f"{name}: {worst:.1f} stderr from its identity" if worst > Z_LIMIT else None


def _wishart_op(seed: int, index: int, k: int, n: int) -> Op:
    _, prof = _identity_setup(k, n)

    def run():
        return montecarlo.wishart_inverse_moment(n, prof.sigma_sr_sq, WISHART_TRIALS,
                                                 _rng(seed, index))

    def check(out):
        mean, stderr = out
        return _within("inverse-Gram diagonal",
                       mean - 1.0 / ((n - k) * prof.sigma_sr_sq), stderr)

    return Op(f"wishart K={k} N={n}", run, check)


def _bound_op(seed: int, index: int, k: int, n: int, scheme: str) -> Op:
    cfg, prof = _identity_setup(k, n)

    def run():
        return montecarlo.mc_rate(cfg, prof, scheme, IDENTITY_TRIALS, _rng(seed, index))

    def check(out):
        t = out.sr_terms
        if scheme == "zf":
            return _within("ZF receive gain", np.abs(t.mean_gain) - 1.0,
                           t.stderr_mean_gain)
        base = n * prof.sigma_sr_sq
        return _first_failure((
            _within("MR mean", np.abs(t.mean_gain) - base, t.stderr_mean_gain),
            _within("MR variance", t.var_gain - base * prof.beta_sr, t.stderr_var_gain),
            _within("MR interpair",
                    t.multipair - base * (np.sum(prof.beta_sr) - prof.beta_sr),
                    t.stderr_multipair),
            _within("MR loop", t.loop - cfg.sigma_li_sq * base, t.stderr_loop),
            _within("MR noise", t.noise - base, t.stderr_noise),
        ))

    return Op(f"mc_rate {scheme} K={k} N={n}", run, check)


def _probe_ops(seed: int, first: int, kind: str, scheme: str, sizes=PROBE_SIZES):
    """One op per array size; the last op's check fits the log-log slope."""
    prof = make_profile(np.linspace(0.8, 1.2, 4), np.ones(4), 8, 4.0)
    values = {}
    ops = []
    for i, size in enumerate(sizes):
        if kind == "decode":
            cfg = SystemConfig(K=4, Nrx=size, Ntx=64, T=200, tau=8,
                               Pp=4.0, Ps=1.0, Pr=10.0, sigma_li_sq=1.0)
            er = None
        else:
            cfg = SystemConfig(K=4, Nrx=64, Ntx=size, T=200, tau=8,
                               Pp=4.0, Ps=1.0, Pr=1.0, sigma_li_sq=1.0)
            er = 40.0

        def run(cfg=cfg, er=er, index=first + i):
            return montecarlo.convergence_probe(kind, cfg, prof, scheme, PROBE_TRIALS,
                                                _rng(seed, index), er=er)

        def check(value, size=size):
            if not (math.isfinite(value) and value > 0):
                return f"{kind} probe: value {value!r} at N={size}"
            values[size] = value
            if len(sizes) < 2 or len(values) < len(sizes):
                return None
            slope = np.polyfit(np.log(sizes), np.log([values[s] for s in sizes]), 1)[0]
            return f"{kind} probe: log-log slope {slope:.3f}" if slope >= -0.5 else None

        ops.append(Op(f"probe {kind} {scheme} N={size}", run, check))
    return ops


def _identity_pass(seed: int, first: int, scratch: str):
    ops = []
    for k, n in IDENTITY_SIZES:
        ops.append(_wishart_op(seed, first + len(ops), k, n))
        for scheme in ("zf", "mr"):
            ops.append(_bound_op(seed, first + len(ops), k, n, scheme))
    for kind in ("decode", "loop_power"):
        # the group's scheme comes from its first op's seed stream
        scheme = ("zf", "mr")[int(_rng(seed, first + len(ops)).integers(2))]
        ops += _probe_ops(seed, first + len(ops), kind, scheme)
    return ops


def _identity_warmup(seed: int, scratch: str) -> Op:
    k, n = IDENTITY_SIZES[0]
    return _all_of("mc_identity warm-up", [
        _wishart_op(seed, WARMUP_INDEX, k, n),
        _bound_op(seed, WARMUP_INDEX, k, n, "zf"),
        _bound_op(seed, WARMUP_INDEX, k, n, "mr"),
        *_probe_ops(seed, WARMUP_INDEX, "decode", "zf", PROBE_SIZES[:1]),
        *_probe_ops(seed, WARMUP_INDEX, "loop_power", "mr", PROBE_SIZES[:1]),
    ])


# --- alloc: minimum-power allocation in the fig9 setting

# optimize_powers is deterministic and its cost jumps up to 2.5x between
# targets 0.5 bit/s/Hz apart, so the seed orders a fixed target set instead
# of drawing targets: both ends and the middle of 2-14 bit/s/Hz. 8 lies
# between the feasibility hints of the schemes (about 7.8 for MR, 8.2 for
# ZF) and 14 above both.
ALLOC_TARGETS = (2.0, 8.0, 14.0)
ALLOC_P0, ALLOC_P1 = 10.0, 100.0


def _alloc_op(scheme: str, s0: float) -> Op:
    cfg = SystemConfig(K=10, Nrx=200, Ntx=200, T=200, tau=20, Pp=10.0,
                       sigma_li_sq=10.0)
    prof = snapshot_profile(cfg.tau, cfg.Pp)
    peak = replace(cfg, Ps=ALLOC_P0, Pr=ALLOC_P1)
    se_uniform = getattr(rates, f"rate_{scheme}")(peak, prof).sum_se
    ee_uniform = powalloc.energy_efficiency(
        se_uniform, np.full(cfg.K, ALLOC_P0), ALLOC_P1, cfg.T, cfg.tau)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return powalloc.optimize_powers(cfg, prof, scheme, s0,
                                            p0=ALLOC_P0, p1=ALLOC_P1)

    def check(a):
        if a.status != "optimal":
            return f"status {a.status}"
        if not _finite(a.p_s, a.p_r, a.achieved_se, a.ee):
            return "non-finite allocation"
        if abs(a.achieved_se - s0) > 0.02 * s0:
            return f"achieved SE {a.achieved_se:.4f} for target {s0}"
        if np.any(a.p_s < 0) or np.any(a.p_s > ALLOC_P0 * (1 + 1e-6)) \
                or not 0.0 <= a.p_r <= ALLOC_P1 * (1 + 1e-6):
            return "powers outside their peaks"
        if not a.ee > ee_uniform:
            return f"EE {a.ee:.5f} not above uniform-peak {ee_uniform:.5f}"
        return None

    return Op(f"alloc {scheme} s0={s0}", run, check)


def _alloc_pass(seed: int, first: int, scratch: str):
    calls = [(scheme, s0) for scheme in ("zf", "mr") for s0 in ALLOC_TARGETS]
    order = _rng(seed, first).permutation(len(calls))
    return [_alloc_op(*calls[i]) for i in order]


# --- cli_sweeps: in-process CLI runs of small presets and custom sweeps

def _cli_op(name: str, argv: list, out_dir: str) -> Op:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", "--out", out_dir] + argv)

    def check(code):
        if code != 0:
            return f"exit code {code}"
        names = sorted(os.listdir(out_dir))
        if not any(f.endswith(".manifest.json") for f in names):
            return "no manifest written"
        for f in names:
            if not f.endswith(".csv"):
                continue
            with open(os.path.join(out_dir, f), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            try:
                if not rows or not all(math.isfinite(float(c)) for r in rows for c in r):
                    return f"{f}: empty table or non-finite cell"
            except ValueError:
                return f"{f}: non-numeric cell"
        return None

    return Op(name, run, check)


def _replay_op(source_dir: str, out_dir: str) -> Op:
    def run():
        # the source op of the same pass has written its manifest by now
        manifest = next(os.path.join(source_dir, f) for f in os.listdir(source_dir)
                        if f.endswith(".manifest.json"))
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", "--manifest", manifest, "--out", out_dir])

    def check(code):
        if code != 0:
            return f"replay exit code {code}"
        names = sorted(os.listdir(source_dir))
        if names != sorted(os.listdir(out_dir)):
            return "replay wrote other files"
        for f in names:
            with open(os.path.join(source_dir, f), "rb") as a, \
                    open(os.path.join(out_dir, f), "rb") as b:
                if a.read() != b.read():
                    return f"replay of {f} differs"
        return None

    return Op("replay", run, check)


CUSTOM_SWEEPS = (  # field, start range, stop range, scale
    ("n_ant", (3.5, 5.0), (7.0, 9.0), "log2"),
    ("ps_db", (-20.0, 0.0), (10.0, 30.0), "linear"),
    ("pr_db", (-10.0, 5.0), (15.0, 30.0), "db"),
    ("sigma_li_db", (-20.0, 0.0), (5.0, 20.0), "linear"),
    ("pp_db", (-10.0, 5.0), (10.0, 20.0), "db"),
)


def _cli_args(preset: str, rng: np.random.Generator) -> list:
    """Overrides stay where every preset completes; fig4 aborts on an unreachable target."""
    if preset == "fig4":  # targets up to 2 bit/use stay reachable at every N
        return ["--preset", "fig4",
                "--set", f"target_rate={rng.uniform(0.5, 2.0):.4f}",
                "--set", f"pp_fixed_db={rng.uniform(5.0, 20.0):.3f}"]
    if preset == "fig6":
        return ["--preset", "fig6", "--set", f"nrx={int(rng.integers(16, 257))}"]
    if preset == "fig7":
        return ["--preset", "fig7", "--set", f"sigma_li_db={rng.uniform(-10.0, 20.0):.3f}"]
    if preset == "fig8":
        return ["--preset", "fig8", "--trials", str(int(rng.integers(20, 61))),
                "--seed", str(int(rng.integers(2**31))),
                "--set", f"shadow_sigma_db={rng.uniform(4.0, 10.0):.3f}"]
    field, lo, hi, scale = CUSTOM_SWEEPS[int(rng.integers(len(CUSTOM_SWEEPS)))]
    sweep = (f"{field}:{rng.uniform(*lo):.4f}:{rng.uniform(*hi):.4f}:"
             f"{int(rng.integers(4, 25))}:{scale}")
    return ["--preset", "custom", "--set", f"sweep={sweep}"]


CLI_PRESETS = ("fig4", "fig6", "fig7", "fig8", "custom", "custom")


def _cli_pass(seed: int, first: int, scratch: str):
    ops = []
    for i, preset in enumerate(CLI_PRESETS):
        out = os.path.join(scratch, f"op{first + i}")
        ops.append(_cli_op(preset, _cli_args(preset, _rng(seed, first + i)), out))
    index = first + len(ops)
    source = os.path.join(scratch, f"op{first + int(_rng(seed, index).integers(len(ops)))}")
    ops.append(_replay_op(source, os.path.join(scratch, f"op{index}")))
    return ops


def _cli_warmup(seed: int, scratch: str) -> Op:
    return _cli_op("custom", ["--preset", "custom", "--set", "sweep=n_ant:4:6:3:log2"],
                   os.path.join(scratch, "warmup"))


WORKLOADS = {w.name: w for w in (
    Workload("mc_fig", 5.0, _mc_fig_pass,
             lambda seed, scratch: _mc_fig_op(seed, WARMUP_INDEX, MC_FIG_SIZES[0], 0)),
    Workload("mc_identity", 3.6, _identity_pass, _identity_warmup),
    Workload("alloc", 24.0, _alloc_pass,
             lambda seed, scratch: _alloc_op("zf", ALLOC_TARGETS[0])),
    Workload("cli_sweeps", 0.075, _cli_pass, _cli_warmup),
)}
