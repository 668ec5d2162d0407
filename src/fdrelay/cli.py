"""Experiment runner.

Each preset binds one experiment family at desk scale (shared setup: T=200,
K=10, tau=2K, Ntx=Nrx, SNR means Ps) and writes CSV series plus a JSON
manifest holding everything needed to reproduce the run. Re-running a
manifest regenerates byte-identical files: every Monte Carlo sweep draws
from its own seed stream keyed by (seed, array size index, scheme index),
and every urban drop from (seed, drop index), so results do not depend on
execution order or chunking.

    fdrelay run --preset fig3 --seed 1 --trials 2000 --out results/
    fdrelay run --manifest results/fig3.manifest.json --out verify/

Overrides (--set key=value) use flat lower-case keys mirroring the config
fields; keys with a _db suffix are converted to linear scale at parse time.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .model import DropGeometry, SystemConfig, draw_urban_profile, make_profile, snapshot_profile
from .montecarlo import simulate
from .powalloc import energy_efficiency, optimize_powers
from .rates import rate_mr, rate_zf, required_power

PRESET_TRIALS = {
    "fig2": 2000, "fig3": 2000, "fig4": 1, "fig6": 1, "fig7": 1,
    "fig8": 1000, "fig9": 1, "custom": 1,
}

_CONFIG_KEYS = {
    "k": "K", "nrx": "Nrx", "ntx": "Ntx", "t": "T", "tau": "tau",
    "pp": "Pp", "ps": "Ps", "pr": "Pr", "sigma_li_sq": "sigma_li_sq",
}
_INTEGER_KEYS = {"k", "nrx", "ntx", "t", "tau", "n_ant"}
_DB_KEYS = {"pp_db": "Pp", "ps_db": "Ps", "pr_db": "Pr",
            "sigma_li_db": "sigma_li_sq"}
_EXTRA_KEYS = ("target_rate", "pp_fixed_db", "p0_db", "p1_db", "sweep",
               "disk_diameter", "shadow_sigma_db", "path_exponent",
               "ref_distance")


@dataclass(frozen=True)
class RunSpec:
    preset: str
    seed: int
    trials: int
    overrides: dict
    out_dir: str


def _db(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _value(key: str, raw) -> float | int:
    """An override value; integer keys take integral spellings only (64, 64.0)."""
    x = float(raw)
    if key not in _INTEGER_KEYS:
        return x
    if not x.is_integer():
        raise ValueError(f"override {key}={raw} is not an integer")
    return int(x)


def _apply_overrides(cfg: SystemConfig, overrides: dict) -> SystemConfig:
    fields = {}
    for key, raw in overrides.items():
        if key in _CONFIG_KEYS:
            fields[_CONFIG_KEYS[key]] = _value(key, raw)
        elif key in _DB_KEYS:
            fields[_DB_KEYS[key]] = _db(float(raw))
        elif key == "n_ant":
            fields["Nrx"] = fields["Ntx"] = _value(key, raw)
        elif key not in _EXTRA_KEYS:
            raise ValueError(f"unknown override key {key!r}")
    return replace(cfg, **fields) if fields else cfg


def _extra(overrides: dict, key: str, default: float) -> float:
    return float(overrides[key]) if key in overrides else default


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


def _flat_profile(cfg: SystemConfig):
    ones = np.ones(cfg.K)
    return make_profile(ones, ones, cfg.tau, cfg.Pp)


def _base_cfg(n_ant: int = 100, **kw) -> SystemConfig:
    return SystemConfig(K=10, Nrx=n_ant, Ntx=n_ant, T=200, tau=20, **kw)


_SE_HEADER = [f"se_{mode}_{s}" for s in ("zf", "mr") for mode in ("fd", "hd", "hybrid")]


def _se_columns(cfg: SystemConfig, profile) -> list:
    out = []
    for fn in (rate_zf, rate_mr):
        fd = fn(cfg, profile, mode="fd").sum_se
        hd = fn(cfg, profile, mode="hd").sum_se
        out += [fd, hd, max(fd, hd)]
    return out


# fields _mc_sweep sets per row: the array size, Ps (the SNR) and Pr = K Ps
_MC_SWEPT_KEYS = ("n_ant", "nrx", "ntx", "ps", "ps_db", "pr", "pr_db")


def _mc_sweep(spec: RunSpec, sizes, schemes, genie: bool) -> tuple:
    """Closed-form and simulated sum rates over SNR: one simulate call per
    (size, scheme) on seed stream (seed, size index, scheme index), so
    presets that share a size and a scheme share its cells."""
    for key in _MC_SWEPT_KEYS:
        if key in spec.overrides:
            raise ValueError(f"{spec.preset} sweeps the array size and SNR "
                             f"(Pr = K Ps); override {key!r} is not allowed")
    header = ["snr_db", "n_ant"]
    for s in schemes:
        header += [f"sum_rate_{s}_closed", f"sum_rate_{s}_mc", f"sum_rate_{s}_mc_stderr"]
        if genie:
            header += [f"sum_rate_{s}_genie", f"sum_rate_{s}_genie_stderr"]
    snrs_db = (-10, -5, 0, 5, 10)
    rows = []
    for i, n_ant in enumerate(sizes):
        points = []
        for snr_db in snrs_db:
            ps = _db(snr_db)
            cfg = _apply_overrides(_base_cfg(
                n_ant, Pp=ps, Ps=ps, Pr=10 * ps, sigma_li_sq=1.0),
                spec.overrides)
            cfg = replace(cfg, Pr=cfg.K * cfg.Ps)
            points.append((cfg, _flat_profile(cfg)))
        block = [[snr_db, n_ant] for snr_db in snrs_db]
        for j, (fn, scheme) in enumerate(((rate_zf, "zf"), (rate_mr, "mr"))):
            if scheme not in schemes:
                continue
            results = simulate(points, scheme, spec.trials, _rng(spec.seed, i, j))
            for row, (cfg, profile), (mc, gen) in zip(block, points, results):
                row += [float(np.sum(fn(cfg, profile).r_e2e)), mc.sum_rate,
                        mc.stderr_sum_rate]
                if genie:
                    row += [gen.sum_rate, gen.stderr_sum_rate]
        rows += block
    return header, rows


def _run_fig2(spec: RunSpec):
    return {"fig2.csv": _mc_sweep(spec, (50, 100), ("zf", "mr"), genie=True)}


def _run_fig3(spec: RunSpec):
    return {"fig3.csv": _mc_sweep(spec, (50, 100, 200), ("zf",), genie=False)}


def _run_fig4(spec: RunSpec):
    target = _extra(spec.overrides, "target_rate", 1.0)
    pp_fixed = _db(_extra(spec.overrides, "pp_fixed_db", 10.0))
    header = ["n_ant"]
    for s in ("zf", "mr"):
        header += [f"ps_req_db_{s}_fixed_pp", f"ps_req_db_{s}_pp_tracks"]
    rows = []
    for n_ant in (64, 128, 256, 512):
        cfg = _apply_overrides(_base_cfg(
            n_ant, Pp=pp_fixed, Ps=1.0, Pr=10.0, sigma_li_sq=1.0),
            spec.overrides)
        profile = _flat_profile(cfg)
        row = [n_ant]
        for scheme in ("zf", "mr"):
            for tracks in (False, True):
                ps = required_power(target, scheme, cfg, profile,
                                    pilot_tracks_data=tracks)
                row.append(10.0 * math.log10(ps))
        rows.append(row)
    return {"fig4.csv": (header, rows)}


def _run_fig6(spec: RunSpec):
    header = ["sigma_li_db"] + _SE_HEADER
    rows = []
    p = _db(10.0)
    for li_db in range(-10, 22, 2):
        cfg = _apply_overrides(_base_cfg(
            100, Pp=p, Ps=p, Pr=p, sigma_li_sq=_db(li_db)), spec.overrides)
        rows.append([li_db] + _se_columns(cfg, _flat_profile(cfg)))
    return {"fig6.csv": (header, rows)}


def _run_fig7(spec: RunSpec):
    header = ["n_ant"] + _SE_HEADER
    rows = []
    p = _db(10.0)
    for n_ant in (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512):
        cfg = _apply_overrides(_base_cfg(
            n_ant, Pp=p, Ps=p, Pr=p, sigma_li_sq=_db(10.0)), spec.overrides)
        rows.append([n_ant] + _se_columns(cfg, _flat_profile(cfg)))
    return {"fig7.csv": (header, rows)}


def _run_fig8(spec: RunSpec):
    header = ["drop"] + _SE_HEADER
    p = _db(10.0)
    cfg = _apply_overrides(_base_cfg(
        200, Pp=p, Ps=p, Pr=p, sigma_li_sq=_db(10.0)), spec.overrides)
    geometry = DropGeometry(
        disk_diameter=_extra(spec.overrides, "disk_diameter", 1000.0),
        shadow_sigma_db=_extra(spec.overrides, "shadow_sigma_db", 8.0),
        path_exponent=_extra(spec.overrides, "path_exponent", 3.8),
        ref_distance=_extra(spec.overrides, "ref_distance", 200.0))
    rows = []
    for drop in range(spec.trials):
        profile = draw_urban_profile(geometry, cfg.K, cfg.tau, cfg.Pp,
                                     _rng(spec.seed, drop))
        rows.append([drop] + _se_columns(cfg, profile))
    return {"fig8.csv": (header, rows)}


def _run_fig9(spec: RunSpec):
    p0 = _db(_extra(spec.overrides, "p0_db", 10.0))
    p1 = _db(_extra(spec.overrides, "p1_db", 20.0))
    cfg = _apply_overrides(_base_cfg(
        200, Pp=_db(10.0), Ps=p0, Pr=p1, sigma_li_sq=_db(10.0)),
        spec.overrides)
    if cfg.K != 10:
        raise ValueError("the allocation preset uses the fixed K=10 snapshot profile")
    profile = snapshot_profile(cfg.tau, cfg.Pp)
    header = ["target_se"]
    for s in ("zf", "mr"):
        header += [f"feasible_{s}", f"converged_{s}", f"iterations_{s}",
                   f"total_power_{s}", f"achieved_se_{s}", f"ee_opt_{s}",
                   f"se_uniform_{s}", f"ee_uniform_{s}"]
    uniform = {}
    peak = replace(cfg, Ps=p0, Pr=p1)
    for scheme, fn in (("zf", rate_zf), ("mr", rate_mr)):
        se = fn(peak, profile).sum_se
        uniform[scheme] = (se, energy_efficiency(
            se, np.full(cfg.K, p0), p1, cfg.T, cfg.tau))
    rows = []
    for s0 in range(2, 15):
        row = [s0]
        for scheme in ("zf", "mr"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alloc = optimize_powers(cfg, profile, scheme, float(s0),
                                        p0=p0, p1=p1)
            feasible = alloc.status != "infeasible"
            total = float(np.sum(alloc.p_s)) + alloc.p_r if feasible else 0.0
            row += [int(feasible), int(alloc.converged), alloc.iterations,
                    total, alloc.achieved_se, alloc.ee,
                    uniform[scheme][0], uniform[scheme][1]]
        rows.append(row)
    return {"fig9.csv": (header, rows)}


def _run_custom(spec: RunSpec):
    sweep = spec.overrides.get("sweep")
    if not sweep:
        raise ValueError("custom preset needs --set sweep=field:start:stop:points[:scale]")
    parts = str(sweep).split(":")
    if len(parts) not in (4, 5):
        raise ValueError("sweep spec is field:start:stop:points[:scale]")
    field, start, stop, points = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    scale = parts[4] if len(parts) == 5 else "linear"
    if points < 1:
        raise ValueError("sweep needs at least one point")
    if scale in ("linear", "db"):
        values = np.linspace(start, stop, points)
    elif scale == "log2":
        values = np.logspace(start, stop, points, base=2.0)
    else:
        raise ValueError(f"unknown sweep scale {scale!r}")
    valid = set(_CONFIG_KEYS) | set(_DB_KEYS) | {"n_ant"}
    if field not in valid:
        raise ValueError(f"sweep field {field!r} is not a config field")
    header = [field] + _SE_HEADER
    base = _apply_overrides(_base_cfg(100, Pp=10.0, Ps=10.0, Pr=10.0,
                                      sigma_li_sq=1.0), spec.overrides)
    rows = []
    for v in values:
        # integer fields take the floor of each grid point, in the table too
        point = math.floor(v) if field in _INTEGER_KEYS else float(v)
        cfg = _apply_overrides(base, {field: point})
        rows.append([point] + _se_columns(cfg, _flat_profile(cfg)))
    return {"custom.csv": (header, rows)}


_PRESETS = {
    "fig2": (_run_fig2, "rate bound and genie sum rates vs SNR (Monte Carlo)"),
    "fig3": (_run_fig3, "ZF closed form vs Monte Carlo sum rate (tightness)"),
    "fig4": (_run_fig4, "source power required for 1 bit/use per pair vs array size"),
    "fig6": (_run_fig6, "FD/HD/hybrid sum SE vs loop interference level"),
    "fig7": (_run_fig7, "FD/HD/hybrid sum SE vs number of antennas"),
    "fig8": (_run_fig8, "sum SE distribution over random urban drops"),
    "fig9": (_run_fig9, "energy efficiency vs target sum SE under power allocation"),
    "custom": (_run_custom, "closed-form SE along a user-chosen config sweep"),
}


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            raise ValueError("non-finite value in results table")
        return repr(f)
    return str(v)


def run_spec(spec: RunSpec) -> list:
    """Execute the preset and write its CSVs and manifest; returns paths."""
    if spec.preset not in _PRESETS:
        raise ValueError(f"unknown preset {spec.preset!r}")
    if spec.trials < 1:
        raise ValueError("trials must be >= 1")
    tables = _PRESETS[spec.preset][0](spec)
    os.makedirs(spec.out_dir, exist_ok=True)
    written = []
    for name, (header, rows) in sorted(tables.items()):
        path = os.path.join(spec.out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
        written.append(path)
    manifest = {
        "preset": spec.preset,
        "seed": spec.seed,
        "trials": spec.trials,
        "overrides": {k: str(v) for k, v in sorted(spec.overrides.items())},
        "outputs": sorted(tables),
        "version": __version__,
    }
    mpath = os.path.join(spec.out_dir, f"{spec.preset}.manifest.json")
    with open(mpath, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return written + [mpath]


def spec_from_manifest(path: str, out_dir: str) -> RunSpec:
    with open(path) as fh:
        data = json.load(fh)
    return RunSpec(preset=data["preset"], seed=int(data["seed"]),
                   trials=int(data["trials"]),
                   overrides=dict(data.get("overrides", {})), out_dir=out_dir)


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fdrelay", description="Run relaying experiments to CSV.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one preset")
    run.add_argument("--preset", choices=sorted(_PRESETS),
                     help="experiment family: "
                          + "; ".join(f"{k}: {v[1]}" for k, v in sorted(_PRESETS.items())))
    run.add_argument("--manifest", help="re-run from a manifest JSON file")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="config override (repeatable)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trials", type=int, default=None,
                     help="Monte Carlo trials or drops (preset default otherwise)")
    run.add_argument("--out", default=None,
                     help="output directory (default $FDRELAY_OUT or ./results)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    out_dir = args.out or os.environ.get("FDRELAY_OUT") or "results"
    try:
        if args.manifest and args.preset:
            raise ValueError("use either --preset or --manifest, not both")
        if args.manifest:
            spec = spec_from_manifest(args.manifest, out_dir)
        else:
            if not args.preset:
                raise ValueError("one of --preset or --manifest is required")
            overrides = {}
            for item in args.overrides:
                if "=" not in item:
                    raise ValueError(f"override {item!r} is not KEY=VALUE")
                key, value = item.split("=", 1)
                overrides[key.strip().lower()] = value.strip()
            trials = args.trials if args.trials is not None \
                else PRESET_TRIALS[args.preset]
            spec = RunSpec(preset=args.preset, seed=args.seed, trials=trials,
                           overrides=overrides, out_dir=out_dir)
        for path in run_spec(spec):
            print(path)
        return 0
    except Exception as exc:  # one machine-readable line on any failure
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
