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
fields; a _db key other than shadow_sigma_db is converted to linear scale at
parse time. A preset refuses an override of a field it sets itself and an
extra key it does not read, and a failed run writes no file. A manifest
replay takes its seed, trials and overrides from the manifest alone, so it
refuses --set, --trials and --seed.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .model import DropGeometry, SystemConfig, draw_urban_profile, make_profile, snapshot_profile
from .montecarlo import simulate
from .powalloc import energy_efficiency, optimize_powers
from .rates import rate_mr, rate_zf, required_power

# the config fields each override key sets; keys ending in _db are in dB
_KEY_FIELDS = {
    "k": ("K",), "nrx": ("Nrx",), "ntx": ("Ntx",), "n_ant": ("Nrx", "Ntx"),
    "t": ("T",), "tau": ("tau",), "pp": ("Pp",), "ps": ("Ps",), "pr": ("Pr",),
    "sigma_li_sq": ("sigma_li_sq",), "pp_db": ("Pp",), "ps_db": ("Ps",),
    "pr_db": ("Pr",), "sigma_li_db": ("sigma_li_sq",),
}
_INTEGER_KEYS = {"k", "nrx", "ntx", "t", "tau", "n_ant"}
_GEOMETRY = {f.name: f.default for f in fields(DropGeometry)}


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
    if key.endswith("_db") and key not in _GEOMETRY:
        return _db(x)
    if key not in _INTEGER_KEYS:
        return x
    if not x.is_integer():
        raise ValueError(f"override {key}={raw} is not an integer")
    return int(x)


def _apply_overrides(cfg: SystemConfig, overrides: dict) -> SystemConfig:
    """cfg with the config keys of overrides set (run_spec vets every key)."""
    fields = {}
    for key, raw in overrides.items():
        for name in _KEY_FIELDS.get(key, ()):
            fields[name] = _value(key, raw)
    return replace(cfg, **fields) if fields else cfg


def _reject_swept(spec: RunSpec, keys) -> None:
    """Refuse an override of a config field that the preset sets itself."""
    swept = {name for key in keys for name in _KEY_FIELDS[key]}
    for key in spec.overrides:
        if swept.intersection(_KEY_FIELDS.get(key, ())):
            raise ValueError(f"{spec.preset} sets {'/'.join(sorted(swept))} itself; "
                             f"override {key!r} is not allowed")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


def _flat_profile(k: int, tau: int, pp: float):
    ones = np.ones(k)
    return make_profile(ones, ones, tau, pp)


def _base_cfg(n_ant: int = 100, **kw) -> SystemConfig:
    return SystemConfig(K=10, Nrx=n_ant, Ntx=n_ant, T=200, tau=20, **kw)


_SE_HEADER = [f"se_{mode}_{s}" for s in ("zf", "mr") for mode in ("fd", "hd", "hybrid")]


def _se_columns(cfgs, profiles) -> list:
    """_SE_HEADER rows of points of one K: one rate call per scheme and mode."""
    columns = []
    for fn in (rate_zf, rate_mr):
        fd = fn(cfgs, profiles, mode="fd").sum_se.tolist()
        hd = fn(cfgs, profiles, mode="hd").sum_se.tolist()
        columns += [fd, hd, list(map(max, fd, hd))]
    return [list(row) for row in zip(*columns)]


def _se_rows(cfgs, profiles) -> list:
    """_se_columns with one batch per run of equal K (a k sweep changes K)."""
    runs = itertools.groupby(zip(cfgs, profiles), key=lambda point: point[0].K)
    return [row for _, run in runs for row in _se_columns(*zip(*run))]


def _sweep(spec: RunSpec, base: SystemConfig, field: str, values, header,
           columns) -> tuple:
    """One row per value of the config key field: the overrides apply to
    base, then the row's value, after refusing any override of its fields.
    columns maps the row configs and their flat profiles to rows of cells."""
    _reject_swept(spec, (field,))
    base = _apply_overrides(base, spec.overrides)
    cfgs = [_apply_overrides(base, {field: v}) for v in values]
    flat = functools.cache(_flat_profile)  # each distinct profile once per sweep
    rows = columns(cfgs, [flat(cfg.K, cfg.tau, cfg.Pp) for cfg in cfgs])
    return [field] + header, [[v] + row for v, row in zip(values, rows)]


def _mc_sweep(spec: RunSpec, sizes, schemes, genie: bool) -> tuple:
    """Closed-form and simulated sum rates over SNR: one simulate call per
    (size, scheme) on seed stream (seed, size index, scheme index), so
    presets that share a size and a scheme share its cells; one closed-form
    call per scheme. Each row sets the array size, Ps (the SNR) and Pr = K Ps."""
    _reject_swept(spec, ("n_ant", "ps", "pr"))
    header = ["snr_db", "n_ant"]
    for s in schemes:
        header += [f"sum_rate_{s}_closed", f"sum_rate_{s}_mc", f"sum_rate_{s}_mc_stderr"]
        if genie:
            header += [f"sum_rate_{s}_genie", f"sum_rate_{s}_genie_stderr"]
    snrs_db = (-10, -5, 0, 5, 10)
    rows, points, sims = [], [], {scheme: [] for scheme in schemes}
    for i, n_ant in enumerate(sizes):
        block = []
        for snr_db in snrs_db:
            ps = _db(snr_db)
            cfg = _apply_overrides(_base_cfg(n_ant, Pp=ps, Ps=ps, sigma_li_sq=1.0),
                                   spec.overrides)
            cfg = replace(cfg, Pr=cfg.K * cfg.Ps)
            block.append((cfg, _flat_profile(cfg.K, cfg.tau, cfg.Pp)))
            rows.append([snr_db, n_ant])
        for j, scheme in enumerate(("zf", "mr")):
            if scheme in schemes:
                sims[scheme] += simulate(block, scheme, spec.trials, _rng(spec.seed, i, j))
        points += block
    cfgs, profiles = zip(*points)
    for fn, scheme in ((rate_zf, "zf"), (rate_mr, "mr")):
        if scheme not in schemes:
            continue
        closed = np.sum(fn(cfgs, profiles).r_e2e, axis=-1).tolist()
        for row, sum_rate, (mc, gen) in zip(rows, closed, sims[scheme]):
            row += [sum_rate, mc.sum_rate, mc.stderr_sum_rate]
            if genie:
                row += [gen.sum_rate, gen.stderr_sum_rate]
    return header, rows


def _run_fig2(spec: RunSpec):
    return {"fig2.csv": _mc_sweep(spec, (50, 100), ("zf", "mr"), genie=True)}


def _run_fig3(spec: RunSpec):
    return {"fig3.csv": _mc_sweep(spec, (50, 100, 200), ("zf",), genie=False)}


def _run_fig4(spec: RunSpec):
    # required_power sets Ps, and Pr = K Ps, at every bisection step
    _reject_swept(spec, ("ps", "pr"))
    target = _value("target_rate", spec.overrides.get("target_rate", 1.0))
    pp_fixed = _value("pp_fixed_db", spec.overrides.get("pp_fixed_db", 10.0))
    header = [f"ps_req_db_{s}_{pp}" for s in ("zf", "mr")
              for pp in ("fixed_pp", "pp_tracks")]

    def columns(cfgs, profiles):
        return [[10.0 * math.log10(required_power(target, scheme, cfg, profile,
                                                  pilot_tracks_data=tracks))
                 for scheme in ("zf", "mr") for tracks in (False, True)]
                for cfg, profile in zip(cfgs, profiles)]

    base = _base_cfg(Pp=pp_fixed, Ps=1.0, Pr=10.0, sigma_li_sq=1.0)
    return {"fig4.csv": _sweep(spec, base, "n_ant", (64, 128, 256, 512),
                               header, columns)}


def _run_fig6(spec: RunSpec):
    p = _db(10.0)
    base = _base_cfg(Pp=p, Ps=p, Pr=p)
    return {"fig6.csv": _sweep(spec, base, "sigma_li_db", range(-10, 22, 2),
                               _SE_HEADER, _se_rows)}


def _run_fig7(spec: RunSpec):
    p = _db(10.0)
    base = _base_cfg(Pp=p, Ps=p, Pr=p, sigma_li_sq=_db(10.0))
    sizes = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
    return {"fig7.csv": _sweep(spec, base, "n_ant", sizes, _SE_HEADER, _se_rows)}


def _run_fig8(spec: RunSpec):
    header = ["drop"] + _SE_HEADER
    p = _db(10.0)
    cfg = _apply_overrides(_base_cfg(
        200, Pp=p, Ps=p, Pr=p, sigma_li_sq=_db(10.0)), spec.overrides)
    geometry = DropGeometry(**{key: _value(key, spec.overrides.get(key, default))
                               for key, default in _GEOMETRY.items()})
    profiles = [draw_urban_profile(geometry, cfg.K, cfg.tau, cfg.Pp, _rng(spec.seed, drop))
                for drop in range(spec.trials)]
    rows = _se_columns([cfg] * spec.trials, profiles)
    return {"fig8.csv": (header, [[drop] + row for drop, row in enumerate(rows)])}


def _run_fig9(spec: RunSpec):
    # the allocator chooses the powers under the peaks p0_db and p1_db
    _reject_swept(spec, ("ps", "pr"))
    p0 = _value("p0_db", spec.overrides.get("p0_db", 10.0))
    p1 = _value("p1_db", spec.overrides.get("p1_db", 20.0))
    cfg = _apply_overrides(_base_cfg(
        200, Pp=_db(10.0), Ps=p0, Pr=p1, sigma_li_sq=_db(10.0)),
        spec.overrides)
    profile = snapshot_profile(cfg.tau, cfg.Pp)
    header = ["target_se"]
    for s in ("zf", "mr"):
        header += [f"feasible_{s}", f"converged_{s}", f"iterations_{s}",
                   f"total_power_{s}", f"achieved_se_{s}", f"ee_opt_{s}",
                   f"se_uniform_{s}", f"ee_uniform_{s}"]
    schemes = (("zf", rate_zf), ("mr", rate_mr))
    targets = range(2, 15)
    # allocate first: optimize_powers refuses by name peaks at which a
    # uniform-peak SINR term overflows, before the uniform rates overflow
    allocs = [[optimize_powers(cfg, profile, scheme, float(s0), p0=p0, p1=p1)
               for scheme, _ in schemes] for s0 in targets]
    uniform = []  # at the peaks: _reject_swept keeps cfg's Ps = p0 and Pr = p1
    for _, fn in schemes:
        se = fn(cfg, profile).sum_se
        uniform.append((se, energy_efficiency(se, np.full(cfg.K, p0), p1, cfg.T, cfg.tau)))
    rows = []
    for s0, row_allocs in zip(targets, allocs):
        row = [s0]
        for alloc, (se, ee) in zip(row_allocs, uniform):
            feasible = alloc.status != "infeasible"
            total = float(np.sum(alloc.p_s)) + alloc.p_r if feasible else 0.0
            row += [int(feasible), int(alloc.converged), alloc.iterations,
                    total, alloc.achieved_se, alloc.ee, se, ee]
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
    if field not in _KEY_FIELDS:
        raise ValueError(f"sweep field {field!r} is not a config field")
    # integer fields take the floor of each grid point, in the table too
    points = [math.floor(v) if field in _INTEGER_KEYS else float(v) for v in values]
    base = _base_cfg(Pp=10.0, Ps=10.0, Pr=10.0, sigma_li_sq=1.0)
    return {"custom.csv": _sweep(spec, base, field, points, _SE_HEADER, _se_rows)}


class _Preset(NamedTuple):
    run: object
    description: str
    trials: int  # default Monte Carlo trials or drops
    extras: tuple = ()  # the extra (non-config) keys it reads


_PRESETS = {
    "fig2": _Preset(_run_fig2, "rate bound and genie sum rates vs SNR (Monte Carlo)", 2000),
    "fig3": _Preset(_run_fig3, "ZF closed form vs Monte Carlo sum rate (tightness)", 2000),
    "fig4": _Preset(_run_fig4, "source power required for 1 bit/use per pair vs array size",
                    1, ("target_rate", "pp_fixed_db")),
    "fig6": _Preset(_run_fig6, "FD/HD/hybrid sum SE vs loop interference level", 1),
    "fig7": _Preset(_run_fig7, "FD/HD/hybrid sum SE vs number of antennas", 1),
    "fig8": _Preset(_run_fig8, "sum SE distribution over random urban drops", 1000,
                    tuple(_GEOMETRY)),
    "fig9": _Preset(_run_fig9, "energy efficiency vs target sum SE under power allocation",
                    1, ("p0_db", "p1_db")),
    "custom": _Preset(_run_custom, "closed-form SE along a user-chosen config sweep", 1,
                      ("sweep",)),
}
_EXTRA_KEYS = {key for preset in _PRESETS.values() for key in preset.extras}


def _cell(v):
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            raise ValueError("non-finite value in results table")
        return repr(f)
    return str(v)


def _cells(name: str, header, rows) -> list:
    """The table as CSV cells, header first; names the first bad cell."""
    out = [header]
    for i, row in enumerate(rows, 1):
        cells = []
        for column, v in zip(header, row):
            try:
                cells.append(_cell(v))
            except ValueError as exc:
                raise ValueError(f"{exc}: {name} row {i}, column {column}") from None
        out.append(cells)
    return out


def run_spec(spec: RunSpec) -> list:
    """Execute the preset and write its CSVs and manifest; returns paths.
    A run that fails writes no file."""
    if spec.preset not in _PRESETS:
        raise ValueError(f"unknown preset {spec.preset!r}")
    if spec.trials < 1:
        raise ValueError("trials must be >= 1")
    preset = _PRESETS[spec.preset]
    for key in spec.overrides:
        if key not in _KEY_FIELDS and key not in preset.extras:
            raise ValueError(f"{spec.preset} does not read override {key!r}"
                             if key in _EXTRA_KEYS else f"unknown override key {key!r}")
    tables = {name: _cells(name, *table) for name, table in sorted(preset.run(spec).items())}
    os.makedirs(spec.out_dir, exist_ok=True)
    written = []
    for name, cells in tables.items():
        path = os.path.join(spec.out_dir, name)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(cells)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first main call and reused by every
    later one: argparse keeps no state between parses, and the append
    action copies --set's [] default before appending to it."""
    parser = argparse.ArgumentParser(
        prog="fdrelay", description="Run relaying experiments to CSV.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one preset")
    run.add_argument("--preset", choices=sorted(_PRESETS),
                     help="experiment family: "
                          + "; ".join(f"{k}: {v.description}"
                                      for k, v in sorted(_PRESETS.items())))
    run.add_argument("--manifest", help="re-run from a manifest JSON file")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="config override (repeatable)")
    run.add_argument("--seed", type=int, default=None, help="random seed (default 1)")
    run.add_argument("--trials", type=int, default=None,
                     help="Monte Carlo trials or drops (preset default otherwise)")
    run.add_argument("--out", default=None,
                     help="output directory (default $FDRELAY_OUT or ./results)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = args.out or os.environ.get("FDRELAY_OUT") or "results"
    # under the active filters; a failure lists the warnings, a success re-issues them
    with warnings.catch_warnings(record=True) as caught:
        try:
            if args.manifest and args.preset:
                raise ValueError("use either --preset or --manifest, not both")
            if args.manifest:
                for option, given in (("--set", bool(args.overrides)),
                                      ("--trials", args.trials is not None),
                                      ("--seed", args.seed is not None)):
                    if given:
                        raise ValueError(f"{option} is not allowed with --manifest, "
                                         f"which replays the manifest's own run")
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
                    else _PRESETS[args.preset].trials
                seed = args.seed if args.seed is not None else 1
                spec = RunSpec(preset=args.preset, seed=seed, trials=trials,
                               overrides=overrides, out_dir=out_dir)
            paths = run_spec(spec)
        except Exception as exc:  # one machine-readable line on any failure
            error = {"error": str(exc), "type": type(exc).__name__}
            if caught:
                error["warnings"] = [str(w.message) for w in caught]
            print(json.dumps(error), file=sys.stderr)
            return 2
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    print(*paths, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
