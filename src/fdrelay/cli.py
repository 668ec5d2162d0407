"""Experiment runner.

Each preset binds one experiment family at desk scale (shared setup: T=200,
K=10, tau=2K, Ntx=Nrx, SNR means Ps) and writes one CSV table plus a JSON
manifest holding everything needed to reproduce the run. Re-running a
manifest regenerates byte-identical files: every Monte Carlo sweep draws
from its own seed stream keyed by (seed, array size index, scheme index),
and every urban drop from (seed, drop index), so results do not depend on
execution order or chunking.

    fdrelay run --preset fig3 --seed 1 --trials 2000 --out results/
    fdrelay run --manifest results/fig3.manifest.json --out verify/

Overrides (--set key=value) use flat lower-case keys mirroring the config
fields; a _db key other than shadow_sigma_db is converted to linear scale at
parse time. A field has one source, the preset or one key, and a preset
reads only its own extras, or the run is refused before the preset starts.
Then each value is parsed once, in argument order (custom's sweep spec
last), so of two bad values the first is named; a failed run writes no file.
A manifest replay takes its seed, trials and overrides from the manifest
alone, so it refuses --set, --trials and --seed.
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
from .model import (DropGeometry, SystemConfig, _check_count, _check_integer, draw_urban_profile,
                    make_profile, snapshot_profile)
from .montecarlo import simulate
from .powalloc import energy_efficiency, optimize_powers
from .rates import _batch, _required_powers, rate_mr, rate_zf

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
    """An override value; integer keys take integral spellings only (64, 64.0),
    and a dB key a value whose linear scale is finite."""
    try:
        if isinstance(raw, bool):  # JSON true would run as 1.0 and write back "True"
            raise TypeError
        x = float(raw)
    except OverflowError:  # a JSON integer beyond the float range reads as 1e400 does
        x = math.inf
    except (TypeError, ValueError):  # a manifest's value may be null, a list or an object
        raise ValueError(f"override {key}={raw} is not a number") from None
    if key.endswith("_db") and key not in _GEOMETRY:
        try:
            linear = _db(x)
        except OverflowError:
            linear = math.inf
        if not math.isfinite(linear):
            raise ValueError(f"override {key}={raw} has no finite linear value")
        return linear
    if key not in _INTEGER_KEYS:
        return x
    if not x.is_integer():
        raise ValueError(f"override {key}={raw} is not an integer")
    return int(x)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


def _flat_profile(k: int, tau: int, pp: float):
    ones = np.ones(k)
    return make_profile(ones, ones, tau, pp)


def _base_cfg(n_ant: int = 100, **kw) -> SystemConfig:
    return SystemConfig(K=10, Nrx=n_ant, Ntx=n_ant, T=200, tau=20, **kw)


_SE_HEADER = [f"se_{mode}_{s}" for s in ("zf", "mr") for mode in ("fd", "hd", "hybrid")]


def _se_columns(cfgs, profiles) -> list:
    """_SE_HEADER rows of the points: one batch per run of equal K (a k sweep
    changes K), and on it one rate call per scheme and mode."""
    rows = []
    for _, run in itertools.groupby(zip(cfgs, profiles), key=lambda point: point[0].K):
        batch = _batch(*zip(*run), "zf", "mr")
        columns = []
        for fn in (rate_zf, rate_mr):
            fd = fn(batch, None, mode="fd").sum_se.tolist()
            hd = fn(batch, None, mode="hd").sum_se.tolist()
            columns += [fd, hd, list(map(max, fd, hd))]
        rows += [list(row) for row in zip(*columns)]
    return rows


def _sweep(base: SystemConfig, fields: dict, key: str, values, header, columns) -> tuple:
    """One row per value of the config key: the override fields apply to
    base, then the row's value (run_spec has refused any override of its
    fields). columns maps the row configs and their flat profiles to rows."""
    base = replace(base, **fields)
    cfgs = [replace(base, **dict.fromkeys(_KEY_FIELDS[key], _value(key, v))) for v in values]
    flat = functools.cache(_flat_profile)  # each distinct profile once per sweep
    rows = columns(cfgs, [flat(cfg.K, cfg.tau, cfg.Pp) for cfg in cfgs])
    return [key] + header, [[v] + row for v, row in zip(values, rows)]


def _mc_sweep(spec: RunSpec, fields: dict, sizes, schemes, genie: bool) -> tuple:
    """Closed-form and simulated sum rates over SNR: one simulate call per
    (size, scheme) on seed stream (seed, size index, scheme index), so
    presets that share a size and a scheme share its cells; one closed-form
    call per scheme. Each row sets the array size, Ps (the SNR) and Pr = K Ps."""
    snrs_db = (-10, -5, 0, 5, 10)
    rows, points, sims = [], [], {scheme: [] for scheme in schemes}
    for i, n_ant in enumerate(sizes):
        block = []
        for snr_db in snrs_db:
            ps = _db(snr_db)
            cfg = replace(_base_cfg(n_ant, Pp=ps, Ps=ps, sigma_li_sq=1.0), **fields)
            cfg = replace(cfg, Pr=cfg.K * cfg.Ps)
            block.append((cfg, _flat_profile(cfg.K, cfg.tau, cfg.Pp)))
            rows.append([snr_db, n_ant])
        for j, scheme in enumerate(("zf", "mr")):
            if scheme in schemes:
                sims[scheme] += simulate(block, scheme, spec.trials, _rng(spec.seed, i, j))
        points += block
    header = ["snr_db", "n_ant"]
    batch = _batch(*zip(*points), *schemes)
    for s in schemes:
        header += [f"sum_rate_{s}_closed", f"sum_rate_{s}_mc", f"sum_rate_{s}_mc_stderr"]
        if genie:
            header += [f"sum_rate_{s}_genie", f"sum_rate_{s}_genie_stderr"]
        rate = rate_zf if s == "zf" else rate_mr
        closed = np.sum(rate(batch, None).r_e2e, axis=-1).tolist()
        for row, sum_rate, (mc, gen) in zip(rows, closed, sims[s]):
            row += [sum_rate, mc.sum_rate, mc.stderr_sum_rate]
            if genie:
                row += [gen.sum_rate, gen.stderr_sum_rate]
    return header, rows


def _run_fig2(spec: RunSpec, fields: dict, extras: dict):
    return _mc_sweep(spec, fields, (50, 100), ("zf", "mr"), genie=True)


def _run_fig3(spec: RunSpec, fields: dict, extras: dict):
    return _mc_sweep(spec, fields, (50, 100, 200), ("zf",), genie=False)


def _run_fig4(spec: RunSpec, fields: dict, extras: dict):
    # the bisection sets Ps, and Pr = K Ps, at every step
    target = extras["target_rate"]
    header = [f"ps_req_db_{s}_{pp}" for s in ("zf", "mr")
              for pp in ("fixed_pp", "pp_tracks")]

    def columns(cfgs, profiles):  # one lockstep bisection per scheme and pilot mode
        batch = _batch(cfgs, profiles)  # each bisection checks its target, then its scheme
        powers = [_required_powers(target, scheme, batch, None, pilot_tracks_data=tracks)
                  for scheme in ("zf", "mr") for tracks in (False, True)]
        return [[10.0 * math.log10(ps) for ps in row] for row in zip(*powers)]

    base = _base_cfg(Pp=extras["pp_fixed_db"], Ps=1.0, Pr=10.0, sigma_li_sq=1.0)
    return _sweep(base, fields, "n_ant", (64, 128, 256, 512), header, columns)


def _run_fig6(spec: RunSpec, fields: dict, extras: dict):
    p = _db(10.0)
    base = _base_cfg(Pp=p, Ps=p, Pr=p)
    return _sweep(base, fields, "sigma_li_db", range(-10, 22, 2), _SE_HEADER, _se_columns)


def _run_fig7(spec: RunSpec, fields: dict, extras: dict):
    p = _db(10.0)
    base = _base_cfg(Pp=p, Ps=p, Pr=p, sigma_li_sq=_db(10.0))
    sizes = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
    return _sweep(base, fields, "n_ant", sizes, _SE_HEADER, _se_columns)


def _run_fig8(spec: RunSpec, fields: dict, extras: dict):
    p = _db(10.0)
    cfg = replace(_base_cfg(200, Pp=p, Ps=p, Pr=p, sigma_li_sq=_db(10.0)), **fields)
    profiles = draw_urban_profile(DropGeometry(**extras), cfg.K, cfg.tau, cfg.Pp,
                                  [_rng(spec.seed, drop) for drop in range(spec.trials)])
    rows = _se_columns([cfg] * spec.trials, profiles)
    return ["drop"] + _SE_HEADER, [[drop] + row for drop, row in enumerate(rows)]


def _run_fig9(spec: RunSpec, fields: dict, extras: dict):
    # the allocator chooses the powers under the peaks p0_db and p1_db
    p0, p1 = extras["p0_db"], extras["p1_db"]
    cfg = replace(_base_cfg(200, Pp=_db(10.0), Ps=p0, Pr=p1, sigma_li_sq=_db(10.0)), **fields)
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
    uniform = []  # at the peaks: fig9 sets Ps and Pr, so cfg's Ps = p0 and Pr = p1
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
    return header, rows


def _run_custom(spec: RunSpec, fields: dict, extras: dict):
    sweep = extras["sweep"]
    if not sweep:
        raise ValueError("custom preset needs --set sweep=field:start:stop:points[:scale]")
    parts = str(sweep).split(":")
    if len(parts) not in (4, 5):
        raise ValueError("sweep spec is field:start:stop:points[:scale]")
    try:
        field, start, stop, points = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:  # names the part that is not a number
        raise ValueError(f"sweep {sweep!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep {sweep!r}: start and stop must be finite")
    scale = parts[4] if len(parts) == 5 else "linear"
    if points < 1:
        raise ValueError(f"sweep {sweep!r}: points must be at least 1")
    if scale in ("linear", "db"):
        values = np.linspace(start, stop, points)
    elif scale == "log2":
        with np.errstate(over="ignore"):
            values = np.logspace(start, stop, points, base=2.0)
        if not np.isfinite(values).all():
            raise ValueError(f"sweep {sweep!r}: log2 grid points must be finite")
    else:
        raise ValueError(f"unknown sweep scale {scale!r}")
    if field not in _KEY_FIELDS:
        raise ValueError(f"sweep field {field!r} is not a config field")
    # integer fields take the floor of each grid point, in the table too
    points = [math.floor(v) if field in _INTEGER_KEYS else float(v) for v in values]
    base = _base_cfg(Pp=10.0, Ps=10.0, Pr=10.0, sigma_li_sq=1.0)
    return _sweep(base, fields, field, points, _SE_HEADER, _se_columns)


class _Preset(NamedTuple):
    run: object
    description: str
    trials: int  # default Monte Carlo trials or drops
    extras: dict = {}  # each extra (non-config) key it reads: its default, as parsed
    sets: tuple = ()  # the config fields it sets itself


_PRESETS = {
    "fig2": _Preset(_run_fig2, "rate bound and genie sum rates vs SNR (Monte Carlo)", 2000,
                    sets=("Nrx", "Ntx", "Ps", "Pr")),
    "fig3": _Preset(_run_fig3, "ZF closed form vs Monte Carlo sum rate (tightness)", 2000,
                    sets=("Nrx", "Ntx", "Ps", "Pr")),
    "fig4": _Preset(_run_fig4, "source power required for 1 bit/use per pair vs array size",
                    1, {"target_rate": 1.0, "pp_fixed_db": _db(10.0)},
                    ("Nrx", "Ntx", "Ps", "Pr")),
    "fig6": _Preset(_run_fig6, "FD/HD/hybrid sum SE vs loop interference level", 1,
                    sets=("sigma_li_sq",)),
    "fig7": _Preset(_run_fig7, "FD/HD/hybrid sum SE vs number of antennas", 1,
                    sets=("Nrx", "Ntx")),
    "fig8": _Preset(_run_fig8, "sum SE distribution over random urban drops", 1000,
                    _GEOMETRY),
    "fig9": _Preset(_run_fig9, "energy efficiency vs target sum SE under power allocation",
                    1, {"p0_db": _db(10.0), "p1_db": _db(20.0)}, ("Ps", "Pr")),
    "custom": _Preset(_run_custom, "closed-form SE along a user-chosen config sweep", 1,
                      {"sweep": None}),
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
    """Run the preset, write its table as <preset>.csv and its manifest as
    <preset>.manifest.json, return the two paths. Seed, trials (a manifest's as
    written) and override keys are vetted first: each is a config key or an
    extra the preset reads, and a config field has one source, the preset or
    one key. A failed run writes no file."""
    if not isinstance(spec.preset, str) or spec.preset not in _PRESETS:  # a JSON list or object
        raise ValueError(f"unknown preset {spec.preset!r}")
    _check_count("trials", spec.trials)
    _check_integer("seed", spec.seed, 0)
    preset = _PRESETS[spec.preset]
    set_by = dict.fromkeys(preset.sets, spec.preset)  # config field: its one source
    for key, raw in spec.overrides.items():
        if key not in _KEY_FIELDS and key not in preset.extras:
            raise ValueError(f"{spec.preset} does not read override {key!r}"
                             if key in _EXTRA_KEYS else f"unknown override key {key!r}")
        # fig4's pp_fixed_db sets the fields of pp, custom's sweep those of its key
        alias = {"pp_fixed_db": "pp", "sweep": str(raw).split(":")[0]}.get(key, key)
        for name in _KEY_FIELDS.get(alias, ()):
            if (source := set_by.setdefault(name, key)) != key:
                raise ValueError(
                    f"{spec.preset} sets {name} itself; override {key!r} is not allowed"
                    if source == spec.preset else
                    f"overrides {source!r} and {key!r} both set {name}")
    # every value parsed once, in argument order (custom parses its sweep spec)
    parsed = {key: raw if key == "sweep" else _value(key, raw)
              for key, raw in spec.overrides.items()}
    fields = {name: v for key, v in parsed.items() for name in _KEY_FIELDS.get(key, ())}
    extras = {key: parsed.get(key, default) for key, default in preset.extras.items()}
    name = f"{spec.preset}.csv"
    cells = _cells(name, *preset.run(spec, fields, extras))
    os.makedirs(spec.out_dir, exist_ok=True)
    path = os.path.join(spec.out_dir, name)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(cells)
    manifest = {
        "preset": spec.preset,
        "seed": spec.seed,
        "trials": spec.trials,
        "overrides": {k: str(v) for k, v in sorted(spec.overrides.items())},
        "outputs": [name],
        "version": __version__,
    }
    mpath = os.path.join(spec.out_dir, f"{spec.preset}.manifest.json")
    with open(mpath, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, mpath]


def spec_from_manifest(path: str, out_dir: str) -> RunSpec:
    """The run a manifest records, refused by name unless its form is right."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("manifest is not a JSON object")
    if missing := [key for key in ("preset", "seed", "trials") if key not in data]:
        raise ValueError(f"manifest lacks {', '.join(missing)}")
    if not isinstance(overrides := data.get("overrides", {}), dict):
        raise ValueError("manifest overrides are not a JSON object")
    return RunSpec(preset=data["preset"], seed=data["seed"], trials=data["trials"],
                   overrides=dict(overrides), out_dir=out_dir)


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
