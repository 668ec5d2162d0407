"""Tests for the experiment CLI: presets, overrides, manifests, errors."""
import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fdrelay import SystemConfig, cli, rates
from fdrelay.cli import (
    RunSpec,
    _base_cfg,
    _cell,
    _flat_profile,
    _se_columns,
    main,
    run_spec,
    spec_from_manifest,
)
from cli_digest import BAD_SWEEPS, FIRST_OF_TWO, REFUSALS, SWEPT_FIELDS, TWO_KEYS


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_fig6_table_shape_and_duplex_columns(tmp_path, capsys):
    assert main(["run", "--preset", "fig6", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(tmp_path / "fig6.csv") in printed
    assert str(tmp_path / "fig6.manifest.json") in printed

    header, rows = read_csv(tmp_path / "fig6.csv")
    assert header == ["sigma_li_db", "se_fd_zf", "se_hd_zf", "se_hybrid_zf",
                      "se_fd_mr", "se_hd_mr", "se_hybrid_mr"]
    assert [int(r[0]) for r in rows] == list(range(-10, 22, 2))
    data = [[float(v) for v in r] for r in rows]
    assert all(math.isfinite(v) for r in data for v in r)
    # half duplex never sees the loop interference, so its column is flat
    hd_zf = {r[2] for r in data}
    hd_mr = {r[5] for r in data}
    assert len(hd_zf) == 1 and len(hd_mr) == 1
    # hybrid picks the larger mode per row
    for r in data:
        assert r[3] == max(r[1], r[2])
        assert r[6] == max(r[4], r[5])
    # full duplex must lose to half duplex once the loop is strong enough
    assert data[0][1] > data[0][2]
    assert data[-1][1] < data[-1][2]


def test_manifest_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["run", "--preset", "fig6", "--set", "NRX=64",
                 "--out", str(first)]) == 0
    assert main(["run", "--manifest", str(first / "fig6.manifest.json"),
                 "--out", str(second)]) == 0
    assert (first / "fig6.csv").read_bytes() == (second / "fig6.csv").read_bytes()
    assert (first / "fig6.manifest.json").read_bytes() == \
        (second / "fig6.manifest.json").read_bytes()
    manifest = json.loads((first / "fig6.manifest.json").read_text())
    assert manifest["preset"] == "fig6"
    assert manifest["overrides"] == {"nrx": "64"}
    assert manifest["trials"] == cli._PRESETS["fig6"].trials
    # a dB key and a linear key for two different fields replay as they ran
    third, fourth = tmp_path / "c", tmp_path / "d"
    assert main(["run", "--preset", "fig6", "--set", "ps_db=20", "--set", "pr=3",
                 "--out", str(third)]) == 0
    assert main(["run", "--manifest", str(third / "fig6.manifest.json"),
                 "--out", str(fourth)]) == 0
    for name in ("fig6.csv", "fig6.manifest.json"):
        assert (third / name).read_bytes() == (fourth / name).read_bytes()
    assert (third / "fig6.csv").read_bytes() != (first / "fig6.csv").read_bytes()


@pytest.mark.parametrize("preset,want", [
    ("fig4", {"_required_powers": 4, "rate_zf": 0, "rate_mr": 0}),
    ("fig6", {"_required_powers": 0, "rate_zf": 2, "rate_mr": 2}),
    ("fig7", {"_required_powers": 0, "rate_zf": 2, "rate_mr": 2}),
    ("fig8 --trials 50", {"_required_powers": 0, "rate_zf": 2, "rate_mr": 2}),
    ("fig2 --trials 4", {"_required_powers": 0, "rate_zf": 1, "rate_mr": 1}),
    ("custom --set sweep=pp_db:-10:20:7:db", {"_required_powers": 0, "rate_zf": 2,
                                              "rate_mr": 2}),
    ("custom --set sweep=k:2:9:8", {"_required_powers": 0, "rate_zf": 16, "rate_mr": 16}),
])
def test_presets_reach_the_rate_layer_through_the_cli_names(tmp_path, monkeypatch,
                                                            preset, want):
    # the benchmark trace counts the rate layer at these module attributes,
    # so a preset that routes around them would zero its per-layer metrics;
    # a sweep makes one batched call per scheme and mode (full and half
    # duplex), one per run of equal K, fig2's closed form one per scheme,
    # and fig4 one lockstep bisection per scheme and pilot mode
    calls = dict.fromkeys(want, 0)

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in want:
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["run", "--preset"] + preset.split() + ["--out", str(tmp_path)]) == 0
    assert calls == want


@pytest.mark.parametrize("preset,want", [
    ("fig4", [4]), ("fig6", [16]), ("fig7", [11]), ("fig8 --trials 50", [50]),
    ("fig2 --trials 4", [10]), ("fig3 --trials 4", [15]),
    ("custom --set sweep=k:2:9:8", [1] * 8),
])
def test_a_table_stacks_each_run_of_equal_k_once(tmp_path, monkeypatch, preset, want):
    # one stacked batch per run of equal K, shared by its four rate calls
    # (fig4: by its four bisections; fig2 and fig3: by their closed forms);
    # the Monte Carlo engine checks its points through its own _batch
    # binding, which this spy leaves alone
    stacks = []
    real = rates._batch

    def counted(cfgs, profiles, *schemes):
        if not isinstance(cfgs, rates._Batch):
            stacks.append(len(cfgs))
        return real(cfgs, profiles, *schemes)

    for module in (cli, rates):
        monkeypatch.setattr(module, "_batch", counted)
    assert main(["run", "--preset"] + preset.split() + ["--out", str(tmp_path)]) == 0
    assert stacks == want


def test_fig8_draws_all_its_drops_in_one_call(tmp_path, monkeypatch):
    # one Generator per drop, on seed stream (seed, drop index), in one stack
    calls = []
    real = cli.draw_urban_profile

    def counted(geometry, K, tau, Pp, rng):
        calls.append(len(rng))
        return real(geometry, K, tau, Pp, rng)

    monkeypatch.setattr(cli, "draw_urban_profile", counted)
    assert main(["run", "--preset", "fig8", "--trials", "7", "--out", str(tmp_path)]) == 0
    assert calls == [7] and len(read_csv(tmp_path / "fig8.csv")[1]) == 7


def test_fig2_and_fig3_share_one_sweep(tmp_path, monkeypatch):
    # one simulate call per (array size, scheme): 4 for fig2, 3 for fig3;
    # fig3's ZF rows at N = 50 and 100 are fig2's, cell for cell
    calls = []
    real = cli.simulate

    def counted(points, scheme, trials, rng):
        calls.append((points[0][0].Nrx, scheme, len(points)))
        return real(points, scheme, trials, rng)

    monkeypatch.setattr(cli, "simulate", counted)
    tables = {}
    for preset in ("fig2", "fig3"):
        calls.clear()
        assert main(["run", "--preset", preset, "--trials", "40", "--seed", "5",
                     "--out", str(tmp_path / preset)]) == 0
        tables[preset] = read_csv(tmp_path / preset / f"{preset}.csv")
        sizes = (50, 100) if preset == "fig2" else (50, 100, 200)
        schemes = ("zf", "mr") if preset == "fig2" else ("zf",)
        assert calls == [(n, s, 5) for n in sizes for s in schemes]
    header2, rows2 = tables["fig2"]
    header3, rows3 = tables["fig3"]
    assert header3 == header2[:5]
    assert [r[:5] for r in rows2] == rows3[:10]
    assert [r[1] for r in rows3[10:]] == ["200"] * 5


# the config fields each preset sets itself, so that no key may set them
PRESET_SETS = {
    "fig2": ("Nrx", "Ntx", "Ps", "Pr"), "fig3": ("Nrx", "Ntx", "Ps", "Pr"),
    "fig4": ("Nrx", "Ntx", "Ps", "Pr"), "fig6": ("sigma_li_sq",), "fig7": ("Nrx", "Ntx"),
    "fig8": (), "fig9": ("Ps", "Pr"), "custom": (),
}
# a value for every config key, other than every preset's own
KEY_VALUES = {"k": "4", "nrx": "150", "ntx": "150", "n_ant": "150", "t": "300",
              "tau": "30", "pp": "5", "ps": "5", "pr": "5", "sigma_li_sq": "0.5",
              "pp_db": "7", "ps_db": "7", "pr_db": "7", "sigma_li_db": "-3"}


def _stub_run(monkeypatch, preset):
    def run(spec, fields, extras):
        raise AssertionError("the preset ran")

    monkeypatch.setitem(cli._PRESETS, preset, cli._PRESETS[preset]._replace(run=run))


@pytest.mark.parametrize("preset, first, second, field", TWO_KEYS)
def test_run_spec_refuses_two_keys_for_one_field_before_the_preset_runs(
        tmp_path, monkeypatch, preset, first, second, field):
    _stub_run(monkeypatch, preset)
    # each key alone passes the vetting and reaches the preset
    for item in (first, second):
        with pytest.raises(AssertionError, match="the preset ran"):
            run_spec(RunSpec(preset=preset, seed=1, trials=1,
                             overrides=dict([item.split("=")]), out_dir=str(tmp_path)))
    overrides = dict(item.split("=") for item in (second, first))
    with pytest.raises(ValueError, match=f"both set {field}$"):
        run_spec(RunSpec(preset=preset, seed=1, trials=1, overrides=overrides,
                         out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset", sorted(PRESET_SETS))
def test_run_spec_refuses_a_field_the_preset_sets_before_the_preset_runs(
        tmp_path, monkeypatch, preset):
    # every key of a field the preset sets is refused by name, the preset,
    # the key and the (first) field, before the preset runs; every other
    # config key reaches the preset
    _stub_run(monkeypatch, preset)
    for key, value in KEY_VALUES.items():
        spec = RunSpec(preset=preset, seed=1, trials=1, overrides={key: value},
                       out_dir=str(tmp_path / "out"))
        field = next((f for f in cli._KEY_FIELDS[key] if f in PRESET_SETS[preset]), None)
        if field is None:
            with pytest.raises(AssertionError, match="the preset ran"):
                run_spec(spec)
        else:
            with pytest.raises(ValueError) as exc:
                run_spec(spec)
            assert str(exc.value) == (f"{preset} sets {field} itself; "
                                      f"override {key!r} is not allowed")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset", sorted(PRESET_SETS))
def test_an_accepted_override_reaches_every_config_the_preset_hands_on(
        tmp_path, monkeypatch, preset):
    # each config key is either refused before the preset runs or its value
    # is in every SystemConfig the preset hands to the rate, Monte Carlo,
    # bisection and allocation layers (the closed forms and the bisection
    # take theirs through _batch), so a preset's declared fields cannot
    # drift from what its body overwrites
    assert set(KEY_VALUES) == set(cli._KEY_FIELDS)
    ran, seen = [], []
    real_run = cli._PRESETS[preset].run

    def run(spec, fields, extras):
        ran.append(1)
        return real_run(spec, fields, extras)

    def configs(obj):
        if isinstance(obj, SystemConfig):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from configs(item)

    def spied(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            seen.extend(configs(args))
            if name == "optimize_powers":  # out of reach: reported without a GP round
                args = args[:3] + (1e6,)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setitem(cli._PRESETS, preset, cli._PRESETS[preset]._replace(run=run))
    for name in ("_batch", "rate_zf", "rate_mr", "simulate", "_required_powers",
                 "optimize_powers"):
        monkeypatch.setattr(cli, name, spied(name))
    extra = {"sweep": "ps_db:0:10:2"} if preset == "custom" else {}
    trials = 2 if preset in ("fig2", "fig3", "fig8") else 1
    for key, value in KEY_VALUES.items():
        ran.clear()
        seen.clear()
        spec = RunSpec(preset=preset, seed=1, trials=trials, overrides={key: value, **extra},
                       out_dir=str(tmp_path / key))
        try:
            run_spec(spec)
        except ValueError:
            if not ran:  # refused before the preset ran
                assert not (tmp_path / key).exists()
                continue
        assert ran and seen, key
        for field in cli._KEY_FIELDS[key]:
            assert {getattr(cfg, field) for cfg in seen} == {cli._value(key, value)}, key


def test_failed_run_writes_no_file(tmp_path, capsys):
    # 8 bit/use per pair is out of reach, so every required power is inf:
    # the run exits 2 naming the first bad cell, and writes nothing, not
    # even over an older table in the same directory
    fresh, older = tmp_path / "fresh", tmp_path / "older"
    argv = ["run", "--preset", "fig4", "--set", "target_rate=8"]
    assert main(argv + ["--out", str(fresh)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == ("non-finite value in results table: fig4.csv "
                                "row 1, column ps_req_db_zf_fixed_pp")
    assert not (fresh / "fig4.csv").exists()
    assert not (fresh / "fig4.manifest.json").exists()
    assert main(["run", "--preset", "fig4", "--out", str(older)]) == 0
    before = {f.name: f.read_bytes() for f in older.iterdir()}
    assert main(argv + ["--out", str(older)]) == 2
    assert {f.name: f.read_bytes() for f in older.iterdir()} == before


def test_fig9_flags_targets_out_of_reach_and_replays(tmp_path):
    # a loop interference of 1e20 leaves every target out of reach: the run
    # still writes its table, each allocation flagged by its status alone
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "fig9", "--set", "sigma_li_sq=1e20",
                 "--out", str(first)]) == 0
    header, rows = read_csv(first / "fig9.csv")
    flags = [i for i, name in enumerate(header)
             if name.startswith(("feasible_", "converged_"))]
    assert len(flags) == 4 and len(rows) == 13
    assert all(float(row[i]) == 0.0 for row in rows for i in flags)
    assert main(["run", "--manifest", str(first / "fig9.manifest.json"),
                 "--out", str(second)]) == 0
    for name in ("fig9.csv", "fig9.manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_custom_sweep_log2_scale(tmp_path):
    assert main(["run", "--preset", "custom", "--out", str(tmp_path),
                 "--set", "sweep=n_ant:4:6:3:log2"]) == 0
    header, rows = read_csv(tmp_path / "custom.csv")
    assert header[0] == "n_ant"
    assert [float(r[0]) for r in rows] == [16.0, 32.0, 64.0]
    ses = [float(r[1]) for r in rows]
    assert ses[0] < ses[1] < ses[2]


def test_custom_sweep_floors_integer_fields_and_replays(tmp_path):
    # 2^3.5 .. 2^5 on four points: the config and the table both take the
    # floor of each grid point, and the manifest replays byte for byte
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "custom", "--out", str(first),
                 "--set", "sweep=n_ant:3.5:5:4:log2"]) == 0
    _, rows = read_csv(first / "custom.csv")
    floors = [math.floor(v) for v in np.logspace(3.5, 5.0, 4, base=2.0)]
    assert [r[0] for r in rows] == [str(n) for n in floors]
    for row, n in zip(rows, floors):
        cfg = _base_cfg(n, Pp=10.0, Ps=10.0, Pr=10.0, sigma_li_sq=1.0)
        profile = _flat_profile(cfg.K, cfg.tau, cfg.Pp)
        assert [float(x) for x in row[1:]] == _se_columns([cfg], [profile])[0]
    assert main(["run", "--manifest", str(first / "custom.manifest.json"),
                 "--out", str(second)]) == 0
    for name in ("custom.csv", "custom.manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_each_override_is_parsed_once_per_run(tmp_path, monkeypatch):
    # run_spec parses every value before the preset runs; fig2's ten grid
    # points share the parsed fields
    parsed = []
    real = cli._value

    def spy(key, raw):
        parsed.append(key)
        return real(key, raw)

    monkeypatch.setattr(cli, "_value", spy)
    assert main(["run", "--preset", "fig2", "--trials", "2", "--set", "pp=5",
                 "--out", str(tmp_path)]) == 0
    assert parsed.count("pp") == 1


def test_integral_spellings_are_accepted(tmp_path):
    for spelling in ("64", "64.0"):
        out = tmp_path / spelling
        assert main(["run", "--preset", "fig6", "--set", f"n_ant={spelling}",
                     "--out", str(out)]) == 0
    assert (tmp_path / "64" / "fig6.csv").read_bytes() == \
        (tmp_path / "64.0" / "fig6.csv").read_bytes()
    _, rows = read_csv(tmp_path / "64" / "fig6.csv")
    cfg = SystemConfig(K=10, Nrx=64, Ntx=64, T=200, tau=20, Pp=10.0, Ps=10.0,
                       Pr=10.0, sigma_li_sq=0.1)
    profile = _flat_profile(cfg.K, cfg.tau, cfg.Pp)
    assert [float(x) for x in rows[0][1:]] == _se_columns([cfg], [profile])[0]


def test_custom_sweep_linear_scale(tmp_path):
    # the db scale spaces its grid linearly too (the dB keys convert it)
    for spec in ("sweep=ps:1:5:3", "sweep=ps:1:5:3:db"):
        out = tmp_path / spec.replace(":", "_")
        assert main(["run", "--preset", "custom", "--out", str(out),
                     "--set", spec]) == 0
        _, rows = read_csv(out / "custom.csv")
        assert [float(r[0]) for r in rows] == [1.0, 3.0, 5.0]


def _refusal_test(rows, ids):
    # exit 2, the one JSON line of the message and no output directory, also
    # outside pytest's error filter: a run that warned would list its warnings
    @pytest.mark.parametrize("argv, message", rows, ids=ids)
    def test(tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert main(["run"] + argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [{"error": message, "type": "ValueError"}]
        assert not out.exists()
    return test


# three slices of REFUSALS keep test names of their own; the rest run as one
OTHER_REFUSALS = [row for row in REFUSALS if row not in FIRST_OF_TWO + SWEPT_FIELDS + BAD_SWEEPS]
test_a_refused_run_prints_one_line = _refusal_test(
    OTHER_REFUSALS, [" ".join(argv) or "no preset" for argv, _ in OTHER_REFUSALS])
# config-first or extra-first, the preset, the bad config item, the bad extra
test_of_two_bad_values_the_first_in_argument_order_is_named = _refusal_test(FIRST_OF_TWO, [
    f"config-first-{a[1]}-{a[3]}-{a[5]}" if a[3].split("=")[0] in cli._KEY_FIELDS
    else f"extra-first-{a[1]}-{a[5]}-{a[3]}" for a, _ in FIRST_OF_TWO])
test_mc_sweeps_reject_overrides_of_swept_fields = _refusal_test(
    SWEPT_FIELDS, [f"{argv[1]}-{argv[5]}" for argv, _ in SWEPT_FIELDS])
test_a_bad_sweep_number_names_the_sweep = _refusal_test(
    BAD_SWEEPS, ["points", "start", "overflow", "inf", "nan", "log2", "no-points"])


def test_shadow_sigma_db_stays_in_db_where_other_db_keys_convert():
    # the drop model takes its shadowing spread in dB; other _db keys convert
    assert cli._value("shadow_sigma_db", "6") == 6.0
    assert cli._value("p0_db", "20") == 100.0


@pytest.mark.parametrize("argv_extra,first_warning", [
    (["fig8", "--set", "path_exponent=1e300"], "overflow encountered in power"),
    (["fig2", "--set", "sigma_li_sq=1e300"], "overflow encountered in matmul"),
])
def test_a_failed_run_reports_its_warnings_in_its_one_line(tmp_path, capsys,
                                                           argv_extra, first_warning):
    # outside pytest's error filter numpy warns first and the run fails
    # later; stderr is still the one JSON line, which lists the warnings
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["run", "--preset"] + argv_extra + ["--trials", "2",
                                                        "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["type"] == "ValueError" and payload["warnings"][0] == first_warning
    assert not out.exists()


def test_a_successful_run_reissues_its_warnings(tmp_path, monkeypatch):
    real = cli.rate_zf

    def warning_rate_zf(*args, **kwargs):
        warnings.warn("from the rate layer", UserWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "rate_zf", warning_rate_zf)
    with pytest.warns(UserWarning, match="from the rate layer"):
        assert main(["run", "--preset", "fig6", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("extra", [["--set", "shadow_sigma_db=2"], ["--trials", "50"],
                                   ["--seed", "9"], ["--seed", "1"], ["--trials", "0"]])
def test_a_manifest_replay_refuses_options_it_would_ignore(tmp_path, capsys, extra):
    # a replay reruns the manifest's own seed, trials and overrides, so an
    # option that would change them is refused by name, even one equal to
    # the manifest's value, and no directory is written
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "fig8", "--trials", "5", "--out", str(first)]) == 0
    assert json.loads((first / "fig8.manifest.json").read_text())["seed"] == 1
    capsys.readouterr()
    assert main(["run", "--manifest", str(first / "fig8.manifest.json"),
                 "--out", str(second)] + extra) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": f"{extra[0]} is not allowed with --manifest, "
                 "which replays the manifest's own run",
        "type": "ValueError"}
    assert not second.exists()


def test_a_replay_reads_the_manifest_trials_as_written(tmp_path, capsys):
    # a hand-edited 2.5 is refused by name, not rounded into another run
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "fig6", "--out", str(first)]) == 0
    path = first / "fig6.manifest.json"
    path.write_text(path.read_text().replace('"trials": 1', '"trials": 2.5'))
    capsys.readouterr()
    assert main(["run", "--manifest", str(path), "--out", str(second)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "trials must be >= 1 and an integer", "type": "ValueError"}
    assert not second.exists()


def test_a_seed_beyond_the_float_range_runs(tmp_path):
    # a seed is no count: it never enters float64 arithmetic, so only the
    # counts are held to the float range
    assert main(["run", "--preset", "fig6", "--trials", "2", "--seed", str(10**400),
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "fig6.manifest.json").read_text())["seed"] == 10**400


@pytest.mark.parametrize("field,value,message", [
    ("trials", True, "trials must be >= 1 and an integer"),
    ("seed", False, "seed must be >= 0 and an integer"),
])
def test_a_manifest_boolean_is_not_a_count(tmp_path, capsys, field, value, message):
    # JSON true and false load as Python bools, which are ints: "trials": true
    # would replay fig8 with one drop and write true back, "seed": false seed 0
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "fig8", "--trials", "2", "--out", str(first)]) == 0
    path = first / "fig8.manifest.json"
    manifest = json.loads(path.read_text())
    manifest[field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=message):
        run_spec(spec_from_manifest(str(path), str(second)))
    capsys.readouterr()
    assert main(["run", "--manifest", str(path), "--out", str(second)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message, "type": "ValueError"}
    assert not second.exists()


@pytest.mark.parametrize("manifest,message", [
    ({"preset": "fig6", "seed": 1}, "manifest lacks trials"),
    ({"overrides": {}}, "manifest lacks preset, seed, trials"),
    (["fig6", 1, 1], "manifest is not a JSON object"),
    ({"preset": "fig6", "seed": 1, "trials": 1, "overrides": "x"},
     "manifest overrides are not a JSON object"),
    ({"preset": "fig6", "seed": 1, "trials": 1, "overrides": {"nrx": [64]}},
     r"override nrx=\[64\] is not a number"),
    # a JSON bool ran as 1 and wrote back "True", which its replay refused
    ({"preset": "fig6", "seed": 1, "trials": 1, "overrides": {"pp": True}},
     "override pp=True is not a number"),
    ({"preset": "fig8", "seed": 1, "trials": 1, "overrides": {"disk_diameter": True}},
     "override disk_diameter=True is not a number"),
    ({"preset": "fig4", "seed": 1, "trials": 1, "overrides": {"target_rate": False}},
     "override target_rate=False is not a number"),
    # an unhashable preset raised TypeError at the preset lookup
    ({"preset": ["fig6"], "seed": 1, "trials": 1}, r"unknown preset \['fig6'\]"),
    ({"preset": {"name": "fig6"}, "seed": 1, "trials": 1}, r"unknown preset \{'name': 'fig6'\}"),
    # a JSON integer beyond the float range raised OverflowError in float()
    ({"preset": "fig6", "seed": 1, "trials": 1, "overrides": {"pp": 10**400}},
     "Pp must be finite and >= 0"),
    ({"preset": "fig6", "seed": 1, "trials": 1, "overrides": {"k": 10**400}},
     "override k=10{400} is not an integer"),
])
def test_a_malformed_manifest_is_refused_by_name(tmp_path, capsys, manifest, message):
    # not a bare KeyError or TypeError from reading the file's fields
    path, out = tmp_path / "run.manifest.json", tmp_path / "out"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=message):
        run_spec(spec_from_manifest(str(path), str(out)))
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["type"] == "ValueError" and re.fullmatch(message, payload["error"])
    assert not out.exists()


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    # the parser (with its run subparser) is built on the first call only
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.__wrapped__()
    per_parser = len(built)
    built.clear()
    cli._parser.cache_clear()
    for i in range(3):
        assert main(["run", "--preset", "custom", "--set", "sweep=ps:1:2:2",
                     "--out", str(tmp_path / str(i))]) == 0
    assert len(built) == per_parser
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import argparse\n"
             "built = []\n"
             "real = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = "
             "lambda self, *a, **k: built.append(1) or real(self, *a, **k)\n"
             "import fdrelay.cli\n"
             "print(len(built), fdrelay.cli._parser.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    assert done.stdout.split() == ["0", "0"]


def test_a_reused_parser_carries_no_override_into_the_next_run(tmp_path):
    assert main(["run", "--preset", "fig6", "--set", "nrx=64",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--preset", "fig6", "--out", str(tmp_path / "b")]) == 0
    for name, overrides in (("a", {"nrx": "64"}), ("b", {})):
        manifest = json.loads((tmp_path / name / "fig6.manifest.json").read_text())
        assert manifest["overrides"] == overrides


def test_unknown_preset_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "fig99", "--out", str(tmp_path / "a")])
    assert exc.value.code == 2
    assert not (tmp_path / "a").exists()
    # the parser that raised serves the next call
    assert main(["run", "--preset", "custom", "--set", "sweep=ps:1:2:2",
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "custom.csv").exists()


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FDRELAY_OUT", str(tmp_path / "envout"))
    assert main(["run", "--preset", "custom", "--set", "sweep=ps:1:2:2"]) == 0
    assert (tmp_path / "envout" / "custom.csv").exists()


def test_cell_formatting_rules():
    assert _cell(True) == "1"
    assert _cell(7) == "7"
    assert _cell(0.5) == "0.5"
    assert _cell("zf") == "zf"
    with pytest.raises(ValueError, match="^non-finite value in results table$"):
        _cell(float("nan"))


def test_run_spec_guards(tmp_path):
    with pytest.raises(ValueError, match="^unknown preset 'fig1'$"):
        run_spec(RunSpec(preset="fig1", seed=1, trials=1, overrides={},
                         out_dir=str(tmp_path)))
    with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
        run_spec(RunSpec(preset="fig6", seed=-3, trials=1, overrides={},
                         out_dir=str(tmp_path)))
    with pytest.raises(ValueError, match="^trials must be >= 1 and an integer$"):
        run_spec(RunSpec(preset="fig6", seed=1, trials=0, overrides={},
                         out_dir=str(tmp_path)))
    # a fractional trials count is refused by name, fig8's drops too
    for preset in ("fig6", "fig8"):
        with pytest.raises(ValueError, match="trials must be >= 1 and an integer"):
            run_spec(RunSpec(preset=preset, seed=1, trials=2.5, overrides={},
                             out_dir=str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()
