"""Tests for the experiment CLI: presets, overrides, manifests, errors."""
import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fdrelay import SystemConfig, cli
from fdrelay.cli import (
    RunSpec,
    _base_cfg,
    _cell,
    _flat_profile,
    _se_columns,
    main,
    run_spec,
)


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


@pytest.mark.parametrize("preset,want", [
    ("fig4", {"required_power": 16, "rate_zf": 0, "rate_mr": 0}),
    ("fig6", {"required_power": 0, "rate_zf": 2, "rate_mr": 2}),
    ("fig7", {"required_power": 0, "rate_zf": 2, "rate_mr": 2}),
    ("fig8 --trials 50", {"required_power": 0, "rate_zf": 2, "rate_mr": 2}),
    ("fig2 --trials 4", {"required_power": 0, "rate_zf": 1, "rate_mr": 1}),
    ("custom --set sweep=pp_db:-10:20:7:db", {"required_power": 0, "rate_zf": 2,
                                              "rate_mr": 2}),
    ("custom --set sweep=k:2:9:8", {"required_power": 0, "rate_zf": 16, "rate_mr": 16}),
])
def test_presets_reach_the_rate_layer_through_the_cli_names(tmp_path, monkeypatch,
                                                            preset, want):
    # the benchmark trace counts the rate layer at these module attributes,
    # so a preset that routes around them would zero its per-layer metrics;
    # a sweep makes one batched call per scheme and mode (full and half
    # duplex), one per run of equal K, and fig2's closed form one per scheme
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


@pytest.mark.parametrize("preset, item", [
    ("fig3", "n_ant=64"), ("fig2", "pr_db=5"), ("fig4", "nrx=64"),
    ("fig6", "sigma_li_db=0"), ("fig7", "n_ant=64"), ("custom", "nrx=50"),
    *[(preset, item) for preset in ("fig4", "fig9")
      for item in ("ps=2", "ps_db=30", "pr=0.5", "pr_db=0")],
])
def test_mc_sweeps_reject_overrides_of_swept_fields(tmp_path, capsys, preset, item):
    # fig2/fig3 set the array size, Ps and Pr = K Ps per row, fig4/fig7 the
    # array size, fig6 the loop level and custom its field, so an override
    # of one would mislabel the rows or vanish; fig4 bisects Ps with
    # Pr = K Ps and fig9's allocator chooses both powers, so a power
    # override would change nothing but the manifest
    argv = ["run", "--preset", preset, "--trials", "20", "--set", item,
            "--out", str(tmp_path)]
    if preset == "custom":
        argv += ["--set", "sweep=nrx:40:60:3"]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["type"] == "ValueError"
    assert repr(item.split("=")[0]) in payload["error"]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("preset, item", [
    ("fig6", "target_rate=3"), ("fig6", "p0_db=40"), ("fig4", "p1_db=20"),
    ("fig9", "sweep=ps:1:2:2"), ("fig2", "disk_diameter=500"),
])
def test_presets_reject_extra_keys_they_do_not_read(tmp_path, capsys, preset, item):
    # an extra a preset never reads would change nothing but its manifest
    assert main(["run", "--preset", preset, "--set", item,
                 "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": f"{preset} does not read override "
                                f"{item.split('=')[0]!r}", "type": "ValueError"}
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


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


def test_fig9_refuses_a_pair_count_other_than_its_profile(tmp_path, capsys):
    # fig9 allocates on the ten-pair snapshot profile: k=4 stops at the first
    # rate call with the pair counts, and nothing is written
    out = tmp_path / "out"
    assert main(["run", "--preset", "fig9", "--set", "k=4", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "profile has 10 pairs but cfg.K is 4",
                                  "type": "ValueError"}
    assert not out.exists()


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


def test_fig9_refuses_an_overflowing_peak_by_name(tmp_path, capsys):
    # c*p1 overflows at this loop level and relay peak: the allocator names
    # p1 before any arithmetic overflows, so even outside pytest's error
    # filter the one JSON line lists no warning, and nothing is written
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["run", "--preset", "fig9", "--set", "sigma_li_sq=1e300",
                     "--set", "p1_db=100", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "p1 too large: the uniform-peak SINR term c*p1 is not finite",
        "type": "ValueError"}
    assert not out.exists()


def test_zero_pilot_power_is_refused_by_the_profile(tmp_path, capsys):
    # Pp = 0 leaves no channel estimate (sigma^2 = 0): the profile names the
    # field before any rate is computed, and nothing is written
    assert main(["run", "--preset", "fig6", "--set", "pp=0",
                 "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["type"] == "ValueError"
    assert "sigma_sr_sq" in payload["error"]
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("key", ["k", "nrx", "ntx", "t", "tau", "n_ant"])
def test_non_integer_overrides_exit_2(tmp_path, capsys, key):
    assert main(["run", "--preset", "fig6", "--set", f"{key}=10.7",
                 "--out", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": f"override {key}=10.7 is not an integer",
                       "type": "ValueError"}
    assert not (tmp_path / "fig6.csv").exists()


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


@pytest.mark.parametrize("argv_extra", [
    ["--set", "bogus=1"],
    ["--set", "novalue"],
    ["--preset", "custom"],  # custom without a sweep
    ["--preset", "custom", "--set", "sweep=zzz:1:2:2"],
    ["--preset", "custom", "--set", "sweep=ps:1:2:2:cubic"],
    ["--preset", "custom", "--set", "sweep=ps:1:2"],
    ["--set", "delay_d=2"],
])
def test_bad_requests_exit_2_with_json_error(tmp_path, capsys, argv_extra):
    argv = ["run", "--out", str(tmp_path)] + argv_extra
    if "--preset" not in argv_extra:
        argv += ["--preset", "fig6"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert set(payload) == {"error", "type"}


@pytest.mark.parametrize("key", ["disk_diameter", "shadow_sigma_db"])
def test_geometry_extras_meet_the_scalar_rule(tmp_path, capsys, key):
    # fig8's extras go through cli._value like every key; a NaN then fails
    # DropGeometry by name, not the drawn gains
    out = tmp_path / "out"
    assert main(["run", "--preset", "fig8", "--trials", "2", "--set", f"{key}=nan",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"].startswith(f"{key} must be finite")
    assert not out.exists()
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


def test_preset_and_manifest_are_exclusive(tmp_path, capsys):
    assert main(["run", "--preset", "fig6", "--manifest", "x.json",
                 "--out", str(tmp_path)]) == 2
    assert "not both" in json.loads(capsys.readouterr().err)["error"]
    assert main(["run", "--out", str(tmp_path)]) == 2
    assert "required" in json.loads(capsys.readouterr().err)["error"]


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
    with pytest.raises(ValueError):
        _cell(float("nan"))


def test_run_spec_guards(tmp_path):
    with pytest.raises(ValueError):
        run_spec(RunSpec(preset="fig1", seed=1, trials=1, overrides={},
                         out_dir=str(tmp_path)))
    with pytest.raises(ValueError):
        run_spec(RunSpec(preset="fig6", seed=1, trials=0, overrides={},
                         out_dir=str(tmp_path)))
