"""Digest of the CLI's outputs over a fixed list of runs, for byte-identity checks.

Runs every spec of :func:`specs` in process through ``fdrelay.cli.main`` and
prints the numpy and BLAS versions, then one line per output: the spec,
its exit code, the file name, the file's sha256 and the run's stderr (a failed
run prints one line with ``-`` for the file and the hash). Warnings use the
``default`` filter, as outside pytest. One line per Monte Carlo library call
follows (:func:`library_lines`): its label and the sha256 over every field
of its results in field order, so a result the CSVs do not print (a
``HopTerms`` field, a per-pair rate, a stderr) is pinned bit for bit too.
Every spec that exits 0 is replayed from its manifest in the same process;
stderr gets the replay count and each spec whose replay wrote other bytes,
and the script exits 1 if any did.

    PYTHONPATH=src python tests/cli_digest.py
    PYTHONPATH=src python tests/cli_digest.py > tests/cli_digest.txt
    PYTHONPATH=src python tests/cli_digest.py --against ../other/src

    PYTHONPATH=src python tests/cli_digest.py --against ../other/src --rel

``--against SRC`` runs the same specs on the fdrelay package under SRC (in a
child process) and prints a unified diff of the two digests, or a count of
identical outputs; it exits 1 if any output differs. After a diff, stderr
gets one line that counts this tree's differing outputs by exit code: 0 on
both sides, 2 on both sides (only the refusal's message changed), or
changed, and counts the library lines that differ. The child checks its
own replays, and a failure there stops the comparison. Both sides run this
tree's spec list. With ``--rel`` it prints, instead of the diff, one line
per column of each CSV that differs (spec, file, column, and the largest
|a - b| / max(|a|, |b|) over the rows), and one line for any other output
that differs. ``--keep DIR`` also writes every output under
``DIR/<spec number>/``.

Besides the specs that :func:`specs` writes out, two fixed lists feed it:
``REFUSALS``, the (argv, message) rows that ``tests/test_cli.py`` runs as
refusals, and ``tests/cli_digest_specs.txt``, one argv per line with its
items joined by spaces. That file holds 352 runs of fig4, fig6, fig7, fig8
and custom, drawn once from the benchmark's ``cli_sweeps`` arguments for 60
seeds (without the repeats) and frozen, so a change to the benchmark moves
no spec. No argv is run twice.

``tests/cli_digest.txt`` is the committed stdout, which
``tests/test_cli_digest.py`` compares with this tree's digest line by line; a
change that moves output bytes, or runs under other library versions, writes
it again with the second command above.
"""
import argparse
import contextlib
import csv
import dataclasses
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np

from fdrelay import SystemConfig, cli, convergence_probe, make_profile, simulate
from fdrelay.montecarlo import wishart_inverse_moment

HERE = os.path.dirname(os.path.abspath(__file__))

# the scalar edges of every one-override probe, here and in
# tests/test_boundary.py, at K = 10, at every config key and every scalar
# extra key the CLI reads (custom's sweep is no scalar; its edge probes set
# it themselves)
EDGE_VALUES = ("0", "1", "10", "11", "-1", "1e300", "2.5", "nan", "inf")
CONFIG_KEYS = tuple(cli._KEY_FIELDS)
EXTRA_KEYS = {name: tuple(key for key in preset.extras if key != "sweep")
              for name, preset in cli._PRESETS.items()}

TWO_KEYS = [  # (preset, first key=value, second key=value, the field both set)
    ("custom", "ps_db=20", "ps=1", "Ps"),
    ("fig6", "n_ant=64", "nrx=32", "Nrx"),
    ("fig4", "pp_fixed_db=5", "pp=2", "Pp"),
    # custom's sweep sets the fields of the key it sweeps
    ("custom", "nrx=50", "sweep=nrx:40:60:3", "Nrx"),
    ("custom", "sweep=n_ant:16:64:3", "ntx=32", "Ntx"),
]


def _rows(pairs) -> list:
    return [(label.split(), message) for label, message in pairs]


# (argv after ``run``, message): each run exits 2, prints {"error": message,
# "type": "ValueError"} as its one stderr line and writes nothing
# (tests/test_cli.py, which runs the three named slices under names of their
# own), and each argv is a spec of this digest

# two faults, a bad config value and a bad extra, in both argument orders:
# the first in argument order is named, custom's sweep spec after the rest
FIRST_OF_TWO = _rows([
    ("--preset fig4 --set k=2.5 --set target_rate=abc", "override k=2.5 is not an integer"),
    ("--preset fig4 --set target_rate=abc --set k=2.5", "override target_rate=abc is not a number"),
    ("--preset fig8 --set k=2.5 --set disk_diameter=abc", "override k=2.5 is not an integer"),
    ("--preset fig8 --set disk_diameter=abc --set k=2.5",
     "override disk_diameter=abc is not a number"),
    ("--preset fig9 --set k=2.5 --set p0_db=abc", "override k=2.5 is not an integer"),
    ("--preset fig9 --set p0_db=abc --set k=2.5", "override p0_db=abc is not a number"),
    ("--preset custom --set tau=2.5 --set sweep=n_ant:8:12:x", "override tau=2.5 is not an integer"),
    ("--preset custom --set sweep=n_ant:8:12:x --set tau=2.5", "override tau=2.5 is not an integer"),
])

# fig2/fig3 set the array size, Ps and Pr = K Ps per row, fig4/fig7 the
# array size and fig6 the loop level, so an override of one would mislabel
# the rows or vanish; fig4 bisects Ps with Pr = K Ps and fig9's allocator
# chooses both powers, so a power override would change nothing but the
# manifest; custom sets the field it sweeps
SWEPT_FIELDS = _rows([
    *[(f"--preset {preset} --trials 20 --set {key}={value}",
       f"{preset} sets {field} itself; override {key!r} is not allowed")
      for preset, key, value, field in [
          ("fig3", "n_ant", "64", "Nrx"), ("fig2", "pr_db", "5", "Pr"),
          ("fig4", "nrx", "64", "Nrx"), ("fig6", "sigma_li_db", "0", "sigma_li_sq"),
          ("fig7", "n_ant", "64", "Nrx"),
          *[(preset, key, value, field) for preset in ("fig4", "fig9")
            for key, value, field in (("ps", "2", "Ps"), ("ps_db", "30", "Ps"),
                                      ("pr", "0.5", "Pr"), ("pr_db", "0", "Pr"))]]],
    ("--preset custom --trials 20 --set nrx=50 --set sweep=nrx:40:60:3",
     "overrides 'nrx' and 'sweep' both set Nrx"),
])

# a bad sweep number is refused before numpy builds the grid
BAD_SWEEPS = _rows([
    (f"--preset custom --set sweep={sweep}", f"sweep {sweep!r}: {reason}")
    for sweep, reason in [
        ("n_ant:8:12:x", "invalid literal for int() with base 10: 'x'"),
        ("n_ant:a:12:3", "could not convert string to float: 'a'"),
        ("n_ant:1e400:3:2", "start and stop must be finite"),
        ("ps_db:0:inf:3", "start and stop must be finite"),
        ("ps:nan:1:3", "start and stop must be finite"),
        ("ps:1100:1200:2:log2", "log2 grid points must be finite"),
        ("n_ant:8:12:0", "points must be at least 1")]])

REFUSALS = [*FIRST_OF_TWO, *_rows([
    ("--preset custom --set tau=2.5", "override tau=2.5 is not an integer")]),
    *SWEPT_FIELDS, *_rows([
    # an extra a preset never reads would change nothing but its manifest
    *[(f"--preset {preset} --set {key}={value}", f"{preset} does not read override {key!r}")
      for preset, key, value in [("fig6", "target_rate", "3"), ("fig6", "p0_db", "40"),
                                 ("fig4", "p1_db", "20"), ("fig9", "sweep", "ps:1:2:2"),
                                 ("fig2", "disk_diameter", "500")]],
    # two keys would apply in argv order but replay in the manifest's sorted
    # order, so the run is refused by name
    *[(f"--preset {preset} --set {first} --set {second}"
       + (" --set sweep=sigma_li_db:0:10:2" if preset == "custom" and "sweep=" not in
          first + second else ""),
       f"overrides {first.split('=')[0]!r} and {second.split('=')[0]!r} both set {field}")
      for preset, first, second, field in TWO_KEYS],
    # fig9 allocates on the ten-pair snapshot profile
    ("--preset fig9 --set k=4", "profile has 10 pairs but cfg.K is 4"),
    # c*p1 overflows at this loop level and relay peak: the allocator names p1
    # before any arithmetic overflows, so no warning is listed
    ("--preset fig9 --set sigma_li_sq=1e300 --set p1_db=100",
     "p1 too large: the uniform-peak SINR term c*p1 is not finite"),
    # Pp = 0 leaves no channel estimate: the profile names the field
    ("--preset fig6 --set pp=0",
     "sigma_sr_sq must be positive, or there is no channel estimate"),
    *[(f"--preset fig6 --set {key}=10.7", f"override {key}=10.7 is not an integer")
      for key in ("k", "nrx", "ntx", "t", "tau", "n_ant")],
    # a config key, an integer key and two extras
    *[(f"--preset {preset} --trials 2 --set {item}", f"override {item} is not a number")
      for preset, item in [("fig6", "ps=abc"), ("fig6", "k=abc"), ("fig4", "target_rate=x"),
                           ("fig8", "path_exponent=y")]],
    ("--preset fig6 --set bogus=1", "unknown override key 'bogus'"),
    ("--preset fig6 --set novalue", "override 'novalue' is not KEY=VALUE"),
    ("--preset custom", "custom preset needs --set sweep=field:start:stop:points[:scale]"),
    ("--preset custom --set sweep=zzz:1:2:2", "sweep field 'zzz' is not a config field"),
    ("--preset custom --set sweep=ps:1:2:2:cubic", "unknown sweep scale 'cubic'"),
    ("--preset custom --set sweep=ps:1:2", "sweep spec is field:start:stop:points[:scale]"),
    ("--preset fig6 --set delay_d=2", "unknown override key 'delay_d'"),
    ("--preset fig6 --seed -3", "seed must be >= 0 and an integer")]),
    *BAD_SWEEPS, *_rows([
    # 10^(x/10) overflows past about 3 083 dB, and inf and nan have no
    # finite linear value either
    *[(f"--preset {preset} --set {item}", f"override {item} has no finite linear value")
      for preset, item in [("fig4", "pp_fixed_db=1e300"), ("fig6", "ps_db=1e300"),
                           ("fig9", "p1_db=inf"), ("fig7", "sigma_li_db=nan")]],
    # fig8's extras meet the scalar rule: a NaN fails DropGeometry by name,
    # not the drawn gains
    ("--preset fig8 --trials 2 --set disk_diameter=nan", "disk_diameter must be finite and > 0"),
    ("--preset fig8 --trials 2 --set shadow_sigma_db=nan",
     "shadow_sigma_db must be finite and >= 0"),
    ("--preset fig6 --manifest x.json", "use either --preset or --manifest, not both"),
    ("", "one of --preset or --manifest is required")])]


def _sets(*items) -> list:
    return [arg for item in items for arg in ("--set", item)]


def versions() -> str:
    """The digest's first line: the numpy and BLAS builds its bytes come from
    (no fdrelay code loads scipy, so its version moves no byte)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} blas {blas.get('name')} {blas.get('version')}"


def specs() -> list:
    """argv lists (after ``run``): presets, sweeps, the refusals, the sampled
    benchmark runs of ``cli_digest_specs.txt`` and the edge probes; each once."""
    out = [["--preset", p] for p in ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
                                     "fig9", "custom")]
    out += [
        ["--preset", "fig2", "--trials", "200"],
        ["--preset", "fig3", "--trials", "200"],
        ["--preset", "fig2", "--trials", "200"] + _sets("k=2", "tau=4"),
        ["--preset", "fig3", "--trials", "200"] + _sets("k=3", "tau=6"),
        ["--preset", "fig4"] + _sets("target_rate=1.7", "pp_fixed_db=13"),
        ["--preset", "fig8", "--trials", "300"] + _sets("path_exponent=2"),
        ["--preset", "fig8", "--trials", "50"] + _sets("shadow_sigma_db=6"),
        ["--preset", "fig8", "--trials", "1"],
    ]
    for sweep in ("pp_db:-10:20:7:db", "n_ant:16:512:6:log2", "k:2:9:8", "k:2:12:11",
                  "k:9:2:8", "tau:20:150:6", "t:21:400:9", "t:400:5:4", "n_ant:5:-3:3"):
        out.append(["--preset", "custom"] + _sets(f"sweep={sweep}"))
    out.append(["--preset", "custom"] + _sets("sweep=n_ant:16:512:6:log2", "k=6", "tau=12"))
    with open(os.path.join(HERE, "cli_digest_specs.txt")) as fh:
        rest = [line.split() for line in fh.read().splitlines()]
    for preset in ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "custom"):
        for key in CONFIG_KEYS + EXTRA_KEYS[preset]:
            for value in EDGE_VALUES:
                argv = ["--preset", preset, "--trials", "2"] + _sets(f"{key}={value}")
                if preset == "custom":
                    argv += _sets("sweep=sigma_li_db:-10:10:3")
                rest.append(argv)
    return out + [argv for argv, _ in REFUSALS if argv not in out + rest] + rest


def digest(argv: list, out: str) -> tuple:
    """The run's exit code and its digest lines."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["run"] + argv + ["--out", out])
    label = " ".join(argv)
    err = json.dumps(stderr.getvalue())
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if not names:
        return code, [f"{label}\t{code}\t-\t-\t{err}"]
    lines = []
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        lines.append(f"{label}\t{code}\t{name}\t{sha}\t{err}")
    return code, lines


def _field_sha(result) -> str:
    """sha256 over every field of a result in field order: a record's fields
    (a HopTerms within one in turn), a tuple's items, and each value as the
    bytes of its numpy array."""
    h = hashlib.sha256()

    def add(x):
        if dataclasses.is_dataclass(x):
            for field in dataclasses.fields(x):
                add(getattr(x, field.name))
        elif isinstance(x, (tuple, list)):
            for item in x:
                add(item)
        else:
            h.update(np.asarray(x).tobytes())

    add(result)
    return h.hexdigest()


def _points(k: int, n: int) -> list:
    """Two (cfg, profile) points that share K and n antennas on each side."""
    cfg = SystemConfig(K=k, Nrx=n, Ntx=n, tau=2 * k, Pp=4.0, Ps=2.0, Pr=8.0)
    other = dataclasses.replace(cfg, Pp=10.0, Ps=5.0, Pr=1.0, sigma_li_sq=0.3)
    return [(c, make_profile(np.linspace(0.5, 1.5, k), np.linspace(1.2, 0.8, k), c.tau, c.Pp))
            for c in (cfg, other)]


def library_lines() -> list:
    """One line per library call: its label and the sha256 of its results
    (_field_sha). simulate runs both schemes at K = 2 (the multiply-add
    products) and K = 10 (`@`) with two points a call, and MR with fewer
    antennas than pairs; then wishart_inverse_moment and the decode and
    forward probes of both schemes."""
    results = []
    for seed, (scheme, k, n, trials) in enumerate([
            ("zf", 2, 8, 300), ("zf", 10, 24, 200), ("mr", 2, 8, 300),
            ("mr", 10, 24, 200), ("mr", 4, 3, 300)]):
        results.append((f"simulate {scheme} K={k} N={n}", simulate(
            _points(k, n), scheme, trials, np.random.default_rng(seed))))
    results.append(("wishart_inverse_moment n_ant=12 K=3", wishart_inverse_moment(
        12, [0.5, 1.0, 2.0], 500, np.random.default_rng(5))))
    cfg, prof = _points(4, 16)[0]
    for scheme in ("zf", "mr"):
        for kind in ("decode", "forward"):
            results.append((f"convergence_probe {kind} {scheme}", convergence_probe(
                kind, cfg, prof, scheme, 200, np.random.default_rng(6), er=5.0)))
    return [f"{label}\t{_field_sha(result)}" for label, result in results]


def replay_differs(out: str, again: str) -> bool:
    """Replay the manifest in out into again; True if any output's bytes differ."""
    manifest = next(name for name in os.listdir(out) if name.endswith(".manifest.json"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--manifest", os.path.join(out, manifest), "--out", again])
    names = sorted(os.listdir(out))
    return code != 0 or not os.path.isdir(again) or names != sorted(os.listdir(again)) \
        or any(_read(os.path.join(out, n)) != _read(os.path.join(again, n)) for n in names)


def digest_all(keep=None) -> tuple:
    """The digest lines (the library's last), and the labels of the specs
    that exit 0 and whose manifest replay in this process writes other
    bytes, with the replay count."""
    warnings.simplefilter("default")
    lines, differs, replays = [], [], 0
    for i, argv in enumerate(specs()):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(keep, str(i)) if keep else os.path.join(tmp, "out")
            code, spec_lines = digest(argv, out)
            lines += spec_lines
            if code == 0:
                replays += 1
                if replay_differs(out, os.path.join(tmp, "replay")):
                    differs.append(" ".join(argv))
    return lines + library_lines(), differs, replays


def _read(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _rel(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two numeric cells, 0 when equal; inf for text that differs."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    return abs(x - y) / max(abs(x), abs(y))


def rel_report(mine: str, theirs: str) -> list:
    """Per differing output of two --keep trees: one line per CSV column with the
    largest relative difference over its rows, or one line for another file."""
    labels = [" ".join(argv) for argv in specs()]
    lines = []
    for i, label in enumerate(labels):
        names = set()
        for root in (mine, theirs):
            if os.path.isdir(os.path.join(root, str(i))):
                names |= set(os.listdir(os.path.join(root, str(i))))
        for name in sorted(names):
            blobs = [_read(os.path.join(root, str(i), name)) for root in (mine, theirs)]
            if blobs[0] == blobs[1]:
                continue
            if not name.endswith(".csv") or None in blobs:
                lines.append(f"{label}\t{name}\tdiffers")
                continue
            a, b = (list(csv.reader(io.StringIO(blob.decode()))) for blob in blobs)
            if len(a) != len(b) or a[0] != b[0]:
                lines.append(f"{label}\t{name}\tshape or header differs")
                continue
            for j, column in enumerate(a[0]):
                worst = max(_rel(x[j], y[j]) for x, y in zip(a[1:], b[1:]))
                lines.append(f"{label}\t{name}\t{column}\t{worst:.3g}")
    return lines


def classify(theirs: list, mine: list) -> str:
    """The counts of mine's digest lines missing from theirs: a run's by the
    exit code of its spec on each side (a failed run writes no file, so an
    exit 2 on both sides differs in stderr alone), and the library's (two
    fields a line)."""
    codes = {line.split("\t")[0]: line.split("\t")[1] for line in theirs}
    counts = {"0": 0, "2": 0, "changed": 0, "library": 0}
    known = set(theirs)
    for line in mine:
        if line not in known:
            label, code = line.split("\t")[:2]
            if line.count("\t") == 1:
                counts["library"] += 1
            else:
                counts[code if codes.get(label) == code else "changed"] += 1
    return (f"{counts['0']} differ with exit 0 on both sides, {counts['2']} exit 2 "
            f"on both sides with only stderr changed, {counts['changed']} changed exit code, "
            f"{counts['library']} library results differ")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="SRC",
                        help="the src/ directory of another checkout to compare with")
    parser.add_argument("--rel", action="store_true",
                        help="with --against: largest relative difference per CSV column")
    parser.add_argument("--keep", metavar="DIR", help="also write every output under DIR")
    args = parser.parse_args()
    if args.rel and not args.against:
        parser.error("--rel needs --against")
    with tempfile.TemporaryDirectory() as tmp:
        mine = args.keep or (os.path.join(tmp, "this") if args.rel else None)
        lines, differs, replays = digest_all(mine)
        lines.insert(0, versions())
        for label in differs:
            print(f"replay differs: {label}", file=sys.stderr)
        print(f"{replays - len(differs)} of {replays} replays byte-identical "
              f"({os.path.dirname(cli.__file__)})", file=sys.stderr)
        if not args.against:
            print("\n".join(lines))
            return 1 if differs else 0
        env = dict(os.environ, PYTHONPATH=os.path.abspath(args.against))
        theirs = os.path.join(tmp, "other")
        child = [sys.executable, os.path.abspath(__file__)] + (["--keep", theirs] if args.rel else [])
        other = subprocess.run(child, env=env, stdout=subprocess.PIPE, text=True,
                               check=True).stdout.splitlines()
        diff = list(difflib.unified_diff(other, lines, args.against, "this tree", lineterm=""))
        if args.rel:
            print("\n".join(rel_report(mine, theirs)
                            + [f"{len(set(lines) - set(other))} of {len(lines)} digest lines differ"]))
        else:
            print("\n".join(diff) if diff else f"{len(lines)} outputs identical")
        if diff:
            print(classify(other[1:], lines[1:]), file=sys.stderr)  # past the version lines
    return 1 if diff or differs else 0


if __name__ == "__main__":
    sys.exit(main())
