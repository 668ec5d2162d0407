"""Digest of the CLI's outputs over a fixed list of runs, for byte-identity checks.

Runs every spec of :func:`specs` in process through ``fdrelay.cli.main`` and
prints one line per output: the spec, its exit code, the file name, the file's
sha256 and the run's stderr (a failed run prints one line with ``-`` for the
file and the hash). Warnings use the ``default`` filter, as outside pytest.
Every spec that exits 0 is replayed from its manifest in the same process;
stderr gets the replay count and each spec whose replay wrote other bytes,
and the script exits 1 if any did.

    PYTHONPATH=src python tests/cli_digest.py
    PYTHONPATH=src python tests/cli_digest.py --against ../other/src

    PYTHONPATH=src python tests/cli_digest.py --against ../other/src --rel

``--against SRC`` runs the same specs on the fdrelay package under SRC (in a
child process) and prints a unified diff of the two digests, or a count of
identical outputs; it exits 1 if any output differs. The child checks its
own replays, and a failure there stops the comparison. Both sides take the
benchmark specs from this tree's ``perfbench/workloads.py``. With ``--rel``
it prints, instead of the diff, one line per column of each CSV that differs
(spec, file, column, and the largest |a - b| / max(|a|, |b|) over the rows),
and one line for any other output that differs. ``--keep DIR`` also writes
every output under ``DIR/<spec number>/``.
"""
import argparse
import contextlib
import csv
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

from fdrelay import cli

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

# the scalar edges of the boundary probes (tests/test_boundary.py), K = 10
EDGE_VALUES = ("0", "1", "10", "11", "-1", "1e300", "2.5", "nan", "inf")
CONFIG_KEYS = ("k", "nrx", "ntx", "n_ant", "t", "tau", "pp", "ps", "pr", "sigma_li_sq",
               "pp_db", "ps_db", "pr_db", "sigma_li_db")
EXTRA_KEYS = {"fig4": ("target_rate", "pp_fixed_db"),
              "fig8": ("disk_diameter", "shadow_sigma_db", "path_exponent", "ref_distance")}


def _sets(*items) -> list:
    return [arg for item in items for arg in ("--set", item)]


def specs() -> list:
    """argv lists (after ``run``): presets, sweeps, benchmark ops and edge probes."""
    sys.path.insert(0, PERFBENCH)
    from workloads import CLI_PRESETS, _cli_args, _rng

    out = [["--preset", p] for p in ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
                                     "fig9", "custom")]
    out += [
        ["--preset", "fig2", "--trials", "200"],
        ["--preset", "fig3", "--trials", "200"],
        ["--preset", "fig4"] + _sets("target_rate=1.7", "pp_fixed_db=13"),
        ["--preset", "fig8", "--trials", "300"] + _sets("path_exponent=2"),
        ["--preset", "fig8", "--trials", "50"] + _sets("shadow_sigma_db=6"),
        ["--preset", "fig8", "--trials", "2"] + _sets("path_exponent=1e300"),
        ["--preset", "fig2", "--trials", "2"] + _sets("sigma_li_sq=1e300"),
        ["--preset", "fig9"] + _sets("k=4"),
    ]
    for sweep in ("pp_db:-10:20:7:db", "n_ant:16:512:6:log2", "k:2:9:8", "k:2:12:11",
                  "k:9:2:8", "tau:20:150:6", "t:21:400:9", "t:400:5:4", "n_ant:5:-3:3"):
        out.append(["--preset", "custom"] + _sets(f"sweep={sweep}"))
    out.append(["--preset", "custom"] + _sets("sweep=n_ant:16:512:6:log2", "k=6", "tau=12"))
    for seed in range(60):
        out += [_cli_args(p, _rng(seed, i)) for i, p in enumerate(CLI_PRESETS)]
    for preset in ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "custom"):
        for key in CONFIG_KEYS + EXTRA_KEYS.get(preset, ()):
            for value in EDGE_VALUES:
                argv = ["--preset", preset, "--trials", "2"] + _sets(f"{key}={value}")
                if preset == "custom":
                    argv += _sets("sweep=sigma_li_db:-10:10:3")
                out.append(argv)
    return out


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


def replay_differs(out: str, again: str) -> bool:
    """Replay the manifest in out into again; True if any output's bytes differ."""
    manifest = next(name for name in os.listdir(out) if name.endswith(".manifest.json"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--manifest", os.path.join(out, manifest), "--out", again])
    names = sorted(os.listdir(out))
    return code != 0 or not os.path.isdir(again) or names != sorted(os.listdir(again)) \
        or any(_read(os.path.join(out, n)) != _read(os.path.join(again, n)) for n in names)


def digest_all(keep=None) -> tuple:
    """The digest lines, and the labels of the specs that exit 0 and whose
    manifest replay in this process writes other bytes, with the replay count."""
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
    return lines, differs, replays


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
    return 1 if diff or differs else 0


if __name__ == "__main__":
    sys.exit(main())
