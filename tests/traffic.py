"""Print each function's src/fdrelay statement lines that real traffic never runs:
every CLI preset once in process (fig2, fig3 and fig8 at 20 trials), then one
pass of each workload of perfbench/workloads.py, traced with sys.settrace.
A preset that exits non-zero or an op whose check fails is traffic that
went wrong: each is named with its reason on stderr, and the exit code is 1.

    PYTHONPATH=src python tests/traffic.py
"""
import ast
import contextlib
import itertools
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "fdrelay")
PRESETS = [["--preset", p, "--trials", "20"] for p in ("fig2", "fig3", "fig8")] + [
    ["--preset", p] for p in ("fig4", "fig6", "fig7", "fig9")] + [
    ["--preset", "custom", "--set", "sweep=k:2:10:9"]]


def owners(tree) -> dict:
    """{statement line: its innermost function node}, docstrings left out."""
    owner = {}
    for fn in ast.walk(tree):  # breadth first: an inner function comes later
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.stmt) and node is not fn and not (
                        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                    owner[node.lineno] = fn
    return owner


def main() -> None:
    seen = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(lambda frame, *_: local if frame.f_code.co_filename.startswith(SRC) else None)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS
    from fdrelay import cli
    failures = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        for i, argv in enumerate(PRESETS):
            if (code := cli.main(["run", "--out", os.path.join(tmp, str(i))] + argv)) != 0:
                failures.append(("run " + " ".join(argv), f"exit code {code}"))
        for name, workload in WORKLOADS.items():
            for op in workload.pass_ops(1, 0, os.path.join(tmp, name)):
                if (reason := op.check(op.run())) is not None:
                    failures.append((f"{name}/{op.name}", reason))
    sys.settrace(None)
    for file in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, file)) as fh:
            owner = owners(ast.parse(fh.read()))
        missed = sorted(n for n in owner if (os.path.join(SRC, file), n) not in seen)
        for fn, lines in itertools.groupby(missed, key=owner.get):
            print(f"{file}:{fn.lineno} {fn.name}: {' '.join(map(str, lines))}")
    for op, reason in failures:
        print(f"failed: {op}: {reason}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
