"""Print the GP work of fig9's 26 allocations: for each, its status, rounds,
converged flag, GP solves, main-path steps and phase-1 steps, then the
totals. The preset runs in process with its defaults, as `fdrelay run
--preset fig9` does; its own output goes to stderr.

    PYTHONPATH=src python tests/gp_steps.py
"""
import contextlib
import sys
import tempfile

from fdrelay import cli, powalloc


def main() -> None:
    rows = []
    results = []
    solve_gp, optimize_powers = powalloc.solve_gp, cli.optimize_powers

    def counted_solve(*args, **kwargs):
        results.append(solve_gp(*args, **kwargs))
        return results[-1]

    def counted_alloc(cfg, profile, scheme, s0, **kwargs):
        results.clear()
        alloc = optimize_powers(cfg, profile, scheme, s0, **kwargs)
        rows.append((scheme, s0, alloc.status, alloc.iterations, alloc.converged,
                     len(results), sum(r.iterations for r in results),
                     sum(r.phase1_iterations for r in results)))
        return alloc

    powalloc.solve_gp, cli.optimize_powers = counted_solve, counted_alloc
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["run", "--preset", "fig9", "--out", tmp])
    finally:
        powalloc.solve_gp, cli.optimize_powers = solve_gp, optimize_powers
    print("scheme s0 status rounds converged solves main phase1")
    for scheme, s0, status, rounds, converged, *counts in rows:
        print(f"{scheme} {s0:g} {status} {rounds} {int(converged)} "
              + " ".join(map(str, counts)))
    totals = [sum(row[i] for row in rows) for i in (5, 6, 7)]
    print(f"total {len(rows)} allocations: {totals[0]} solves, {totals[1]} main-path "
          f"steps, {totals[2]} phase-1 steps")
    sys.exit(code)


if __name__ == "__main__":
    main()
