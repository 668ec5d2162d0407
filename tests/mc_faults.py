"""Print the minor page faults and wall time of Monte Carlo work, per op.

The ops are the nine mc_fig-shaped grid points (K = 10, N in {50, 100, 200},
SNR in {-10, 0, 10} dB; per scheme, one 100-trial one-point `simulate` call
for the bound and one for the genie rates, as the benchmark's mc_fig op makes
two calls per scheme) and one default fig2 and fig3 run in process, as
`fdrelay run --preset fig2` does. Each op runs twice in one process and the
second run is reported, so what the first run sets up (imports, the
allocator's heap) is not counted. Faults are `ru_minflt` of this process.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/mc_faults.py
"""
import contextlib
import resource
import sys
import tempfile
import time

import numpy as np

from fdrelay import SystemConfig, cli, make_profile, simulate


def _grid_op(n_ant: int, snr_db: float):
    """The calls of one mc_fig grid point, as the benchmark's op sets it up."""
    ps = 10.0 ** (snr_db / 10.0)
    cfg = SystemConfig(K=10, Nrx=n_ant, Ntx=n_ant, T=200, tau=20, Pp=ps, Ps=ps,
                       Pr=10.0 * ps, sigma_li_sq=1.0)
    prof = make_profile(np.ones(cfg.K), np.ones(cfg.K), cfg.tau, cfg.Pp)

    def run():
        for i, scheme in enumerate(("zf", "mr")):
            for j in range(2):
                simulate([(cfg, prof)], scheme, 100, np.random.default_rng((i, j)))

    return f"mc_fig N={n_ant} snr={snr_db:g}dB", run


def _preset_op(preset: str):
    def run():
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["run", "--preset", preset, "--out", tmp])
        if code != 0:
            raise SystemExit(f"{preset} exited {code}")

    return preset, run


def _measure(run) -> tuple:
    """(minor faults, seconds) of one call of run."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run()
    seconds = time.perf_counter() - start
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, seconds


def main() -> None:
    grid = [_grid_op(n, s) for n in (50, 100, 200) for s in (-10.0, 0.0, 10.0)]
    print("op minor_faults ms")
    totals = [0, 0.0]
    for name, run in grid + [_preset_op("fig2"), _preset_op("fig3")]:
        _measure(run)
        faults, seconds = _measure(run)
        print(f"{name} {faults} {seconds * 1e3:.1f}")
        if name.startswith("mc_fig"):
            totals = [totals[0] + faults, totals[1] + seconds]
    print(f"mc_fig pass ({len(grid)} ops): {totals[0]} minor faults, "
          f"{totals[1] * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
