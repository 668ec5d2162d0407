"""fdrelay benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload mc_fig --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fdrelay is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (set-up time, wall time per pass, op latency median and
tail, peak memory), times corrected for the speed of the shared host as
``hostspeed.py`` describes; with ``--trace 1`` passes alternate untraced and
traced and the metrics are per layer, taken from spans around calls into
each fdrelay module. The line before it holds details: quartiles, sample
counts, the tail percentile, failure reasons, the uncorrected times and an
environment stamp. A traced run also writes its spans to ``.perfbench_out/``.

A run is ``round(seconds / nominal pass time)`` passes of its workload, so
its size is fixed for a given ``--seconds``; it stops starting passes only
after three times ``--seconds``.
"""
import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every
# set-up probe this process starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, hooked  # noqa: E402
from summary import failed_share, quartiles, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, SRC)

SETUP_REPEATS = 3
RUN_CAP = 3.0  # a run starts no pass after RUN_CAP * --seconds


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, run one warm-up op, print the clock")
    return p.parse_args(argv)


def _import_workloads():
    """The workload module, with fdrelay loaded from this checkout's src/."""
    import fdrelay
    if os.path.commonpath([os.path.abspath(fdrelay.__file__), SRC]) != SRC:
        raise ImportError(f"fdrelay resolved outside {SRC}: {fdrelay.__file__}")
    import workloads
    return workloads


def _call(op):
    """The op's output, or the exception it raised (a raising op is a failed op)."""
    try:
        return op.run()
    except Exception as exc:
        return exc


def _judge(op, out):
    """Failure reason of one op's output, or None."""
    if isinstance(out, Exception):
        return f"{op.name}: raised {type(out).__name__}: {out}"
    try:
        reason = op.check(out)
    except Exception as exc:  # a check that cannot read the output is a failure
        reason = f"check raised {type(exc).__name__}: {exc}"
    return None if reason is None else f"{op.name}: {reason}"


def _setup_probe(args) -> int:
    wl = _import_workloads().WORKLOADS[args.workload]
    scratch = os.path.join(OUT, f"probe-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        op = wl.warmup(args.seed, scratch)
        out = _call(op)
        ready = time.monotonic_ns()
        # host speed right after set-up, for its correction; not part of set-up
        kernel_s = hostspeed.probe_speed()
        reason = _judge(op, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if reason:
        print(reason, file=sys.stderr)
        return 1
    print(ready, kernel_s)
    return 0


def _setup_seconds(args) -> list:
    """(raw, kernel) seconds from interpreter start to a finished warm-up op,
    each in a fresh process, with the kernel time measured right after it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        # CLOCK_MONOTONIC is shared by every process on the machine
        start = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        ready, kernel_s = proc.stdout.split()[-2:]
        samples.append(((int(ready) - start) / 1e9, float(kernel_s)))
    return samples


def _env_stamp() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS")},
    }


def _run_passes(wl, args, scratch, tracer, hooks, sampler=None):
    """Timed passes; traced ones (every other in a traced run) carry the hooks.

    Walls and latencies are ``(start_ns, end_ns, seconds)`` intervals; with a
    sampler, the time its handler took inside an interval is left out.
    """
    n_passes = max(1, round(args.seconds / wl.pass_s)) * (2 if args.trace else 1)
    paused = (lambda: sampler.paused_ns) if sampler else (lambda: 0)

    def interval(start, start_paused):
        end = time.perf_counter_ns()
        return start, end, (end - start - (paused() - start_paused)) / 1e9

    walls = {False: [], True: []}
    latencies, failures, names, missing = [], [], [], set()
    index = 0
    started = time.perf_counter()
    for p in range(n_passes):
        if p and time.perf_counter() - started > RUN_CAP * args.seconds:
            break
        traced = bool(args.trace) and p % 2 == 1
        ops = wl.pass_ops(args.seed, index, scratch)
        outs = []
        with (hooked(tracer, hooks) if traced else nullcontext([])) as absent:
            missing.update(absent)
            t0, t0_paused = time.perf_counter_ns(), paused()
            for op in ops:
                tracer.op = index
                index += 1
                s, s_paused = time.perf_counter_ns(), paused()
                out = _call(op)
                latencies.append(interval(s, s_paused))
                outs.append(out)
                names.append(op.name)
            walls[traced].append(interval(t0, t0_paused))
        failures += [_judge(op, out) for op, out in zip(ops, outs)]
        for entry in os.scandir(scratch):
            shutil.rmtree(entry.path, ignore_errors=True)
    return walls, latencies, failures, names, sorted(missing)


def _seconds(intervals, sampler=None) -> list:
    """Seconds of each interval, corrected for host speed when sampled."""
    if sampler is None:
        return [sec for _, _, sec in intervals]
    return [hostspeed.corrected(sec, sampler.kernel_s(start, end))
            for start, end, sec in intervals]


def _measure(args):
    """(detail, result) of one run."""
    load_before = os.getloadavg()
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else _setup_seconds(args)
    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tracer = Tracer()
    # end-to-end timings are corrected for host speed; traced runs stay raw
    sampler = None if args.trace else hostspeed.Sampler()
    try:
        warm = wl.warmup(args.seed, scratch)
        warm_reason = _judge(warm, _call(warm))
        with sampler or nullcontext():
            walls, intervals, failures, names, missing = _run_passes(
                wl, args, scratch, tracer, layers.HOOKS, sampler)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    load_after = os.getloadavg()

    env = _env_stamp()
    env["loadavg_before"], env["loadavg_after"] = load_before, load_after
    env["load_exceeded_nproc"] = max(load_before[0], load_after[0]) > env["nproc"]
    wall = _seconds(walls[bool(args.trace)], sampler)
    latencies = _seconds(intervals, sampler)
    q1, wall_med, q3 = quartiles(wall)
    tail_p, tail = tail_percentile(latencies)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "wall_s": {"q1": q1, "median": wall_med, "q3": q3, "passes": len(wall)},
        "op_s.tail": {"percentile": tail_p, "samples": len(latencies)},
        "failed_share": failed_share(failures),
        "failures": [f for f in failures if f][:10],
        "warmup_failure": warm_reason,
        "env": env,
    }
    if args.trace:
        untraced = statistics.median(_seconds(walls[False]))
        per_layer = layers.layer_metrics(tracer)
        per_layer["trace.overhead_s"] = wall_med - untraced
        per_layer["trace.hooks_missing"] = len(missing)
        per_layer["failed_share"] = detail["failed_share"]
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in layers.METRICS + layers.RUN_METRICS}
        detail["hooks_missing"] = missing
        detail["by_op_s"] = layers.by_op(tracer, names)
        detail["untraced_wall_s"] = untraced
        detail["trace_file"] = _write_spans(tracer, args, names, metrics)
    else:
        raw_latencies = _seconds(intervals)
        setup_s = [hostspeed.corrected(raw, kernel) for raw, kernel in setup]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": wall_med, "unit": "s"},
            "op_s.p50": {"value": statistics.median(latencies), "unit": "s"},
            "op_s.tail": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        detail["setup_s_samples"] = setup_s
        detail["raw"] = {  # as measured, before the host-speed correction
            "setup_s": [raw for raw, _ in setup],
            "wall_s": statistics.median(_seconds(walls[False])),
            "op_s.p50": statistics.median(raw_latencies),
            "op_s.tail": tail_percentile(raw_latencies)[1],
        }
        detail["host_kernel_s"] = {
            "ref": hostspeed.REF_S, "samples": len(sampler.durations),
            "median": statistics.median(sampler.durations),
            "setup": [kernel for _, kernel in setup],
        }
    failed = sum(f is not None for f in failures)
    return detail, {"correct": failed == 0, "attempted": len(failures),
                    "failed": failed, "metrics": metrics}


def _write_spans(tracer, args, names, metrics) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "ops": names,
                   "spans": [[s.name, s.start_ns, s.end_ns, s.parent, s.op]
                             for s in tracer.spans]}, fh)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.setup_probe:
            return _setup_probe(args)
        detail, result = _measure(args)
    except Exception as exc:  # no result line on any failure to run
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
