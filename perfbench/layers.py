"""Per-layer metrics of fdrelay, taken from spans around calls into each module.

Each hook sits on the module attribute its caller looks up: the benchmark's
own workloads call ``fdrelay.montecarlo``, ``fdrelay.rates`` and
``fdrelay.powalloc`` through their modules, the Monte Carlo engine reaches the
channel sampler through ``fdrelay.montecarlo.direct_channel_batch``, the
allocator reaches the GP solver through ``fdrelay.powalloc.solve_gp``, and the
CLI reaches rates and drops through its own imported names.

``linproc`` has no public function on the hot path (``_processing`` is
private), so its cost stays inside ``montecarlo.self_s``.
"""
from __future__ import annotations

import math
import os

from spans import Hook, Tracer


def _channel_counts(tracer: Tracer, args, result) -> None:
    tracer.count("channel.trials", args["n"])
    # computed from the sizes of the arrays returned, not measured traffic
    arrays = [a for a in result if a is not None]
    tracer.count("channel.bytes_computed", sum(a.nbytes for a in arrays))
    if result[-1] is not None:
        tracer.count("channel.rr_bytes_computed", result[-1].nbytes)


def _trials(tracer: Tracer, args, result) -> None:
    tracer.count("montecarlo.trials", args["trials"])


def _required_power(tracer: Tracer, args, result) -> None:
    tracer.count("rates.inf_results", int(not math.isfinite(result)))


def _gp(tracer: Tracer, args, result) -> None:
    # GpResult.iterations counts main-path Newton steps; phase 1 is not included
    tracer.count("gp.newton_iters", result.iterations)
    tracer.count("gp.status_infeasible", int(result.status == "infeasible"))
    tracer.count("gp.status_max_iter", int(result.status == "max_iter"))


def _alloc(tracer: Tracer, args, result) -> None:
    tracer.count("powalloc.rounds", result.iterations)
    tracer.count("powalloc.converged", int(result.converged))


def _cli_bytes(tracer: Tracer, args, result) -> None:
    argv = list(args["argv"] or [])
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out and os.path.isdir(out):
        tracer.count("cli.bytes_written", sum(
            e.stat().st_size for e in os.scandir(out) if e.is_file()))


HOOKS = (
    Hook("fdrelay.montecarlo", "direct_channel_batch", "channel.direct_channel_batch",
         _channel_counts),
    Hook("fdrelay.montecarlo", "mc_rate", "montecarlo.mc_rate", _trials),
    Hook("fdrelay.montecarlo", "genie_rates", "montecarlo.genie_rates", _trials),
    Hook("fdrelay.montecarlo", "wishart_inverse_moment",
         "montecarlo.wishart_inverse_moment", _trials),
    Hook("fdrelay.montecarlo", "convergence_probe", "montecarlo.convergence_probe",
         _trials),
    Hook("fdrelay.rates", "rate_zf", "rates.rate_zf"),
    Hook("fdrelay.rates", "rate_mr", "rates.rate_mr"),
    Hook("fdrelay.cli", "rate_zf", "rates.rate_zf"),
    Hook("fdrelay.cli", "rate_mr", "rates.rate_mr"),
    Hook("fdrelay.cli", "required_power", "rates.required_power", _required_power),
    Hook("fdrelay.cli", "draw_urban_profile", "model.draw_urban_profile"),
    Hook("fdrelay.powalloc", "solve_gp", "gp.solve_gp", _gp),
    Hook("fdrelay.powalloc", "optimize_powers", "powalloc.optimize_powers", _alloc,
         warnings_counter="powalloc.warnings"),
    Hook("fdrelay.cli", "main", "cli.main", _cli_bytes),
)

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("channel.draw_calls", "count"), ("channel.draw_s", "s"),
    ("channel.trials", "count"), ("channel.bytes_computed", "B"),
    ("channel.rr_bytes_share", "share"),
    ("montecarlo.calls", "count"), ("montecarlo.trials", "count"),
    ("montecarlo.s", "s"), ("montecarlo.self_s", "s"),
    ("montecarlo.trials_per_s", "1/s"),
    ("rates.calls", "count"), ("rates.s", "s"),
    ("rates.required_power_calls", "count"), ("rates.required_power_s", "s"),
    ("rates.inf_results", "count"),
    ("model.drop_calls", "count"), ("model.drop_s", "s"),
    ("gp.solves", "count"), ("gp.s", "s"), ("gp.newton_iters", "count"),
    ("gp.iters_per_solve", "count"), ("gp.s_per_iter", "s"),
    ("gp.status_infeasible", "count"), ("gp.status_max_iter", "count"),
    ("powalloc.calls", "count"), ("powalloc.s", "s"), ("powalloc.self_s", "s"),
    ("powalloc.gp_per_call", "count"), ("powalloc.rounds", "count"),
    ("powalloc.converged_share", "share"), ("powalloc.warnings", "count"),
    ("cli.runs", "count"), ("cli.s", "s"), ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
)
# run-level metrics the traced run reports next to the layers
RUN_METRICS = (
    ("trace.overhead_s", "s"), ("trace.hooks_missing", "count"),
    ("failed_share", "share"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def by_op(tracer: Tracer, op_names) -> dict:
    """Seconds per layer for each op name, summed over the traced ops."""
    out: dict = {}
    for s in tracer.spans:
        row = out.setdefault(op_names[s.op], {})
        layer = s.name.split(".")[0]
        row[layer] = row.get(layer, 0.0) + (s.end_ns - s.start_ns) / 1e9
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Every metric of METRICS as a number; idle layers read zero."""
    calls, total, own = {}, {}, {}
    for s, self_ns in zip(tracer.spans, tracer.self_ns()):
        for key in {s.name, s.name.split(".")[0]}:
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + (s.end_ns - s.start_ns) / 1e9
            own[key] = own.get(key, 0.0) + self_ns / 1e9
    c = tracer.counts
    m = {
        "channel.draw_calls": calls.get("channel", 0),
        "channel.draw_s": total.get("channel", 0.0),
        "channel.trials": c["channel.trials"],
        "channel.bytes_computed": c["channel.bytes_computed"],
        "channel.rr_bytes_share": _ratio(c["channel.rr_bytes_computed"],
                                         c["channel.bytes_computed"]),
        "montecarlo.calls": calls.get("montecarlo", 0),
        "montecarlo.trials": c["montecarlo.trials"],
        "montecarlo.s": total.get("montecarlo", 0.0),
        "montecarlo.self_s": own.get("montecarlo", 0.0),
        "rates.calls": calls.get("rates", 0),
        "rates.s": total.get("rates", 0.0),
        "rates.required_power_calls": calls.get("rates.required_power", 0),
        "rates.required_power_s": total.get("rates.required_power", 0.0),
        "rates.inf_results": c["rates.inf_results"],
        "model.drop_calls": calls.get("model", 0),
        "model.drop_s": total.get("model", 0.0),
        "gp.solves": calls.get("gp", 0),
        "gp.s": total.get("gp", 0.0),
        "gp.newton_iters": c["gp.newton_iters"],
        "gp.status_infeasible": c["gp.status_infeasible"],
        "gp.status_max_iter": c["gp.status_max_iter"],
        "powalloc.calls": calls.get("powalloc", 0),
        "powalloc.s": total.get("powalloc", 0.0),
        "powalloc.self_s": own.get("powalloc", 0.0),
        "powalloc.rounds": c["powalloc.rounds"],
        "powalloc.warnings": c["powalloc.warnings"],
        "cli.runs": calls.get("cli", 0),
        "cli.s": total.get("cli", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.bytes_written": c["cli.bytes_written"],
    }
    m["montecarlo.trials_per_s"] = _ratio(m["montecarlo.trials"], m["montecarlo.s"])
    m["gp.iters_per_solve"] = _ratio(m["gp.newton_iters"], m["gp.solves"])
    m["gp.s_per_iter"] = _ratio(m["gp.s"], m["gp.newton_iters"])
    m["powalloc.gp_per_call"] = _ratio(m["gp.solves"], m["powalloc.calls"])
    m["powalloc.converged_share"] = _ratio(c["powalloc.converged"], m["powalloc.calls"])
    return {name: m[name] for name, _ in METRICS}
