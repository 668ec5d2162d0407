"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""
import argparse
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
from layers import HOOKS, layer_metrics  # noqa: E402
from spans import Hook, Span, Tracer, hooked  # noqa: E402
from summary import failed_share, quartiles, tail_percentile  # noqa: E402
from workloads import Op, Workload  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 50, 100, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    pct, value = tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # one more sample beyond would need a lower percentile
    assert sum(v >= value for v in values) == 11


def test_tail_percentile_without_ten_beyond_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tail_percentile(list(range(10))) == (100.0, 9)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_quartiles_of_one_sample():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0


def test_failed_share_counts_reasons():
    assert failed_share([None, "raised", None, "check"]) == 0.5
    assert failed_share([None]) == 0.0
    assert failed_share(["raised"]) == 1.0
    with pytest.raises(ValueError):
        failed_share([])


def _boom():
    raise RuntimeError("boom")


def test_runner_counts_raised_non_finite_and_failed_checks(tmp_path):
    def finite(x):
        return None if math.isfinite(x) else "non-finite"

    ops = [
        Op("ok", lambda: 1.0, finite),
        Op("raises", _boom, finite),
        Op("nan", lambda: math.nan, finite),
        Op("wrong", lambda: 2.0, lambda x: None if x == 1.0 else "wrong value"),
        Op("bad check", lambda: None, lambda x: x + 1),
    ]
    wl = Workload("fake", 1.0, lambda seed, first, scratch: ops, None)
    args = argparse.Namespace(seed=1, seconds=2.0, trace=0)
    walls, latencies, failures, names, missing = run._run_passes(
        wl, args, str(tmp_path), Tracer(), ())
    assert len(walls[False]) == 2 and not walls[True]
    assert len(latencies) == len(failures) == 10
    assert failed_share(failures) == pytest.approx(0.8)
    assert [f is None for f in failures[:5]] == [True, False, False, False, False]
    assert names == [op.name for op in ops] * 2 and missing == []


def test_correction_scales_by_reference_over_measured_kernel_time():
    assert hostspeed.corrected(2.0, hostspeed.REF_S) == 2.0
    # a host twice as slow doubles both the kernel and the interval
    assert hostspeed.corrected(4.0, 2 * hostspeed.REF_S) == pytest.approx(2.0)


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert hostspeed.trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    assert hostspeed.trimmed_mean([100.0] + [1.0] * 8 + [-100.0]) == 1.0
    assert hostspeed.trimmed_mean([1.0] * 8 + [2.0, 2.0]) == 1.125


def test_kernel_window_takes_nearby_samples_and_widens_when_sparse():
    s = hostspeed.Sampler()
    sec = 1_000_000_000
    s.starts = [0, 1 * sec, 2 * sec, 10 * sec, 11 * sec, 12 * sec, 13 * sec]
    s.durations = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0]
    # within WINDOW_S (1 s) of [11.5 s, 11.6 s]: the samples at 11 and 12 s,
    # widened to the nearest four
    assert hostspeed.WINDOW_S == 1.0 and hostspeed.MIN_SAMPLES == 4
    assert s.kernel_s(int(11.5 * sec), int(11.6 * sec)) == 3.0
    assert s.kernel_s(int(0.5 * sec), int(0.6 * sec)) == pytest.approx(6.0 / 4)
    # a window holding every sample
    assert s.kernel_s(0, 13 * sec) == pytest.approx(15.0 / 7)


def test_sampler_restores_the_signal_handler_and_leaves_its_time_out(tmp_path):
    import signal
    before = signal.getsignal(signal.SIGALRM)
    ops = [Op("spin", lambda: sum(range(200_000)), lambda x: None)] * 5
    wl = Workload("fake", 0.05, lambda seed, first, scratch: ops, None)
    args = argparse.Namespace(seed=1, seconds=0.5, trace=0)
    with hostspeed.Sampler(period_s=0.01) as sampler:
        walls, intervals, failures, _, _ = run._run_passes(
            wl, args, str(tmp_path), Tracer(), (), sampler)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) > 2 * hostspeed.EDGE_SAMPLES
    assert failures == [None] * len(intervals)
    # each interval is its clock time less the handler time inside it
    for start, end, sec in walls[False] + intervals:
        assert 0 < sec <= (end - start) / 1e9
    assert sum(sec for _, _, sec in walls[False]) < sum(
        (end - start) / 1e9 for start, end, _ in walls[False])
    corrected = run._seconds(walls[False], sampler)
    assert all(c > 0 for c in corrected) and len(corrected) == len(walls[False])


def _snapshot():
    import importlib
    modules = {h.module for h in HOOKS}
    return {m: dict(vars(importlib.import_module(m))) for m in modules}


def test_hooks_restore_every_module_attribute():
    before = _snapshot()
    tracer = Tracer()
    with pytest.raises(KeyError):
        with hooked(tracer, HOOKS) as missing:
            assert missing == []
            import fdrelay.montecarlo as mc
            assert mc.mc_rate is not before["fdrelay.montecarlo"]["mc_rate"]
            raise KeyError("leave the block early")
    _assert_restored(before)


def _assert_restored(before):
    after = _snapshot()
    assert before.keys() == after.keys()
    for module, attrs in before.items():
        assert attrs.keys() == after[module].keys()
        for name, value in attrs.items():
            assert after[module][name] is value, f"{module}.{name} not restored"


def test_missing_hook_targets_are_reported_not_fatal():
    hooks = (Hook("fdrelay.montecarlo", "no_such_function", "montecarlo.x"),
             Hook("fdrelay.no_such_module", "anything", "none.x"),
             Hook("fdrelay.rates", "rate_zf", "rates.rate_zf"))
    before = _snapshot()
    with hooked(Tracer(), hooks) as missing:
        assert missing == ["fdrelay.montecarlo.no_such_function",
                           "fdrelay.no_such_module.anything"]
    _assert_restored(before)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [Span("montecarlo.mc_rate", 0, 100, -1, 0),
                    Span("channel.direct_channel_batch", 10, 40, 0, 0),
                    Span("channel.direct_channel_batch", 50, 70, 0, 0)]
    assert tracer.self_ns() == [50, 30, 20]


def test_traced_call_fills_its_layer_and_leaves_others_at_zero():
    import numpy as np
    import fdrelay.montecarlo as mc
    tracer = Tracer()
    with hooked(tracer, HOOKS):
        mean, _ = mc.wishart_inverse_moment(4, [1.0, 2.0], 40, np.random.default_rng(0))
    assert mean.shape == (2,)
    m = layer_metrics(tracer)
    assert m["montecarlo.calls"] == 1 and m["montecarlo.trials"] == 40
    assert m["montecarlo.s"] > 0 and m["montecarlo.self_s"] == m["montecarlo.s"]
    assert m["channel.draw_calls"] == 0 and m["gp.solves"] == 0
    assert m["channel.rr_bytes_share"] == 0.0
