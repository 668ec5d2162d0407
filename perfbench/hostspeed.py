"""Host-speed correction of the end-to-end timings.

The benchmark runs on a few cores of a shared host. Other tenants on the same
physical cores slow it down by up to 1.6x for tens of seconds at a time, and
process CPU time slows with wall time, so two runs of the same code a few
minutes apart differ by more than any useful regression bound.

While an untraced run times its passes, a timer signal runs a short fixed
reference kernel every ``PERIOD_S`` seconds. Each timed interval is reported

    measured - time spent in the handler   (the raw time, in the detail line)
    raw * REF_S / kernel time within WINDOW_S of the interval

the second being the time the interval would take on a host where the kernel
takes ``REF_S`` seconds. The kernel time of a window is the mean of its
samples without the highest and lowest tenth: the host switches between a
fast and a slow state many times a second, so a median of the samples jumps
between the two while a mean follows the share of time spent in each.

The kernel is a loop of small numpy and LAPACK calls, as fdrelay's hot loops
are, and never calls fdrelay: a change to the program moves the corrected
time by the same factor as the raw one, while a change in host speed moves
the kernel with it and cancels.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# About the kernel's median time on a 2-core x86 VM with OpenBLAS on one
# thread; corrected timings are in seconds at this kernel speed.
REF_S = 0.002
PERIOD_S = 0.25
WINDOW_S = 1.0
MIN_SAMPLES = 4  # a window with fewer samples widens to the nearest ones
EDGE_SAMPLES = 4  # taken on entry and exit, so that every window has neighbours

_rng = np.random.default_rng(0)
_G = _rng.standard_normal((30, 20))
_H = _rng.standard_normal(30)
_Y = 0.1 * _rng.standard_normal(20)


def reference_kernel(rounds: int = 40) -> float:
    """Fixed work: Newton steps of a 20-variable log-sum-exp, the small
    matrix products, ufuncs and LAPACK solves a GP barrier step takes."""
    acc = 0.0
    for _ in range(rounds):
        z = _G @ _Y + _H
        m = np.max(z)
        w = np.exp(z - m)
        s = np.sum(w)
        p = w / s
        g = _G.T @ p
        h = (_G.T * p) @ _G - np.outer(g, g) + np.eye(20)
        acc += float(m + math.log(s)) + float(np.linalg.solve(h, g) @ g)
    return acc


def trimmed_mean(samples) -> float:
    """Mean without the highest and lowest tenth of the samples."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


def time_kernel() -> float:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return (time.perf_counter_ns() - t0) / 1e9


def probe_speed(seconds: float = 0.25) -> float:
    """Kernel time over about ``seconds`` of back-to-back samples."""
    samples = [time_kernel()]
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        samples.append(time_kernel())
    return trimmed_mean(samples)


class Sampler:
    """Kernel samples taken from a timer signal while the context is open.

    ``paused_ns`` is the handler time so far; an interval measured as
    ``(end - start) - (paused at end - paused at start)`` leaves it out.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[int] = []
        self.durations: list[float] = []
        self.paused_ns = 0
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        reference_kernel()
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.durations.append((t1 - t0) / 1e9)
        self.paused_ns += t1 - t0

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        for _ in range(EDGE_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def kernel_s(self, start_ns: int, end_ns: int) -> float:
        """Kernel time of the samples within WINDOW_S of [start, end]."""
        if not self.starts:
            raise ValueError("no kernel samples")
        margin = int(WINDOW_S * 1e9)
        lo = bisect.bisect_left(self.starts, start_ns - margin)
        hi = bisect.bisect_right(self.starts, end_ns + margin)
        while hi - lo < min(MIN_SAMPLES, len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return trimmed_mean(self.durations[lo:hi])


def corrected(raw_s: float, kernel_s: float) -> float:
    """``raw_s`` scaled to the host speed at which the kernel takes REF_S."""
    return raw_s * REF_S / kernel_s
