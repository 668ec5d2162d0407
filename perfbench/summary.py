"""Order statistics and shares the benchmark reports."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """(percentile, value) of the highest percentile with `beyond` samples above it.

    With n sorted samples that is the one at 1-based rank n - beyond, whose
    percentile is 100 (n - beyond) / n. A run with `beyond` samples or fewer
    has no such percentile; it reports its maximum as percentile 100.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    if len(xs) <= beyond:
        return 100.0, xs[-1]
    rank = len(xs) - beyond
    return 100.0 * rank / len(xs), xs[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; one sample is all three."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def failed_share(failures) -> float:
    """Failed ops over attempted ops; `failures` holds one reason or None per op."""
    failures = list(failures)
    if not failures:
        raise ValueError("no ops attempted")
    return sum(reason is not None for reason in failures) / len(failures)
