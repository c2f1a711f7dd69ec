"""Summary statistics shared by run.py and compare.py."""

import math
import statistics

# Percentiles a latency tail may be reported at, lowest first.
TAIL_LADDER = (50, 75, 85, 90, 95, 99, 99.9)

# A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def pick_tail(n):
    """The highest ladder percentile with TAIL_MIN_BEYOND samples beyond
    it in a sample of n, or None when even the median has too few."""
    best = None
    for p in TAIL_LADDER:
        if round(n * (100 - p) / 100, 9) >= TAIL_MIN_BEYOND:
            best = p
    return best


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def summarize(values):
    """Median, the picked tail percentile and the sample count."""
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = median(values)
    tail = pick_tail(len(values))
    if tail is not None and tail > 50:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
    return out
