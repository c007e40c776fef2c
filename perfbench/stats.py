"""Order statistics used by every metric the benchmark reports."""

import math
import statistics

# a tail percentile is reported only where at least this many samples
# lie beyond it, so one stray sample cannot set it
TAIL_MARGIN = 10


def median(values):
    return statistics.median(values)


def tail_rank(n, q=0.99, margin=TAIL_MARGIN):
    """0-based index, in the sorted samples, of the highest nearest-rank
    percentile <= q that still has [margin] samples beyond it; None when
    n is too small for any."""
    if n <= margin:
        return None
    return min(math.ceil(q * n) - 1, n - 1 - margin)


def tail(values, q=0.99):
    """The tail value by {!tail_rank}, never below the median (a run too
    short for a tail reports its median rather than a lower rank)."""
    s = sorted(values)
    k = tail_rank(len(s), q)
    m = statistics.median(s)
    return m if k is None else max(s[k], m)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span, children):
    """A span's duration minus the part of its interval that its
    children cover (children may overlap each other or stick out)."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length([(s, e) for s, e in clipped if e > s])
