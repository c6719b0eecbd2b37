"""Statistics of the campaign benchmark: quartiles, tail percentiles, round
minima, span self time and ratios. Pure functions, tested by
perfbench/test_stats.py."""

import math
import statistics
from collections import defaultdict


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, q, min_beyond=10):
    """Nearest-rank percentile `q` of `values`, lowered until at least
    `min_beyond` samples lie above the reported one.

    Returns (percentile used, value). Raises ValueError when even the lowest
    rank leaves fewer than `min_beyond` samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))  # 1-based
    rank = min(rank, n - min_beyond)
    if rank < 1:
        raise ValueError(f"{n} samples cannot support a percentile with "
                         f"{min_beyond} samples beyond it")
    return rank / n, ordered[rank - 1]


def ratio(num, den):
    """num / den, with 0 for a zero base (a layer the workload never
    reaches has no hits and no attempts)."""
    return num / den if den else 0.0


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that the union of its children covers.

    `spans` maps span id -> (parent id or -1, start, end). Children may
    overlap each other or reach past their parent; only the covered part of
    the parent's own interval is subtracted, once."""
    children = defaultdict(list)
    for sid, (parent, start, end) in spans.items():
        if parent in spans:
            children[parent].append((start, end))
    out = {}
    for sid, (_, start, end) in spans.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def round_minima(values, k=3):
    """Indices of the smallest value in each complete round of `k`
    consecutive values (all values form one round when there are fewer
    than `k`). The median over round minima discounts passes that a
    co-tenant slowed, while every round still comes from the same run."""
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    ends = range(k, n + 1, k) if n >= k else [n]
    return [min(range(end - min(k, n), end), key=values.__getitem__) for end in ends]
