"""Statistics the benchmark reports: percentiles with a stated sample count,
and self time of nested spans."""
from __future__ import annotations

import math
from array import array

TAIL_MIN_BEYOND = 10


def weighted_sorted(samples):
    """Expand (value, weight) pairs into one sorted list; None sorts as +inf."""
    out = []
    for value, weight in samples:
        out.extend([math.inf if value is None else value] * weight)
    out.sort()
    return out


def median(values):
    """Nearest-rank median of a sorted list."""
    return values[math.ceil(0.5 * len(values)) - 1]


def op_latencies(runs, weights):
    """Latency of each op of a pass that several processes ran: the least of
    its call times in those runs, or +inf if it failed in any of them, shared
    by the `weight` ops the call stands for.  A shared host only ever adds
    time (a preemption, a neighbour's load, a collection that lands on the
    call), so the least time is the op's cost under the least interference.
    Returns the latencies expanded by weight and sorted."""
    samples = []
    for i, weight in enumerate(weights):
        times = [run[i] for run in runs]
        value = None if None in times else min(times) / weight
        samples.append((value, weight))
    return weighted_sorted(samples)


def tail_percentile(values, q):
    """The q-quantile of sorted `values`, by nearest rank, lowered until at
    least ten samples lie beyond it and never below the median.

    Returns (value, quantile actually used)."""
    n = len(values)
    rank = min(math.ceil(q * n), n - TAIL_MIN_BEYOND)
    rank = max(rank, math.ceil(0.5 * n), 1)
    return values[rank - 1], rank / n


def self_times(start, end, parent):
    """Self time of every span: its duration minus the part of it that its
    child spans cover.  Spans must be listed in order of start time, each
    parent before its children (`parent` is -1 for a root)."""
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [-math.inf]) * n  # end of the merged child cover so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))
