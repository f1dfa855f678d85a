"""Summary statistics the benchmark reports.

Latencies are nearest-rank percentiles over every attempted op, with a
failed op entered as ``math.inf`` so that it misses every limit.  Host
throughput is taken over fixed-size windows of consecutive ops, keeping
the fastest of several repetitions of each window, which damps the
box-level noise a whole-run rate picks up.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond its rank.
TAIL_SAMPLES = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank *pct*-th percentile of *values* (unsorted ok)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def supports(n: int, pct: float) -> bool:
    """True when a sample of *n* leaves TAIL_SAMPLES beyond *pct*'s rank."""
    return n - math.ceil(pct / 100.0 * n) >= TAIL_SAMPLES


def highest_supported_percentile(n: int) -> Optional[int]:
    """The highest whole percentile (at most 99) that *n* samples support."""
    for pct in range(99, 0, -1):
        if supports(n, pct):
            return pct
    return None


def windowed_rate(durations_ns: Sequence[int], rounds: int,
                  window: int) -> float:
    """Host ops per second over the fastest repetition of each window.

    *durations_ns* holds per-op host times of *rounds* equal rounds that
    replay the same shape of work.  Each round is cut into windows of
    *window* consecutive ops (a trailing partial window is dropped); for
    every window position the smallest host time across rounds is kept,
    and the rate is the ops of one round's windows over the sum of those
    minima.  Host slowdowns from other tenants of the machine last
    seconds and only ever add time, so the fastest repetition of each
    position is the steadiest estimate of what the code itself costs.
    """
    if rounds <= 0 or window <= 0:
        raise ValueError("rounds and window must be positive")
    per_round = len(durations_ns) // rounds
    windows = per_round // window
    if not windows:
        raise ValueError(f"{per_round} ops per round make no full window "
                         f"of {window}")
    best_ns = 0
    for w in range(windows):
        best_ns += min(
            sum(durations_ns[r * per_round + w * window:
                             r * per_round + (w + 1) * window])
            for r in range(rounds))
    return windows * window / (best_ns / 1e9)


def per_op(total: float, ops: int) -> float:
    """*total* normalised by the number of executed ops."""
    if ops <= 0:
        raise ValueError("per-op normalisation needs at least one op")
    return total / ops
