"""The benchmark's own arithmetic: tails, self time, fits, spreads.

Everything here is a pure function of its arguments so the tests in
``perfbench/tests`` can pin it without a server.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Sequence, Tuple

#: A tail percentile is trusted only with this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def tail(samples: Iterable[float], failed: int = 0) -> Tuple[float, float, int]:
    """``(value, percentile, beyond)`` of the latency tail.

    The tail is the highest order statistic with at least
    :data:`MIN_BEYOND` samples beyond it; ``percentile`` is the share of
    samples at or below it (in %), ``beyond`` the number above it.  Each
    of the *failed* operations counts as an infinitely slow sample.
    With too few samples for any order statistic to qualify, the
    minimum is returned, which is the one with the most samples beyond.
    """
    ordered = sorted(samples) + [math.inf] * failed
    n = len(ordered)
    if n == 0:
        return math.nan, 0.0, 0
    index = max(0, n - MIN_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def covered(interval: Tuple[float, float], others: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of *interval* that the union of *others* covers."""
    start, end = interval
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in others if b > start and a < end
    )
    total = 0.0
    run_start, run_end = None, None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the union of its children's intervals."""
    return (interval[1] - interval[0]) - covered(interval, children)


def growth_exponent(words: Sequence[float], millis: Sequence[float]) -> float:
    """Least-squares slope of log(ms) against log(words).

    Pairs with a non-positive coordinate are dropped; fewer than two
    distinct word counts leave the slope undefined (NaN).
    """
    points = [
        (math.log(w), math.log(m)) for w, m in zip(words, millis) if w > 0 and m > 0
    ]
    if len({x for x, _ in points}) < 2:
        return math.nan
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile range as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)``, the rule the
    bounds in ``BENCHMARK.json`` are judged by.
    """
    if len(values) < 2:
        value = values[0] if values else math.nan
        return {"median": value, "q1": value, "q3": value, "spread": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    share = (q3 - q1) / abs(mid) if mid else (0.0 if q3 == q1 else math.inf)
    return {"median": mid, "q1": q1, "q3": q3, "spread": share}


def f1(true_positives: int, predicted: int, gold: int) -> float:
    """Micro F1 from counts (0 when nothing was predicted or expected)."""
    if predicted == 0 or gold == 0 or true_positives == 0:
        return 0.0
    precision = true_positives / predicted
    recall = true_positives / gold
    return 2 * precision * recall / (precision + recall)
