"""Process metrics of the linking service.

Thread-safe counters and fixed-bucket latency histograms, exposed as
one JSON snapshot (the ``/metrics`` endpoint).  Per-stage latencies are
fed from ``LinkingResult.stage_seconds`` — the same record
``eval/timing.py`` reads — so the serving metrics and the paper's
Fig. 7 timing harness report from a single source of truth.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

# Upper bounds (seconds) of the latency buckets; the last bucket is
# open-ended.  Spaced for a linker whose requests run 1 ms - 10 s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket histogram of seconds with count/sum/min/max."""

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.sum += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def quantile(self, q: float) -> Optional[float]:
        """Estimate of the *q* quantile (None if empty).

        Finds the bucket holding the ``q * count``-th sample and
        interpolates linearly between its lower and upper bound (the
        overflow bucket's upper bound is the observed max), clamped to
        the observed min and max.
        """
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        lower = 0.0
        for i, upper in enumerate(self.bounds + (self.max,)):
            count = self._counts[i]
            if count and seen + count >= target:
                value = lower + (target - seen) / count * (upper - lower)
                return min(max(value, self.min), self.max)
            seen += count
            lower = upper
        return self.max

    def snapshot(self) -> Dict[str, object]:
        mean = self.sum / self.count if self.count else None
        return {
            "count": self.count,
            "sum_seconds": self.sum,
            "mean_seconds": mean,
            "min_seconds": self.min,
            "max_seconds": self.max,
            "p50_seconds": self.quantile(0.50),
            "p90_seconds": self.quantile(0.90),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "buckets": {
                f"le_{bound:g}": count
                for bound, count in zip(self.bounds, self._counts)
            },
            "overflow": self._counts[-1],
        }


class MetricsRegistry:
    """Named counters, gauges, + latency histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def incr(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def merge_counters(self, deltas: Dict[str, int], prefix: str = "") -> None:
        """Fold a batch of counter deltas in under one lock acquisition.

        The cluster front end folds per-worker counter snapshots into
        this registry; doing the whole batch inside a single critical
        section keeps the fold atomic with respect to concurrent
        :meth:`incr` calls and :meth:`snapshot` reads — a reader never
        observes half a worker's contribution, and no read-modify-write
        interleaving can lose an update.
        """
        with self._lock:
            for name, delta in deltas.items():
                if not delta:
                    continue
                key = f"{prefix}{name}" if prefix else name
                self._counters[key] = self._counters.get(key, 0) + int(delta)

    def set_gauge(self, name: str, value: float) -> None:
        """Set an instantaneous value (e.g. active workers right now)."""
        with self._lock:
            self._gauges[name] = value

    def add_gauge(self, name: str, delta: float) -> float:
        """Adjust a gauge by *delta*, returning the new value."""
        with self._lock:
            value = self._gauges.get(name, 0) + delta
            self._gauges[name] = value
            return value

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(seconds)

    def observe_stages(self, stage_seconds: Dict[str, float], prefix: str = "stage") -> None:
        """Feed one result's per-stage timing record into the histograms."""
        for stage, seconds in stage_seconds.items():
            self.observe(f"{prefix}.{stage}", seconds)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "latencies": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }
