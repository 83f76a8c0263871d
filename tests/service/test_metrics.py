"""Metrics registry and histogram tests."""

import threading

import pytest

from repro.service.metrics import LatencyHistogram, MetricsRegistry


class TestLatencyHistogram:
    def test_observe_and_snapshot(self):
        histogram = LatencyHistogram()
        for value in (0.002, 0.003, 0.2):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum_seconds"] == pytest.approx(0.205)
        assert snapshot["min_seconds"] == pytest.approx(0.002)
        assert snapshot["max_seconds"] == pytest.approx(0.2)
        assert snapshot["mean_seconds"] == pytest.approx(0.205 / 3)

    def test_quantiles_monotone(self):
        histogram = LatencyHistogram()
        for i in range(100):
            histogram.observe(i / 1000.0)
        p50, p90, p99 = (
            histogram.quantile(0.5),
            histogram.quantile(0.9),
            histogram.quantile(0.99),
        )
        assert p50 <= p90 <= p99

    def test_quantile_interpolates_inside_the_bucket(self):
        # Ten samples 11..20 ms all land in the (10, 25] ms bucket; the
        # k-th of them sits k/10 of the way through it.
        histogram = LatencyHistogram()
        for ms in range(11, 21):
            histogram.observe(ms / 1000.0)
        assert histogram.quantile(0.5) == pytest.approx(0.0175)
        assert histogram.quantile(0.2) == pytest.approx(0.013)
        # Clamped to the observed extremes, never the bucket bounds.
        assert histogram.quantile(0.0) == pytest.approx(0.011)
        assert histogram.quantile(0.99) == pytest.approx(0.020)
        assert histogram.quantile(1.0) == pytest.approx(0.020)

    def test_quantile_across_buckets(self):
        histogram = LatencyHistogram(buckets=(0.1, 0.2))
        for value in (0.05, 0.05, 0.15, 0.15):
            histogram.observe(value)
        # The 2nd sample closes the first bucket; the 3rd is halfway
        # through the second.
        assert histogram.quantile(0.5) == pytest.approx(0.1)
        assert histogram.quantile(0.625) == pytest.approx(0.125)

    def test_quantile_in_overflow_bucket_stops_at_max(self):
        histogram = LatencyHistogram(buckets=(0.1,))
        histogram.observe(0.05)
        histogram.observe(3.0)
        assert histogram.quantile(0.75) == pytest.approx(1.55)
        assert histogram.quantile(1.0) == pytest.approx(3.0)

    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) is None
        assert histogram.snapshot()["count"] == 0

    def test_overflow_bucket(self):
        histogram = LatencyHistogram(buckets=(0.1,))
        histogram.observe(5.0)
        assert histogram.snapshot()["overflow"] == 1


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.incr("requests")
        metrics.incr("requests", 2)
        assert metrics.counter("requests") == 3
        assert metrics.counter("unknown") == 0

    def test_observe_stages(self):
        metrics = MetricsRegistry()
        metrics.observe_stages({"extract": 0.01, "total": 0.05})
        snapshot = metrics.snapshot()
        assert snapshot["latencies"]["stage.extract"]["count"] == 1
        assert snapshot["latencies"]["stage.total"]["count"] == 1

    def test_thread_safety(self):
        metrics = MetricsRegistry()

        def worker():
            for _ in range(500):
                metrics.incr("n")
                metrics.observe("lat", 0.01)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("n") == 4000
        assert metrics.snapshot()["latencies"]["lat"]["count"] == 4000


class TestMergeCounters:
    def test_basic_fold(self):
        metrics = MetricsRegistry()
        metrics.incr("requests.total", 5)
        metrics.merge_counters({"requests.total": 3, "noop": 0})
        assert metrics.counter("requests.total") == 8
        # zero deltas are skipped entirely — no key is created
        assert "noop" not in metrics.snapshot()["counters"]

    def test_prefix(self):
        metrics = MetricsRegistry()
        metrics.merge_counters({"requests.total": 2}, prefix="cluster.worker.w0.")
        assert metrics.counter("cluster.worker.w0.requests.total") == 2
        assert metrics.counter("requests.total") == 0

    def test_contended_fold_is_exact(self, service_workers):
        """N threads folding worker deltas + incrementing directly must
        lose nothing: every read-modify-write happens under the registry
        lock (run with TENET_TEST_WORKERS=8 for real contention)."""
        metrics = MetricsRegistry()
        rounds = 300

        def folder(worker_id: int) -> None:
            prefix = f"cluster.worker.w{worker_id}."
            for _ in range(rounds):
                metrics.merge_counters(
                    {"requests.total": 1, "requests.completed": 1},
                    prefix=prefix,
                )
                metrics.merge_counters({"shared.total": 1})
                metrics.incr("shared.incr")

        threads = [
            threading.Thread(target=folder, args=(i,))
            for i in range(service_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("shared.total") == service_workers * rounds
        assert metrics.counter("shared.incr") == service_workers * rounds
        for i in range(service_workers):
            assert (
                metrics.counter(f"cluster.worker.w{i}.requests.total") == rounds
            )


class TestSimilarityStatsContention:
    def test_batch_counters_are_exact_under_threads(self, service_workers):
        """SimilarityIndex.batch_calls/batch_pairs are read-modify-write
        counters shared across service workers; the per-call lock must
        make the totals exact, not approximately right."""
        import numpy as np

        from repro.embeddings.similarity import SimilarityIndex
        from repro.embeddings.store import EmbeddingStore

        store = EmbeddingStore.from_matrix(
            ["a", "b", "c", "d"], np.eye(4, dtype=np.float32)
        )
        index = SimilarityIndex(store)
        calls_per_thread = 200
        ids = ["a", "b", "c"]  # 3 unordered pairs per call

        def worker() -> None:
            for _ in range(calls_per_thread):
                index.batch_similarity(ids)

        threads = [
            threading.Thread(target=worker) for _ in range(service_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = index.batch_stats()
        expected_calls = service_workers * calls_per_thread
        assert stats["batch_calls"] == expected_calls
        assert stats["batch_pairs"] == expected_calls * 3
