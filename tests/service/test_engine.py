"""Engine tests: concurrency parity, caching parity, degradation, metrics."""

import threading

import pytest

from repro.core.linker import TenetLinker
from repro.service.cache import LinkerCacheConfig
from repro.service.engine import LinkingService, ServiceConfig
from repro.service.schema import (
    BatchLinkRequest,
    LinkRequest,
    SessionFeedRequest,
)


@pytest.fixture(scope="module")
def documents(suite):
    texts = [doc.text for doc in suite.kore50.documents[:4]]
    texts += [doc.text for doc in suite.news.documents[:4]]
    # Repeat the workload so cross-request caches see repeated mentions.
    return texts * 2


@pytest.fixture(scope="module")
def sequential_payloads(suite_context, documents):
    linker = TenetLinker(suite_context)
    return [linker.link(text).to_json(include_timings=False) for text in documents]


@pytest.fixture()
def service(suite_context, service_workers):
    with LinkingService(
        suite_context, ServiceConfig(workers=service_workers)
    ) as svc:
        yield svc


class TestParity:
    def test_sequential_service_matches_linker(
        self, service, documents, sequential_payloads
    ):
        for text, expected in zip(documents, sequential_payloads):
            response = service.link(LinkRequest(text=text))
            assert response.ok and not response.degraded
            assert response.result == expected

    def test_concurrent_requests_match_sequential(
        self, service, documents, sequential_payloads
    ):
        results = [None] * len(documents)
        errors = []

        def client(indices):
            try:
                for i in indices:
                    results[i] = service.link(LinkRequest(text=documents[i])).result
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(range(n, len(documents), 8),))
            for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == sequential_payloads

    def test_cache_disabled_matches_enabled(
        self, suite_context, documents, sequential_payloads
    ):
        config = ServiceConfig(workers=2, cache=LinkerCacheConfig(enabled=False))
        with LinkingService(suite_context, config) as uncached:
            assert not uncached.caches.enabled
            for text, expected in zip(documents, sequential_payloads):
                assert uncached.link(LinkRequest(text=text)).result == expected

    def test_batch_matches_sequential(self, service, documents, sequential_payloads):
        batch = BatchLinkRequest.of_texts(*documents)
        response = service.link_batch(batch)
        assert response.ok
        assert [r.result for r in response.responses] == sequential_payloads

    def test_admit_matches_sequential(self, service, documents, sequential_payloads):
        futures = [service.admit(LinkRequest(text=t)) for t in documents]
        payloads = [f.result(timeout=60).result for f in futures]
        assert payloads == sequential_payloads


class TestCaching:
    def test_repeated_workload_exceeds_half_hit_rate(self, suite_context, documents):
        with LinkingService(suite_context, ServiceConfig(workers=2)) as svc:
            for text in documents:
                svc.link(LinkRequest(text=text))
            stats = svc.caches.snapshot(svc.linker)["candidates"]
            assert stats["hit_rate"] > 0.5


class TestDegradation:
    def test_timeout_falls_back_to_prior_only(self, suite_context, documents):
        text = documents[0]
        with LinkingService(suite_context, ServiceConfig(workers=1)) as svc:
            release = threading.Event()
            try:
                # Saturate the single worker so the request cannot start
                # before its deadline — deterministic timeout.
                blocker = svc._pool.submit(release.wait)
                response = svc.link(LinkRequest(text=text, timeout_seconds=0.05))
            finally:
                release.set()
            blocker.result(timeout=5)
            assert response.ok
            assert response.degraded
            expected = svc.linker.link_prior_only(text)
            assert response.result == expected.to_json(include_timings=False)
            assert svc.metrics.counter("requests.timeouts") == 1

    def test_degraded_entities_subset_of_candidates(self, suite_context, documents):
        # The fallback is meaningful: it still links the unambiguous
        # high-prior mentions of the document.
        with LinkingService(suite_context) as svc:
            result = svc.linker.link_prior_only(documents[0])
            degraded_surfaces = {l.surface for l in result.entity_links}
            assert degraded_surfaces  # not empty on a real document
            assert "prior_only" in result.stage_seconds

    def test_handle_wraps_errors(self, suite_context, monkeypatch):
        with LinkingService(suite_context, ServiceConfig(workers=1)) as svc:
            def boom(text, deadline=None, trace=None):
                raise RuntimeError("kaput")

            monkeypatch.setattr(svc.linker, "link", boom)
            response = svc.handle(LinkRequest(text="whatever text"))
            assert not response.ok
            assert response.error.code == "internal"
            assert "kaput" in response.error.message
            assert svc.metrics.counter("requests.errors") == 1


class TestMetricsIntegration:
    def test_counters_and_latencies_increment(self, suite_context, documents):
        with LinkingService(suite_context, ServiceConfig(workers=2)) as svc:
            svc.link(LinkRequest(text=documents[0]))
            svc.link_batch(BatchLinkRequest.of_texts(documents[1], documents[2]))
            snapshot = svc.snapshot()
            counters = snapshot["counters"]
            assert counters["requests.total"] == 3
            assert counters["requests.completed"] == 3
            assert counters["requests.batches"] == 1
            assert counters["requests.batched_documents"] == 2
            assert snapshot["latencies"]["latency.link"]["count"] == 3
            # Stage timings flow from LinkingResult.stage_seconds.
            assert snapshot["latencies"]["stage.total"]["count"] == 3
            assert snapshot["caches"]["enabled"]

    def test_queue_wait_observed_with_tracing_off(self, suite_context, documents):
        config = ServiceConfig(
            workers=2, trace_enabled=False, sessions_enabled=True
        )
        with LinkingService(suite_context, config) as svc:
            svc.link(LinkRequest(text=documents[0]))
            svc.link_admitted(LinkRequest(text=documents[1]))
            svc.link_batch(BatchLinkRequest.of_texts(documents[2]))
            feed = svc.session_feed_admitted(
                "queue-wait", SessionFeedRequest(chunk=documents[3])
            )
            assert feed.error is None
            snapshot = svc.snapshot()
        assert snapshot["tracing"]["enabled"] is False
        queue_wait = snapshot["latencies"]["latency.queue_wait"]
        assert queue_wait["count"] == 4
        assert queue_wait["min_seconds"] >= 0.0

    def test_request_id_echoed(self, suite_context, documents):
        with LinkingService(suite_context) as svc:
            response = svc.link(LinkRequest(text=documents[0], request_id="abc-1"))
            assert response.request_id == "abc-1"
            assert response.to_json()["request_id"] == "abc-1"


class TestConfigValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            ServiceConfig(default_timeout_seconds=-1)
