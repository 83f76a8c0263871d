"""Deadline propagation through the service: cooperative cancellation,
partial-result salvage, worker release, and batch deadline anchoring."""

import threading
import time

import pytest

from repro.core.deadline import Deadline
from repro.service.engine import LinkingService, ServiceConfig
from repro.service.schema import BatchLinkRequest, LinkRequest


@pytest.fixture(scope="module")
def document(suite):
    return suite.kore50.documents[0].text


def _block_generation(svc, release, monkeypatch):
    """Make candidate generation park on *release* after completing.

    The worker then sits between the ``candidates`` and ``coherence``
    checkpoints until released — a deterministic stand-in for a slow
    pipeline stage.
    """
    real_generate = svc.linker.generator.generate

    def slow_generate(extraction):
        result = real_generate(extraction)
        release.wait(timeout=30)
        return result

    monkeypatch.setattr(svc.linker.generator, "generate", slow_generate)


class TestCooperativeCancellation:
    def test_cancelled_worker_salvages_candidates_and_releases(
        self, suite_context, document, monkeypatch
    ):
        # Generous grace: the caller waits for the worker's own abort,
        # which must deliver the partial-based degraded response.
        config = ServiceConfig(workers=1, cancel_grace_seconds=10.0)
        with LinkingService(suite_context, config) as svc:
            release = threading.Event()
            _block_generation(svc, release, monkeypatch)
            # Release the worker shortly after the 0.05s deadline trips:
            # it resumes, hits the next checkpoint, and aborts.
            timer = threading.Timer(0.25, release.set)
            timer.start()
            try:
                response = svc.link(
                    LinkRequest(text=document, timeout_seconds=0.05)
                )
            finally:
                timer.cancel()
                release.set()

            assert response.ok and response.degraded
            assert response.aborted_stage == "coherence"
            expected = svc.linker.link_prior_only(document)
            assert response.result == expected.to_json(include_timings=False)
            assert svc.metrics.counter("requests.cancelled") == 1
            assert svc.metrics.counter("stage.coherence.aborted") == 1
            assert svc.metrics.counter("requests.abandoned") == 0
            # The worker was released, not abandoned: the single-thread
            # pool serves a fresh request promptly and at full quality.
            follow_up = svc.link(LinkRequest(text=document))
            assert follow_up.ok and not follow_up.degraded
            assert svc.metrics.gauge("pool.active_workers") == 0.0

    def test_blown_grace_degrades_caller_side(
        self, suite_context, document, monkeypatch
    ):
        # Zero grace: the caller does not wait for the parked worker and
        # answers from the prior-only path in its own thread.
        config = ServiceConfig(workers=1, cancel_grace_seconds=0.0)
        with LinkingService(suite_context, config) as svc:
            release = threading.Event()
            _block_generation(svc, release, monkeypatch)
            try:
                response = svc.link(
                    LinkRequest(text=document, timeout_seconds=0.05)
                )
            finally:
                release.set()

            assert response.ok and response.degraded
            expected = svc.linker.link_prior_only(document)
            assert response.result == expected.to_json(include_timings=False)
            assert svc.metrics.counter("requests.abandoned") == 1
            assert svc.metrics.counter("requests.timeouts") == 1
        # Context-manager close joined the pool: the released worker
        # finished its abort and recorded the cooperative cancellation.
        assert svc.metrics.counter("requests.cancelled") == 1

    def test_handle_with_expired_deadline_is_prior_only(
        self, suite_context, document
    ):
        # Cancellation landing before candidate generation: nothing to
        # salvage, the degraded answer recomputes the prior-only path.
        with LinkingService(suite_context, ServiceConfig(workers=1)) as svc:
            response = svc.handle(
                LinkRequest(text=document), deadline=Deadline.after(0.0)
            )
            assert response.ok and response.degraded
            assert response.aborted_stage == "extract"
            expected = svc.linker.link_prior_only(document)
            assert response.result == expected.to_json(include_timings=False)
            assert svc.metrics.counter("requests.cancelled") == 1
            assert svc.metrics.counter("stage.extract.aborted") == 1

    def test_metrics_snapshot_reports_cancellation_counters(
        self, suite_context, document
    ):
        with LinkingService(suite_context, ServiceConfig(workers=1)) as svc:
            svc.handle(
                LinkRequest(text=document), deadline=Deadline.after(0.0)
            )
            snapshot = svc.snapshot()
            assert snapshot["counters"]["requests.cancelled"] == 1
            assert snapshot["counters"]["stage.extract.aborted"] == 1
            assert snapshot["gauges"]["pool.worker_count"] == 1
            assert snapshot["config"]["cancel_grace_seconds"] == 0.1


class TestBatchDeadlineAnchoring:
    def test_batch_deadlines_anchor_at_submission(self, suite_context, document):
        # Three requests behind a saturated 1-worker pool, each with a
        # 0.2s budget.  Anchored at submission the windows overlap and
        # the whole batch resolves in ~one budget, not three; the old
        # per-turn ``future.result(timeout)`` accumulated them.
        with LinkingService(suite_context, ServiceConfig(workers=1)) as svc:
            release = threading.Event()
            try:
                blocker = svc._pool.submit(release.wait, 30)
                batch = BatchLinkRequest(
                    tuple(
                        LinkRequest(
                            text=document,
                            request_id=f"b-{i}",
                            timeout_seconds=0.2,
                        )
                        for i in range(3)
                    )
                )
                started = time.perf_counter()
                response = svc.link_batch(batch)
                wall = time.perf_counter() - started
            finally:
                release.set()
            blocker.result(timeout=5)

            assert response.ok
            assert [r.request_id for r in response.responses] == [
                "b-0",
                "b-1",
                "b-2",
            ]
            assert all(r.degraded for r in response.responses)
            assert wall < 0.45
            for r in response.responses:
                # elapsed measures from each request's own submission.
                assert r.elapsed_seconds < 0.45
            assert svc.metrics.counter("requests.timeouts") == 3
