"""Session lifecycle under the serving stack: contention, eviction, drain.

Run with ``TENET_TEST_WORKERS=8`` to exercise real contention (the same
switch the rest of the service suite honours).  The SessionManager tests
use a controllable fake session so lock-ordering scenarios (eviction
while a feed is in flight) are deterministic rather than timing-lucky.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.linker import TenetLinker
from repro.service.engine import LinkingService, ServiceClosedError, ServiceConfig
from repro.service.schema import SessionFeedRequest
from repro.session import (
    SessionClosedError,
    SessionError,
    SessionEvictedError,
    SessionManager,
)


@pytest.fixture(scope="module")
def session_service(suite_context, service_workers):
    service = LinkingService(
        suite_context,
        ServiceConfig(workers=service_workers, sessions_enabled=True),
    )
    yield service
    service.close()


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# engine round-trips
# ---------------------------------------------------------------------------

class TestEngineSessions:
    def test_feed_accumulates_and_matches_one_shot(
        self, session_service, suite_context, suite
    ):
        text = suite.kore50.documents[0].text
        middle = text.find(". ") + 2
        chunks = [text[:middle], text[middle:]]
        last = None
        for i, chunk in enumerate(chunks):
            last = session_service.session_feed_admitted(
                "engine-parity", SessionFeedRequest(chunk=chunk)
            )
            assert last.error is None
            assert last.increment == i + 1
        expected = TenetLinker(suite_context).link(text).to_json(
            include_timings=False
        )
        assert canonical(last.result) == canonical(expected)

    def test_metrics_counters_reconcile(self, session_service, suite):
        before = session_service.snapshot()["counters"]
        feeds = 3
        for i in range(feeds):
            response = session_service.session_feed_admitted(
                "metrics-probe",
                SessionFeedRequest(
                    chunk=f"Feed number {i} of the metrics probe."
                ),
            )
            assert response.error is None
        after = session_service.snapshot()
        counters = after["counters"]
        assert counters["session.feeds"] - before.get("session.feeds", 0) == feeds
        assert counters["session.created"] - before.get("session.created", 0) == 1
        memo_delta = (
            counters["session.memo.hits"] - before.get("session.memo.hits", 0)
        ) + (
            counters["session.memo.misses"]
            - before.get("session.memo.misses", 0)
        )
        assert memo_delta > 0
        assert after["sessions"]["active"] == after["gauges"]["sessions.active"]

    def test_kind_mismatch_is_bad_request(self, session_service):
        first = session_service.session_feed_admitted(
            "kind-probe", SessionFeedRequest(chunk="A stream chunk.")
        )
        assert first.error is None
        mismatched = session_service.session_feed_admitted(
            "kind-probe",
            SessionFeedRequest(chunk="Now a turn.", kind="conversation"),
        )
        assert mismatched.error is not None
        assert mismatched.error.code == "bad_request"

    def test_info_and_delete(self, session_service):
        session_service.session_feed_admitted(
            "info-probe", SessionFeedRequest(chunk="Some session text.")
        )
        info = session_service.session_info("info-probe")
        assert info is not None
        assert info["kind"] == "stream"
        assert info["increment"] == 1
        assert session_service.session_delete("info-probe") is True
        assert session_service.session_info("info-probe") is None
        assert session_service.session_delete("info-probe") is False

    def test_concurrent_feeds_serialize(
        self, session_service, service_workers
    ):
        # N threads hammer one session; every feed must land (no error,
        # no hang) and the final increment must equal the feed count.
        threads = max(service_workers, 4)
        feeds_per_thread = 3
        errors = []
        barrier = threading.Barrier(threads)

        def feeder(index):
            try:
                barrier.wait(timeout=30)
                for round_ in range(feeds_per_thread):
                    response = session_service.session_feed_admitted(
                        "contended",
                        SessionFeedRequest(
                            chunk=(
                                f"Thread {index} wrote sentence {round_} "
                                "into the shared stream."
                            )
                        ),
                    )
                    if response.error is not None:
                        errors.append(response.error.code)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        workers = [
            threading.Thread(target=feeder, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        info = session_service.session_info("contended")
        assert info["increment"] == threads * feeds_per_thread


# ---------------------------------------------------------------------------
# manager lifecycle (fake sessions: deterministic lock scenarios)
# ---------------------------------------------------------------------------

class _FakeSession:
    """Stands in for a StreamingSession; optionally blocks inside feed."""

    def __init__(self, gate=None):
        self.gate = gate
        self.increment = 0
        self.text = ""

    def feed(self, chunk, deadline=None, trace=None):
        if self.gate is not None:
            self.gate.wait(timeout=30)
        self.increment += 1
        self.text += chunk
        return {"increment": self.increment}


class TestManagerLifecycle:
    def test_lru_eviction_is_typed_error_not_hang(self):
        manager = SessionManager(
            lambda kind: _FakeSession(), max_sessions=2, ttl_seconds=60
        )
        manager.feed("alpha", "a")
        manager.feed("beta", "b")
        manager.feed("gamma", "c")  # evicts alpha (LRU)
        assert manager.stats()["evicted_lru"] == 1
        assert set(manager.session_ids()) == {"beta", "gamma"}
        # Feeding the evicted id transparently creates a fresh session.
        outcome, created = manager.feed("alpha", "again")
        assert created is True
        assert outcome == {"increment": 1}

    def test_ttl_eviction_with_fake_clock(self):
        now = [0.0]
        manager = SessionManager(
            lambda kind: _FakeSession(),
            max_sessions=8,
            ttl_seconds=10,
            clock=lambda: now[0],
        )
        manager.feed("old", "x")
        now[0] = 11.0
        manager.feed("fresh", "y")  # sweep runs on every feed
        assert manager.get("old") is None
        assert manager.stats()["evicted_ttl"] == 1

    def test_eviction_mid_feed_surfaces_typed_error(self):
        # A feeder queued on the session lock whose session is evicted
        # while it waits must get a SessionEvictedError the moment the
        # lock frees — never a hang, never a solve on dead state.  The
        # in-flight holder is simulated with an instrumented lock so the
        # ordering (queued -> evicted -> released) is deterministic.
        manager = SessionManager(
            lambda kind: _FakeSession(), max_sessions=4, ttl_seconds=60
        )
        manager.feed("victim", "one")
        entry = manager._entries["victim"]
        inner = threading.Lock()
        inner.acquire()  # stands in for another feed holding the lock
        queued = threading.Event()

        class _SignalLock:
            def __enter__(self):
                queued.set()
                inner.acquire()

            def __exit__(self, *exc):
                inner.release()

        entry.lock = _SignalLock()
        result = {}

        def second():
            try:
                manager.feed("victim", "two")
                result["outcome"] = "no error"
            except SessionEvictedError:
                result["outcome"] = "evicted"

        thread = threading.Thread(target=second)
        thread.start()
        assert queued.wait(timeout=30)  # past the registry, on the lock
        manager.delete("victim")  # eviction never takes the session lock
        inner.release()  # the in-flight feed finishes
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["outcome"] == "evicted"

    def test_close_drains_queued_feeds(self):
        gate = threading.Event()
        manager = SessionManager(
            lambda kind: _FakeSession(gate), max_sessions=4, ttl_seconds=60
        )
        outcomes = []

        def feeder():
            try:
                manager.feed("draining", "chunk")
                outcomes.append("ok")
            except SessionClosedError:
                outcomes.append("closed")

        thread_a = threading.Thread(target=feeder)
        thread_a.start()
        pause = threading.Event()
        for _ in range(3000):
            if "draining" in manager.session_ids():
                break
            pause.wait(0.01)
        # Whether the second feeder reaches the registry before or after
        # close(), it must surface SessionClosedError — both the closed
        # registry and the closed entry re-check drain into it.
        thread_b = threading.Thread(target=feeder)
        thread_b.start()
        drained = manager.close()
        gate.set()
        thread_a.join(timeout=30)
        thread_b.join(timeout=30)
        assert not thread_a.is_alive() and not thread_b.is_alive()
        assert drained == 1
        assert "closed" in outcomes
        assert len(outcomes) == 2
        with pytest.raises(SessionClosedError):
            manager.feed("anything", "z")

    def test_invalid_ids_and_kinds_rejected(self):
        manager = SessionManager(lambda kind: _FakeSession())
        with pytest.raises(SessionError):
            manager.feed("bad id with spaces", "x")
        with pytest.raises(SessionError):
            manager.feed("ok", "x", kind="telepathy")


# ---------------------------------------------------------------------------
# engine shutdown: feeds after close get clean 503 envelopes
# ---------------------------------------------------------------------------

class TestShutdownDrain:
    def test_feed_after_close_is_unavailable(self, suite_context):
        # ServiceClosedError is what the HTTP layer maps to a clean 503;
        # a feed racing shutdown must raise it, never hang or link.
        service = LinkingService(
            suite_context, ServiceConfig(workers=2, sessions_enabled=True)
        )
        response = service.session_feed_admitted(
            "pre-close", SessionFeedRequest(chunk="Before shutdown.")
        )
        assert response.error is None
        service.close()
        with pytest.raises(ServiceClosedError):
            service.session_feed_admitted(
                "pre-close", SessionFeedRequest(chunk="After shutdown.")
            )

    def test_sessions_disabled_raises(self, suite_context):
        service = LinkingService(
            suite_context, ServiceConfig(workers=1, sessions_enabled=False)
        )
        try:
            with pytest.raises(SessionError):
                service.session_feed_admitted(
                    "nope", SessionFeedRequest(chunk="hello there")
                )
            assert service.session_info("nope") is None
            assert service.session_delete("nope") is False
        finally:
            service.close()
