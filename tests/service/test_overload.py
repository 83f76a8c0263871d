"""Admission control, rate limiting, degraded mode, clean shutdown.

The unit tests drive :mod:`repro.service.overload` with a hand-rolled
clock and a manual dispatch hook, so bucket refills, lane priority, and
hysteresis transitions are exact rather than timing-dependent.  The
integration tests run the real engine (and one real HTTP server) with
configs chosen so the shed/degrade decisions are deterministic.
"""

import http.client
import json
import threading
import time
from concurrent.futures import Future

import pytest

from repro.service.engine import LinkingService, ServiceClosedError, ServiceConfig
from repro.service.overload import (
    BATCH_LANE,
    INTERACTIVE_LANE,
    AdmissionController,
    ClientRateLimiter,
    DegradedModeController,
    LatencyWindow,
    OverloadConfig,
    QueueFullError,
    RateLimitedError,
    TokenBucket,
)
from repro.service.schema import BatchLinkRequest, LinkRequest
from repro.service.server import create_server


class FakeClock:
    """Manual monotonic clock for deterministic refill arithmetic."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=3, refill_per_second=1.0, clock=clock)
        # The full burst is available up front...
        assert [bucket.try_acquire() for _ in range(3)] == [None, None, None]
        # ...then the bucket is dry and the hint names the refill gap.
        retry_after = bucket.try_acquire()
        assert retry_after == pytest.approx(1.0)
        # Half a token is not a token.
        clock.advance(0.5)
        assert bucket.try_acquire() == pytest.approx(0.5)
        clock.advance(1.0)
        assert bucket.try_acquire() is None

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_second=10.0, clock=clock)
        clock.advance(3600.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0, refill_per_second=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1, refill_per_second=0.0)


class TestClientRateLimiter:
    def test_clients_do_not_share_buckets(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(
            rate_per_second=1.0, burst=1, clock=clock
        )
        assert limiter.try_acquire("a") is None
        # "a" exhausted its burst; "b" is untouched.
        assert limiter.try_acquire("a") is not None
        assert limiter.try_acquire("b") is None

    def test_lru_bound_evicts_oldest_client(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(
            rate_per_second=0.001, burst=1, max_clients=2, clock=clock
        )
        assert limiter.try_acquire("a") is None
        assert limiter.try_acquire("b") is None
        assert limiter.try_acquire("c") is None  # evicts "a"
        assert limiter.tracked_clients == 2
        # The evicted client comes back with a fresh (full) bucket —
        # the documented fail-open trade of the LRU bound.
        assert limiter.try_acquire("a") is None
        # "c" was not evicted and its burst is spent.
        assert limiter.try_acquire("c") is not None


class TestLatencyWindow:
    def test_percentiles_nearest_rank(self):
        window = LatencyWindow(size=100)
        for value in [0.1, 0.2, 0.3, 0.4, 1.0]:
            window.observe(value)
        assert window.percentile(0.5) == pytest.approx(0.3)
        assert window.percentile(0.95) == pytest.approx(1.0)
        assert window.mean() == pytest.approx(0.4)

    def test_window_rolls(self):
        window = LatencyWindow(size=2)
        for value in [9.0, 1.0, 2.0]:
            window.observe(value)
        assert len(window) == 2
        assert window.percentile(1.0) == pytest.approx(2.0)

    def test_empty_window(self):
        window = LatencyWindow(size=4)
        assert window.percentile(0.95) is None
        assert window.mean() is None


class TestOverloadConfig:
    def test_exit_watermark_must_sit_below_enter(self):
        with pytest.raises(ValueError):
            OverloadConfig(
                degraded_enter_queue_depth=8, degraded_exit_queue_depth=8
            )
        with pytest.raises(ValueError):
            OverloadConfig(
                degraded_enter_p95_seconds=1.0, degraded_exit_p95_seconds=1.5
            )

    def test_p95_watermarks_set_together(self):
        with pytest.raises(ValueError):
            OverloadConfig(degraded_enter_p95_seconds=1.0)


class TestDegradedModeHysteresis:
    def config(self, **overrides):
        defaults = dict(
            degraded_enter_queue_depth=10, degraded_exit_queue_depth=4
        )
        defaults.update(overrides)
        return OverloadConfig(**defaults)

    def test_enters_on_depth_and_exits_below_band(self):
        controller = DegradedModeController(self.config())
        assert controller.update(9, None) is False
        assert controller.update(10, None) is True
        assert controller.update(4, None) is False
        assert controller.transitions == (1, 1)

    def test_no_flapping_inside_the_band(self):
        controller = DegradedModeController(self.config())
        controller.update(12, None)  # enter
        # Oscillating between the watermarks must not toggle the switch:
        # 5..9 is above exit (4) and below enter (10).
        for depth in [9, 5, 8, 6, 9, 5]:
            assert controller.update(depth, None) is True
        assert controller.transitions == (1, 0)
        # And after a real exit, the same band stays inactive.
        controller.update(4, None)
        for depth in [5, 9, 6, 8]:
            assert controller.update(depth, None) is False
        assert controller.transitions == (1, 1)

    def test_p95_watermark_can_trigger_alone(self):
        controller = DegradedModeController(
            self.config(
                degraded_enter_p95_seconds=2.0, degraded_exit_p95_seconds=0.5
            )
        )
        assert controller.update(0, 2.5) is True
        # Exit needs *both* signals under their exit watermarks.
        assert controller.update(0, 1.0) is True  # p95 still in the band
        assert controller.update(0, 0.4) is False
        assert controller.transitions == (1, 1)

    def test_exit_requires_every_signal_low(self):
        controller = DegradedModeController(
            self.config(
                degraded_enter_p95_seconds=2.0, degraded_exit_p95_seconds=0.5
            )
        )
        controller.update(20, None)  # enter on depth
        assert controller.update(2, 1.0) is True  # depth low, p95 still high
        assert controller.update(2, 0.5) is False
        assert controller.transitions == (1, 1)


class RecordingDispatch:
    """Manual dispatch hook: items accumulate, slots are freed by hand."""

    def __init__(self) -> None:
        self.items = []
        self._cond = threading.Condition()

    def __call__(self, item) -> None:
        with self._cond:
            self.items.append(item)
            self._cond.notify_all()

    def wait_for(self, count: int, timeout: float = 5.0) -> None:
        with self._cond:
            assert self._cond.wait_for(
                lambda: len(self.items) >= count, timeout=timeout
            ), f"dispatched {len(self.items)}, wanted {count}"

    @property
    def lanes(self):
        return [item.lane for item in self.items]


def make_controller(dispatch, workers=1, **config_overrides):
    config = OverloadConfig(**config_overrides)
    return AdmissionController(
        config,
        workers=workers,
        dispatch=dispatch,
        close_error=lambda: ServiceClosedError("closed"),
    )


class TestAdmissionController:
    def test_rejects_when_lane_full_with_retry_hint(self):
        dispatch = RecordingDispatch()
        controller = make_controller(dispatch, workers=1, max_queue_interactive=2)
        try:
            # First item occupies the single worker slot...
            controller.admit(lambda: None, Future())
            dispatch.wait_for(1)
            # ...two more fill the interactive lane to its bound.
            controller.admit(lambda: None, Future())
            controller.admit(lambda: None, Future())
            with pytest.raises(QueueFullError) as excinfo:
                controller.admit(lambda: None, Future())
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.retry_after_seconds > 0
            # The caller's hint (backlog x mean latency) wins over the floor.
            with pytest.raises(QueueFullError) as excinfo:
                controller.admit(
                    lambda: None, Future(), retry_after_hint=7.5
                )
            assert excinfo.value.retry_after_seconds == pytest.approx(7.5)
        finally:
            controller.close()

    def test_batch_never_dispatches_while_interactive_waits(self):
        dispatch = RecordingDispatch()
        controller = make_controller(dispatch, workers=1)
        try:
            controller.admit(lambda: None, Future(), INTERACTIVE_LANE)
            dispatch.wait_for(1)  # worker slot now held
            # Queue batch work first, then interactive behind it.
            for _ in range(3):
                controller.admit(lambda: None, Future(), BATCH_LANE)
            for _ in range(2):
                controller.admit(lambda: None, Future(), INTERACTIVE_LANE)
            # Free slots one at a time: every queued interactive item
            # must overtake every queued batch item.
            for expected in range(2, 7):
                controller.release()
                dispatch.wait_for(expected)
            assert dispatch.lanes == [
                INTERACTIVE_LANE,
                INTERACTIVE_LANE,
                INTERACTIVE_LANE,
                BATCH_LANE,
                BATCH_LANE,
                BATCH_LANE,
            ]
        finally:
            controller.close()

    def test_cancelled_while_queued_never_dispatches(self):
        dispatch = RecordingDispatch()
        controller = make_controller(dispatch, workers=1)
        try:
            controller.admit(lambda: None, Future())
            dispatch.wait_for(1)
            doomed = Future()
            controller.admit(lambda: None, doomed)
            survivor = Future()
            controller.admit(lambda: None, survivor)
            assert doomed.cancel()  # deadline expired while queued
            controller.release()
            dispatch.wait_for(2)
            # The cancelled item was skipped and its slot recycled for
            # the survivor — dispatch never saw it.
            assert dispatch.items[1].future is survivor
        finally:
            controller.close()

    def test_close_rejects_queued_futures_with_clean_error(self):
        dispatch = RecordingDispatch()
        controller = make_controller(dispatch, workers=1)
        controller.admit(lambda: None, Future())
        dispatch.wait_for(1)
        queued = [Future() for _ in range(3)]
        for future in queued:
            controller.admit(lambda: None, future)
        assert controller.close() == 3
        for future in queued:
            assert future.done()
            with pytest.raises(ServiceClosedError):
                future.result(timeout=0)
        # Post-close admission is refused outright.
        with pytest.raises(ServiceClosedError):
            controller.admit(lambda: None, Future())
        assert controller.close() == 0  # idempotent

    def test_unknown_lane_rejected(self):
        dispatch = RecordingDispatch()
        controller = make_controller(dispatch)
        try:
            with pytest.raises(ValueError):
                controller.admit(lambda: None, Future(), "express")
        finally:
            controller.close()


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------

DOC = "Alerio Vantra presented the quarterly results in Sentara City."


@pytest.fixture()
def rate_limited_service(suite_context):
    # burst=1 with a glacial refill: the first request per client is
    # admitted, the second is deterministically shed.
    service = LinkingService(
        suite_context,
        ServiceConfig(
            workers=2,
            overload=OverloadConfig(
                rate_limit_per_second=0.001, rate_limit_burst=1
            ),
        ),
    )
    yield service
    service.close()


class TestEngineAdmission:
    def test_admitted_path_matches_direct_link(self, suite_context, suite):
        text = suite.kore50.documents[0].text
        service = LinkingService(suite_context, ServiceConfig(workers=2))
        try:
            direct = service.link(LinkRequest(text=text))
            admitted = service.link_admitted(LinkRequest(text=text))
            assert admitted.ok
            assert admitted.result == direct.result
            counters = service.snapshot()["counters"]
            assert counters["admission.admitted.interactive"] == 1
        finally:
            service.close()

    def test_rate_limit_is_per_client(self, rate_limited_service):
        first = rate_limited_service.link_admitted(
            LinkRequest(text=DOC), client_id="alpha"
        )
        assert first.ok
        with pytest.raises(RateLimitedError) as excinfo:
            rate_limited_service.admit(
                LinkRequest(text=DOC), client_id="alpha"
            )
        assert excinfo.value.retry_after_seconds > 0
        # A different client's bucket is untouched.
        other = rate_limited_service.link_admitted(
            LinkRequest(text=DOC), client_id="beta"
        )
        assert other.ok
        counters = rate_limited_service.snapshot()["counters"]
        assert counters["requests.rejected"] == 1
        assert counters["requests.rejected.rate_limited"] == 1

    def test_batch_lane_sheds_per_document(self, rate_limited_service):
        batch = BatchLinkRequest.of_texts(DOC, DOC, DOC)
        response = rate_limited_service.link_batch_admitted(
            batch, client_id="gamma"
        )
        codes = [
            r.error.code if r.error is not None else None
            for r in response.responses
        ]
        # burst=1: exactly one document is admitted, the rest get the
        # typed envelope instead of voiding the whole batch.
        assert codes.count(None) == 1
        assert codes.count("rate_limited") == 2
        shed = [r for r in response.responses if r.error is not None]
        assert all("retry after" in r.error.message for r in shed)

    def test_degraded_mode_routes_to_prior_only(self, suite_context, suite):
        text = suite.kore50.documents[0].text
        service = LinkingService(
            suite_context,
            ServiceConfig(
                workers=1,
                overload=OverloadConfig(
                    degraded_enter_queue_depth=1, degraded_exit_queue_depth=0
                ),
            ),
        )
        try:
            expected = service.linker.link_prior_only(text).to_json(
                include_timings=False
            )
            # Force the switch exactly as a deep queue would.
            assert service._degraded_mode.update(5, None) is True
            response = service.link(LinkRequest(text=text))
            assert response.ok and response.degraded
            assert response.result == expected
            counters = service.snapshot()["counters"]
            assert counters["degraded_mode.requests"] == 1
        finally:
            service.close()

    def test_overload_snapshot_block(self, suite_context):
        service = LinkingService(suite_context, ServiceConfig(workers=2))
        try:
            service.link_admitted(LinkRequest(text=DOC))
            block = service.snapshot()["overload"]
            assert block["queue_depth"]["total"] == 0
            assert block["inflight"] == 0
            assert block["degraded_mode"]["active"] is False
            assert block["config"]["max_queue_interactive"] == 64
            assert block["rate_limiter"] is None
        finally:
            service.close()

    def test_lane_field_routes_to_batch_lane(self, suite_context):
        service = LinkingService(suite_context, ServiceConfig(workers=2))
        try:
            response = service.link_admitted(
                LinkRequest(text=DOC, lane=BATCH_LANE), lane=BATCH_LANE
            )
            assert response.ok
            counters = service.snapshot()["counters"]
            assert counters["admission.admitted.batch"] == 1
        finally:
            service.close()


class TestShutdownDrain:
    def test_queued_requests_rejected_cleanly_on_close(self, suite_context):
        """Close with a full queue: every waiter unblocks, nothing hangs."""
        service = LinkingService(suite_context, ServiceConfig(workers=1))
        gate = threading.Event()
        real_handle = service.handle

        def gated_handle(request, deadline=None, trace=None):
            gate.wait(timeout=30)
            return real_handle(request, deadline, trace)

        service.handle = gated_handle
        futures = [
            service.admit(LinkRequest(text=DOC, request_id=f"drain-{i}"))
            for i in range(6)
        ]
        # Wait for the dispatcher to pin the single worker slot so the
        # remaining five are deterministically *queued* at close time.
        deadline = threading.Event()
        for _ in range(200):
            if service._admission.inflight() == 1:
                break
            deadline.wait(0.01)
        assert service._admission.inflight() == 1

        closer = threading.Thread(target=service.close)
        closer.start()
        gate.set()  # let the inflight request finish so close can join
        closer.join(timeout=30)
        assert not closer.is_alive(), "close() hung with queued requests"

        outcomes = {"ok": 0, "closed": 0}
        for future in futures:
            assert future.done(), "a queued request was dropped silently"
            try:
                response = future.result(timeout=0)
            except ServiceClosedError:
                outcomes["closed"] += 1
            else:
                assert response.ok
                outcomes["ok"] += 1
        # The inflight request completed; the queued five were rejected.
        assert outcomes == {"ok": 1, "closed": 5}
        counters = service.snapshot()["counters"]
        assert counters["requests.rejected_on_close"] == 5

    def test_link_admitted_after_close_raises(self, suite_context):
        service = LinkingService(suite_context, ServiceConfig(workers=1))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.link_admitted(LinkRequest(text=DOC))

    def test_admit_racing_close_never_leaks_runtime_error(
        self, suite_context, service_workers
    ):
        """Stress the submission-vs-shutdown window: threads hammering
        link/admit/link_batch while close() runs must only ever see a
        real response, the clean `unavailable` envelope, or admit's
        typed ServiceClosedError — never the executor's raw "cannot
        schedule new futures after shutdown" RuntimeError (run with
        TENET_TEST_WORKERS=8 for contention)."""
        service = LinkingService(
            suite_context, ServiceConfig(workers=service_workers)
        )
        start = threading.Event()
        stop = threading.Event()
        failures: list = []
        responses: list = []
        lock = threading.Lock()

        def record(response) -> None:
            with lock:
                responses.append(response)

        def hammer(kind: int) -> None:
            start.wait(timeout=10)
            i = 0
            while not stop.is_set():
                i += 1
                request = LinkRequest(text=DOC, request_id=f"race-{kind}-{i}")
                try:
                    if kind % 3 == 0:
                        record(service.link(request))
                    elif kind % 3 == 1:
                        try:
                            record(service.admit(request).result(timeout=30))
                        except ServiceClosedError:
                            pass  # admit's documented post-close contract
                    else:
                        batch = service.link_batch(
                            BatchLinkRequest((request,))
                        )
                        record(batch.responses[0])
                except BaseException as exc:  # noqa: BLE001 - the assertion
                    with lock:
                        failures.append(exc)
                    return

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(max(4, service_workers))
        ]
        for t in threads:
            t.start()
        start.set()
        time.sleep(0.3)  # let traffic reach a steady state mid-close
        service.close()
        stop.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "a submitter hung across close()"
        assert not failures, f"raw exception leaked through close: {failures!r}"
        assert responses, "stress produced no traffic"
        for response in responses:
            assert response.error is None or response.error.code == (
                "unavailable"
            ), f"unexpected envelope: {response.error}"

    def test_admit_after_close_is_typed(self, suite_context):
        service = LinkingService(suite_context, ServiceConfig(workers=1))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.admit(LinkRequest(text=DOC))


# ---------------------------------------------------------------------------
# HTTP front end: 429 semantics over a real socket
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def limited_server(suite_context):
    service = LinkingService(
        suite_context,
        ServiceConfig(
            workers=2,
            overload=OverloadConfig(
                rate_limit_per_second=0.001, rate_limit_burst=1
            ),
        ),
    )
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


def _post(server, path, payload, headers=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=60
    )
    try:
        connection.request(
            "POST", path, body=json.dumps(payload), headers=headers or {}
        )
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), json.loads(
            response.read()
        )
    finally:
        connection.close()


class TestHTTPRateLimiting:
    def test_second_request_is_429_with_retry_after(self, limited_server):
        headers = {"X-Client-Id": "http-one"}
        status, _, payload = _post(
            limited_server, "/link", {"text": DOC}, headers
        )
        assert status == 200 and payload["result"] is not None
        status, reply_headers, payload = _post(
            limited_server, "/link", {"text": DOC}, headers
        )
        assert status == 429
        assert payload["error"]["code"] == "rate_limited"
        retry_after = reply_headers.get("Retry-After")
        assert retry_after is not None and int(retry_after) >= 1

    def test_distinct_client_header_gets_through(self, limited_server):
        status, _, payload = _post(
            limited_server, "/link", {"text": DOC}, {"X-Client-Id": "http-two"}
        )
        assert status == 200 and payload["result"] is not None

    def test_metrics_surface_overload_block(self, limited_server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", limited_server.server_address[1], timeout=60
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            snapshot = json.loads(response.read())
        finally:
            connection.close()
        block = snapshot["overload"]
        assert block["rate_limiter"]["tracked_clients"] >= 1
        assert "degraded_mode" in block and "queue_depth" in block
