"""HTTP front-end tests over a real socket (loopback, ephemeral port)."""

import http.client
import json
import threading

import pytest

from repro.core.linker import TenetLinker
from repro.service.engine import LinkingService, ServiceConfig
from repro.service.server import create_server


@pytest.fixture(scope="module")
def served(suite_context, service_workers):
    service = LinkingService(suite_context, ServiceConfig(workers=service_workers))
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


def _request(served, method, path, payload=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", served.server_address[1], timeout=60
    )
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, served):
        status, payload = _request(served, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok"}

    def test_link_matches_sequential(self, served, suite_context, suite):
        text = suite.kore50.documents[0].text
        expected = TenetLinker(suite_context).link(text).to_json(
            include_timings=False
        )
        status, payload = _request(served, "POST", "/link", {"text": text})
        assert status == 200
        assert payload["result"] == expected
        assert payload["degraded"] is False
        assert "timings" in payload

    def test_concurrent_clients_identical_responses(
        self, served, suite_context, suite
    ):
        texts = [doc.text for doc in suite.news.documents[:4]] * 2
        linker = TenetLinker(suite_context)
        expected = [
            linker.link(text).to_json(include_timings=False) for text in texts
        ]
        results = [None] * len(texts)
        errors = []

        def client(indices):
            try:
                for i in indices:
                    _, payload = _request(
                        served, "POST", "/link", {"text": texts[i]}
                    )
                    results[i] = payload["result"]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(range(n, len(texts), 4),))
            for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == expected

    def test_batch(self, served, suite):
        texts = [doc.text for doc in suite.kore50.documents[:3]]
        status, payload = _request(
            served, "POST", "/batch", {"documents": texts}
        )
        assert status == 200
        assert len(payload["responses"]) == 3
        assert all(r["result"] is not None for r in payload["responses"])

    def test_one_mention_document_is_answered(self, served):
        # Its cover is infeasible at the paper's B = |M| = 1; the linker
        # doubles B instead of failing, so neither /link nor a /batch
        # that carries it turns into a 500.
        status, payload = _request(served, "POST", "/link", {"text": "Kumar."})
        assert status == 200
        assert payload.get("error") is None
        assert payload["result"] is not None
        status, payload = _request(
            served, "POST", "/batch", {"documents": ["Kumar.", "Brooklyn."]}
        )
        assert status == 200
        assert [r.get("error") for r in payload["responses"]] == [None, None]
        assert all(r["result"] is not None for r in payload["responses"])

    def test_metrics_reports_counters_and_caches(
        self, served, suite, service_workers
    ):
        _request(served, "POST", "/link", {"text": suite.news.documents[0].text})
        status, payload = _request(served, "GET", "/metrics")
        assert status == 200
        assert payload["counters"]["requests.total"] >= 1
        assert "latency.link" in payload["latencies"]
        assert payload["caches"]["enabled"] is True
        assert payload["config"]["workers"] == service_workers
        assert payload["gauges"]["pool.worker_count"] == service_workers

    def test_request_id_echo(self, served, suite):
        status, payload = _request(
            served,
            "POST",
            "/link",
            {"text": suite.news.documents[0].text, "request_id": "cli-7"},
        )
        assert status == 200
        assert payload["request_id"] == "cli-7"


class TestErrors:
    def test_unknown_path(self, served):
        status, payload = _request(served, "GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_invalid_json(self, served):
        connection = http.client.HTTPConnection(
            "127.0.0.1", served.server_address[1], timeout=30
        )
        try:
            connection.request("POST", "/link", body="{not json")
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_schema_violation(self, served):
        status, payload = _request(served, "POST", "/link", {"wrong": "field"})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_empty_body(self, served):
        status, payload = _request(served, "POST", "/link")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_empty_text(self, served):
        status, payload = _request(served, "POST", "/link", {"text": "  "})
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_non_object_body(self, served):
        status, payload = _request(served, "POST", "/link", [1, 2])
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "JSON object" in payload["error"]["message"]


class TestKeepAlive:
    """One HTTP/1.1 connection must survive rejected requests.

    Every 400 whose body *was* read keeps the connection reusable; the
    early 400s that skip the body (empty / oversized declarations) must
    close it so the unread bytes are never parsed as the next request.
    """

    def _open(self, served):
        return http.client.HTTPConnection(
            "127.0.0.1", served.server_address[1], timeout=30
        )

    def test_non_object_bodies_do_not_poison_the_connection(
        self, served, suite
    ):
        connection = self._open(served)
        try:
            for bad in ([1, 2], "hi", 7, None, True):
                connection.request("POST", "/link", body=json.dumps(bad))
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 400
                assert payload["error"]["code"] == "bad_request"
                assert "JSON object" in payload["error"]["message"]
            # The same connection still serves a valid request.
            connection.request(
                "POST",
                "/link",
                body=json.dumps({"text": suite.news.documents[0].text}),
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["result"] is not None
        finally:
            connection.close()

    def test_garbage_then_valid_on_one_connection(self, served, suite):
        connection = self._open(served)
        try:
            connection.request("POST", "/link", body="{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["code"] == "bad_request"
            connection.request(
                "POST",
                "/link",
                body=json.dumps({"text": suite.kore50.documents[0].text}),
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["result"] is not None
        finally:
            connection.close()

    def test_oversized_body_declaration_closes_the_connection(self, served):
        connection = self._open(served)
        try:
            # Declare a 9 MiB body but never send it: the server must
            # refuse without reading and drop the connection, because the
            # undelivered bytes would otherwise be parsed as the next
            # request line.
            connection.putrequest("POST", "/link")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(9 * 1024 * 1024))
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "bad_request"
            assert response.getheader("Connection") == "close"
            # http.client transparently reopens after the server-side
            # close; the follow-up request must succeed.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
        finally:
            connection.close()

    def test_empty_body_closes_the_connection(self, served):
        connection = self._open(served)
        try:
            connection.request("POST", "/link")
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            json.loads(response.read())
        finally:
            connection.close()

    def _declare_length(self, connection, value):
        connection.putrequest("POST", "/link", skip_host=False)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", value)
        connection.endheaders()

    @pytest.mark.parametrize("declared", ["abc", "12abc", "1e3", " "])
    def test_malformed_content_length_is_a_400_not_a_500(
        self, served, declared
    ):
        # A non-numeric declaration used to blow up in bare int() — an
        # unhandled ValueError and a 500 with a traceback body.
        connection = self._open(served)
        try:
            self._declare_length(connection, declared)
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "bad_request"
            assert "Content-Length" in payload["error"]["message"]
            assert response.getheader("Connection") == "close"
            # The server must still answer a follow-up request.
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    def test_negative_content_length_is_a_400_not_a_hang(self, served):
        # A negative length used to become rfile.read(-1): the handler
        # blocked until the client gave up on the keep-alive socket.
        connection = self._open(served)
        try:
            self._declare_length(connection, "-5")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "bad_request"
            assert "Content-Length" in payload["error"]["message"]
            assert response.getheader("Connection") == "close"
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()


@pytest.fixture(scope="module")
def served_traced(suite_context, service_workers):
    """A served stack with tracing forced on (independent of TENET_TRACE)."""
    service = LinkingService(
        suite_context,
        ServiceConfig(workers=service_workers, trace_enabled=True),
    )
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)


class TestTracing:
    def _link(self, served_traced, text, request_id=None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", served_traced.server_address[1], timeout=60
        )
        try:
            body = {"text": text}
            if request_id is not None:
                body["request_id"] = request_id
            connection.request("POST", "/link", body=json.dumps(body))
            response = connection.getresponse()
            return (
                response.status,
                response.getheader("X-Trace-Id"),
                json.loads(response.read()),
            )
        finally:
            connection.close()

    def test_trace_id_header_resolves_at_debug_traces(
        self, served_traced, suite
    ):
        status, header, payload = self._link(
            served_traced, suite.kore50.documents[0].text, request_id="t-1"
        )
        assert status == 200
        assert header is not None
        assert payload["trace_id"] == header
        status, traces = _request(
            served_traced, "GET", f"/debug/traces?trace_id={header}"
        )
        assert status == 200
        assert traces["enabled"] is True
        assert traces["count"] == 1
        (trace,) = traces["traces"]
        assert trace["trace_id"] == header
        assert trace["request_id"] == "t-1"

    def test_span_durations_agree_with_stage_timings(
        self, served_traced, suite
    ):
        _, header, payload = self._link(
            served_traced, suite.news.documents[0].text
        )
        _, traces = _request(
            served_traced, "GET", f"/debug/traces?trace_id={header}"
        )
        (trace,) = traces["traces"]
        spans = {
            span["name"]: span["duration_seconds"] for span in trace["spans"]
        }
        # Spans reuse the stage stopwatch, so the recorded durations are
        # the same floats the response's timings carry — not merely close.
        for stage, seconds in payload["timings"].items():
            assert spans[stage] == seconds
        # Engine-only spans ride along.
        assert "queue_wait" in spans
        assert "cache_lookups" in spans

    def test_default_stack_follows_env(self, served):
        # The module `served` fixture leaves trace_enabled=None, so it
        # follows TENET_TRACE: disabled in the plain CI run, enabled in
        # the contention job.  Either way the endpoint and the response
        # envelope must agree with the tracer's state.
        enabled = served.service.tracer.enabled
        _, payload = _request(
            served, "POST", "/link", {"text": "Tesla founded a company."}
        )
        assert ("trace_id" in payload) == enabled
        status, traces = _request(served, "GET", "/debug/traces")
        assert status == 200
        assert traces["enabled"] == enabled
        if not enabled:
            assert traces["traces"] == []

    def test_slow_threshold_filter(self, served_traced, suite):
        self._link(served_traced, suite.news.documents[1].text)
        _, kept = _request(
            served_traced, "GET", "/debug/traces?slow_seconds=0"
        )
        assert kept["count"] >= 1
        _, none_kept = _request(
            served_traced, "GET", "/debug/traces?slow_seconds=3600"
        )
        assert none_kept["count"] == 0

    @pytest.mark.parametrize(
        "query",
        ["limit=abc", "limit=0", "slow_seconds=x", "slow_seconds=-1"],
    )
    def test_bad_query_params_are_400(self, served_traced, query):
        status, payload = _request(
            served_traced, "GET", f"/debug/traces?{query}"
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
