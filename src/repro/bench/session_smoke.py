"""Scripted session conversation against a live server, with asserts.

The executable half of the CI ``session-smoke`` job (and the local
``make session-smoke`` mirror): drive a real ``serve --sessions``
server through the session lifecycle end to end and fail loudly on any
drift —

* a **stream** session fed sentence chunks must end byte-identical to a
  one-shot ``POST /link`` of the concatenated text (the session
  parity guarantee, checked over the wire rather than in-process);
* a **conversation** session must accept newline-joined turns, report
  dense increments, and round-trip introspection and deletion
  (``GET`` → 200, ``DELETE`` → 200, ``GET`` again → 404);
* protocol misuse must map to the documented status codes (unknown
  request fields and kind mismatches → 400, feeds with ``--sessions``
  off → 404);
* the server's ``session.*`` metrics must account for every feed the
  script made.

Usage::

    python -m repro.bench.session_smoke --url http://127.0.0.1:8080

Exit status 0 when every check holds, 1 on the first violation.  Only
stdlib HTTP — the driver must not share code with the server under
test.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

# A paragraph over the seed synthetic world's best-known surface, so
# the parity check exercises real links, not just non-linkables.
STREAM_TEXT = (
    "Brooklyn is twinned with Brooklyn. "
    "The borough grew quickly after the bridge opened. "
    "Brooklyn publishes a yearly report about its growth."
)

CONVERSATION_TURNS = (
    "Brooklyn is twinned with Brooklyn.",
    "It grew quickly after the bridge opened.",
    "Brooklyn remains the topic of this conversation.",
)


class SmokeFailure(AssertionError):
    """One scripted expectation did not hold."""


def _request(
    url: str,
    payload: Optional[Dict[str, Any]] = None,
    method: str = "GET",
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, Any]]:
    """One JSON round-trip; HTTP errors come back as (status, body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        try:
            return error.code, json.loads(body)
        except json.JSONDecodeError:
            return error.code, {"raw": body.decode(errors="replace")}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _chunks_of(text: str) -> list:
    """Sentence-aligned chunks that concatenate back to *text*."""
    pieces = text.split(". ")
    chunks = [piece + ". " for piece in pieces[:-1]] + [pieces[-1]]
    _expect("".join(chunks) == text, "chunking lost bytes")
    return chunks


def run_stream_parity(base: str) -> int:
    """Feed STREAM_TEXT in chunks; final state must match one-shot /link."""
    chunks = _chunks_of(STREAM_TEXT)
    last: Dict[str, Any] = {}
    for i, chunk in enumerate(chunks):
        status, last = _request(
            f"{base}/session/smoke-stream/feed",
            {"chunk": chunk},
            method="POST",
        )
        _expect(status == 200, f"feed {i} returned {status}: {last}")
        _expect(
            last["increment"] == i + 1,
            f"feed {i} increment {last['increment']}, wanted {i + 1}",
        )
        _expect(
            last["created"] == (i == 0),
            f"feed {i} created={last['created']}",
        )
    status, one_shot = _request(
        f"{base}/link", {"text": STREAM_TEXT}, method="POST"
    )
    _expect(status == 200, f"/link returned {status}: {one_shot}")
    session_state = json.dumps(last["result"], sort_keys=True)
    linked = json.dumps(one_shot["result"], sort_keys=True)
    _expect(
        session_state == linked,
        "chunked session final state differs from one-shot /link",
    )
    print(
        f"stream parity: {len(chunks)} chunks -> byte-identical "
        f"({last['mentions']} mentions, solve={last['solve']!r})"
    )
    return len(chunks)


def run_conversation(base: str) -> int:
    """Multi-turn conversation: dense increments, info, delete, 404."""
    for i, turn in enumerate(CONVERSATION_TURNS):
        status, body = _request(
            f"{base}/session/smoke-conv/feed",
            {"chunk": turn, "kind": "conversation"},
            method="POST",
        )
        _expect(status == 200, f"turn {i} returned {status}: {body}")
        _expect(
            body["increment"] == i + 1,
            f"turn {i} increment {body['increment']}",
        )
        _expect(body["kind"] == "conversation", f"turn {i} kind {body['kind']}")
    status, info = _request(f"{base}/session/smoke-conv")
    _expect(status == 200, f"session GET returned {status}")
    _expect(
        info["increment"] == len(CONVERSATION_TURNS),
        f"info increment {info.get('increment')}",
    )
    status, _ = _request(f"{base}/session/smoke-conv", method="DELETE")
    _expect(status == 200, f"DELETE returned {status}")
    status, _ = _request(f"{base}/session/smoke-conv")
    _expect(status == 404, f"GET after DELETE returned {status}, wanted 404")
    print(f"conversation: {len(CONVERSATION_TURNS)} turns, lifecycle clean")
    return len(CONVERSATION_TURNS)


def run_protocol_errors(base: str) -> None:
    """Misuse maps to the documented status codes, never a 5xx."""
    status, body = _request(
        f"{base}/session/smoke-bad/feed",
        {"text": "wrong field name"},
        method="POST",
    )
    _expect(status == 400, f"unknown field returned {status}: {body}")
    status, _ = _request(
        f"{base}/session/smoke-stream2/feed",
        {"chunk": "first as a stream."},
        method="POST",
    )
    _expect(status == 200, f"setup feed returned {status}")
    status, body = _request(
        f"{base}/session/smoke-stream2/feed",
        {"chunk": "now as a conversation.", "kind": "conversation"},
        method="POST",
    )
    _expect(status == 400, f"kind mismatch returned {status}: {body}")
    _expect(
        body.get("error", {}).get("code") == "bad_request",
        f"kind mismatch error code: {body}",
    )
    print("protocol errors: 400s where documented, no 5xx")


def run_metrics_accounting(base: str, feeds_made: int) -> None:
    status, metrics = _request(f"{base}/metrics")
    _expect(status == 200, f"/metrics returned {status}")
    counters = metrics.get("counters", {})
    observed = counters.get("session.feeds", 0)
    _expect(
        observed >= feeds_made,
        f"server counted {observed} session feeds, script made {feeds_made}",
    )
    _expect(
        "sessions" in metrics,
        "metrics payload carries no sessions block",
    )
    print(
        f"metrics: session.feeds={observed} covers the scripted "
        f"{feeds_made}, active={metrics['sessions'].get('active')}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scripted session smoke against a live --sessions server"
    )
    parser.add_argument("--url", default="http://127.0.0.1:8080")
    args = parser.parse_args(argv)
    base = args.url.rstrip("/")
    try:
        feeds = run_stream_parity(base)
        feeds += run_conversation(base)
        run_protocol_errors(base)
        run_metrics_accounting(base, feeds)
    except SmokeFailure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: session smoke held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
