"""Typed request/response schema of the linking service.

Every wire object is a frozen dataclass with an exact JSON round-trip
(``to_json`` / ``from_json``).  Parsing is strict: unknown fields and
wrong types raise :class:`SchemaError`, which the HTTP layer maps to a
400 error envelope, so malformed client input never reaches the engine.

Response bodies are deterministic for a given document: the linking
``result`` block excludes wall-clock timings (those travel in the
separate ``timings`` field), so identical documents produce
byte-identical ``result`` payloads whether linked sequentially or by
many threads — the property the service-parity tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple


class SchemaError(ValueError):
    """A request body that does not match the schema."""


def _require(payload: Mapping[str, Any], cls: str, allowed: Tuple[str, ...]) -> None:
    if not isinstance(payload, Mapping):
        raise SchemaError(f"{cls}: expected a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise SchemaError(f"{cls}: unknown fields {unknown}")


@dataclass(frozen=True)
class ServiceError:
    """Error envelope carried in responses and HTTP error bodies.

    ``code`` is a stable machine-readable slug (``bad_request``,
    ``timeout``, ``internal``, ``not_found``, ``rate_limited``,
    ``queue_full``, ``unavailable``, ``session_evicted``); ``message``
    is for humans.
    """

    code: str
    message: str

    def to_json(self) -> Dict[str, Any]:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ServiceError":
        _require(payload, "ServiceError", ("code", "message"))
        try:
            return cls(code=str(payload["code"]), message=str(payload["message"]))
        except KeyError as exc:
            raise SchemaError(f"ServiceError: missing field {exc}") from exc


LANES = ("interactive", "batch")


@dataclass(frozen=True)
class LinkRequest:
    """One document to link.

    ``timeout_seconds`` overrides the service's default per-request
    deadline (``None`` keeps the service default).  ``lane`` picks the
    admission lane (``"interactive"`` — the default — or ``"batch"``;
    batch work is strictly lower priority and can never starve
    interactive traffic).
    """

    text: str
    request_id: Optional[str] = None
    timeout_seconds: Optional[float] = None
    lane: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise SchemaError(
                f"LinkRequest.text must be a string, got {type(self.text).__name__}"
            )
        if not self.text.strip():
            raise SchemaError("LinkRequest.text must be non-empty")
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise SchemaError("LinkRequest.timeout_seconds must be >= 0")
        if self.lane is not None and self.lane not in LANES:
            raise SchemaError(
                f"LinkRequest.lane must be one of {list(LANES)}, got {self.lane!r}"
            )

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"text": self.text}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.timeout_seconds is not None:
            payload["timeout_seconds"] = self.timeout_seconds
        if self.lane is not None:
            payload["lane"] = self.lane
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "LinkRequest":
        _require(
            payload,
            "LinkRequest",
            ("text", "request_id", "timeout_seconds", "lane"),
        )
        if "text" not in payload:
            raise SchemaError("LinkRequest: missing field 'text'")
        request_id = payload.get("request_id")
        if request_id is not None and not isinstance(request_id, str):
            raise SchemaError("LinkRequest.request_id must be a string")
        timeout = payload.get("timeout_seconds")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise SchemaError("LinkRequest.timeout_seconds must be a number")
        lane = payload.get("lane")
        if lane is not None and not isinstance(lane, str):
            raise SchemaError("LinkRequest.lane must be a string")
        return cls(
            text=payload["text"],
            request_id=request_id,
            timeout_seconds=float(timeout) if timeout is not None else None,
            lane=lane,
        )


@dataclass(frozen=True)
class LinkResponse:
    """Outcome of linking one document.

    ``result`` is the deterministic ``LinkingResult.to_json`` payload
    (timings stripped); ``degraded`` marks a deadline-exceeded request
    answered by the prior-only fallback; ``aborted_stage`` names the
    pipeline checkpoint where a cooperative cancellation tripped (only
    on worker-side aborts — ``None`` when the degraded answer was built
    caller-side or the request completed); ``trace_id`` is the
    request-scoped trace identifier (also echoed by the HTTP server as
    the ``X-Trace-Id`` header) that resolves at ``GET /debug/traces``
    when tracing is enabled; ``error`` is set (and ``result`` is None)
    only when linking failed outright.
    """

    result: Optional[Dict[str, Any]] = None
    request_id: Optional[str] = None
    degraded: bool = False
    elapsed_seconds: float = 0.0
    timings: Dict[str, float] = field(default_factory=dict)
    aborted_stage: Optional[str] = None
    trace_id: Optional[str] = None
    error: Optional[ServiceError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "result": self.result,
            "degraded": self.degraded,
            "elapsed_seconds": self.elapsed_seconds,
            "timings": dict(self.timings),
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.aborted_stage is not None:
            payload["aborted_stage"] = self.aborted_stage
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.error is not None:
            payload["error"] = self.error.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "LinkResponse":
        _require(
            payload,
            "LinkResponse",
            (
                "result",
                "degraded",
                "elapsed_seconds",
                "timings",
                "request_id",
                "aborted_stage",
                "trace_id",
                "error",
            ),
        )
        error = payload.get("error")
        aborted_stage = payload.get("aborted_stage")
        if aborted_stage is not None and not isinstance(aborted_stage, str):
            raise SchemaError("LinkResponse.aborted_stage must be a string")
        trace_id = payload.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise SchemaError("LinkResponse.trace_id must be a string")
        return cls(
            result=payload.get("result"),
            request_id=payload.get("request_id"),
            degraded=bool(payload.get("degraded", False)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            timings=dict(payload.get("timings", {})),
            aborted_stage=aborted_stage,
            trace_id=trace_id,
            error=ServiceError.from_json(error) if error is not None else None,
        )


@dataclass(frozen=True)
class BatchLinkRequest:
    """Several documents linked as one batch."""

    requests: Tuple[LinkRequest, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise SchemaError("BatchLinkRequest: 'documents' must be non-empty")

    @classmethod
    def of_texts(cls, *texts: str) -> "BatchLinkRequest":
        return cls(tuple(LinkRequest(text=t) for t in texts))

    def to_json(self) -> Dict[str, Any]:
        return {"documents": [r.to_json() for r in self.requests]}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "BatchLinkRequest":
        _require(payload, "BatchLinkRequest", ("documents",))
        documents = payload.get("documents")
        if not isinstance(documents, list) or not documents:
            raise SchemaError("BatchLinkRequest: 'documents' must be a non-empty list")
        requests = []
        for entry in documents:
            # Bare strings are accepted as shorthand for {"text": ...}.
            if isinstance(entry, str):
                requests.append(LinkRequest(text=entry))
            else:
                requests.append(LinkRequest.from_json(entry))
        return cls(tuple(requests))


@dataclass(frozen=True)
class BatchLinkResponse:
    """Responses in the same order as the batch's documents."""

    responses: Tuple[LinkResponse, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.responses)

    def to_json(self) -> Dict[str, Any]:
        return {"responses": [r.to_json() for r in self.responses]}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "BatchLinkResponse":
        _require(payload, "BatchLinkResponse", ("responses",))
        responses = payload.get("responses")
        if not isinstance(responses, list):
            raise SchemaError("BatchLinkResponse: 'responses' must be a list")
        return cls(tuple(LinkResponse.from_json(r) for r in responses))


SESSION_REQUEST_KINDS = ("stream", "conversation")


@dataclass(frozen=True)
class SessionFeedRequest:
    """One increment fed into a stateful session.

    ``kind`` selects the session flavour on first use (``"stream"``
    appends verbatim document chunks; ``"conversation"`` appends
    newline-joined dialog turns with coref threading and the context
    prior boost).  Subsequent feeds must repeat the same kind; a
    mismatch is a ``bad_request``.
    """

    chunk: str
    kind: str = "stream"
    request_id: Optional[str] = None
    timeout_seconds: Optional[float] = None
    lane: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.chunk, str):
            raise SchemaError(
                f"SessionFeedRequest.chunk must be a string, got "
                f"{type(self.chunk).__name__}"
            )
        if not self.chunk.strip():
            raise SchemaError("SessionFeedRequest.chunk must be non-empty")
        if self.kind not in SESSION_REQUEST_KINDS:
            raise SchemaError(
                f"SessionFeedRequest.kind must be one of "
                f"{list(SESSION_REQUEST_KINDS)}, got {self.kind!r}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise SchemaError("SessionFeedRequest.timeout_seconds must be >= 0")
        if self.lane is not None and self.lane not in LANES:
            raise SchemaError(
                f"SessionFeedRequest.lane must be one of {list(LANES)}, "
                f"got {self.lane!r}"
            )

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"chunk": self.chunk, "kind": self.kind}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.timeout_seconds is not None:
            payload["timeout_seconds"] = self.timeout_seconds
        if self.lane is not None:
            payload["lane"] = self.lane
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SessionFeedRequest":
        _require(
            payload,
            "SessionFeedRequest",
            ("chunk", "kind", "request_id", "timeout_seconds", "lane"),
        )
        if "chunk" not in payload:
            raise SchemaError("SessionFeedRequest: missing field 'chunk'")
        kind = payload.get("kind", "stream")
        if not isinstance(kind, str):
            raise SchemaError("SessionFeedRequest.kind must be a string")
        request_id = payload.get("request_id")
        if request_id is not None and not isinstance(request_id, str):
            raise SchemaError("SessionFeedRequest.request_id must be a string")
        timeout = payload.get("timeout_seconds")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise SchemaError(
                "SessionFeedRequest.timeout_seconds must be a number"
            )
        lane = payload.get("lane")
        if lane is not None and not isinstance(lane, str):
            raise SchemaError("SessionFeedRequest.lane must be a string")
        return cls(
            chunk=payload["chunk"],
            kind=kind,
            request_id=request_id,
            timeout_seconds=float(timeout) if timeout is not None else None,
            lane=lane,
        )


@dataclass(frozen=True)
class SessionFeedResponse:
    """Outcome of one session increment.

    ``result`` is the session's *accumulated* deterministic linking
    payload after this increment (``LinkingResult.to_json`` with
    timings stripped — the same shape :class:`LinkResponse` carries, so
    the final increment of a chunked feed is byte-comparable against a
    one-shot ``/link`` of the concatenated text).  ``solve`` is
    ``initial`` for a session's first increment and ``full`` after;
    ``mentions`` / ``memo`` / ``coref`` summarise the incremental reuse
    for observability.
    """

    result: Optional[Dict[str, Any]] = None
    session_id: Optional[str] = None
    kind: Optional[str] = None
    increment: int = 0
    created: bool = False
    solve: Optional[str] = None
    mentions: Dict[str, int] = field(default_factory=dict)
    memo: Dict[str, int] = field(default_factory=dict)
    coref: Tuple[Dict[str, Any], ...] = ()
    text_length: int = 0
    request_id: Optional[str] = None
    degraded: bool = False
    elapsed_seconds: float = 0.0
    timings: Dict[str, float] = field(default_factory=dict)
    aborted_stage: Optional[str] = None
    trace_id: Optional[str] = None
    error: Optional[ServiceError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "result": self.result,
            "increment": self.increment,
            "created": self.created,
            "degraded": self.degraded,
            "elapsed_seconds": self.elapsed_seconds,
            "timings": dict(self.timings),
            "mentions": dict(self.mentions),
            "memo": dict(self.memo),
            "coref": [dict(entry) for entry in self.coref],
            "text_length": self.text_length,
        }
        for key in ("session_id", "kind", "solve"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.aborted_stage is not None:
            payload["aborted_stage"] = self.aborted_stage
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.error is not None:
            payload["error"] = self.error.to_json()
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SessionFeedResponse":
        _require(
            payload,
            "SessionFeedResponse",
            (
                "result",
                "session_id",
                "kind",
                "increment",
                "created",
                "solve",
                "mentions",
                "memo",
                "coref",
                "text_length",
                "request_id",
                "degraded",
                "elapsed_seconds",
                "timings",
                "aborted_stage",
                "trace_id",
                "error",
            ),
        )
        error = payload.get("error")
        coref = payload.get("coref", [])
        if not isinstance(coref, list):
            raise SchemaError("SessionFeedResponse.coref must be a list")
        return cls(
            result=payload.get("result"),
            session_id=payload.get("session_id"),
            kind=payload.get("kind"),
            increment=int(payload.get("increment", 0)),
            created=bool(payload.get("created", False)),
            solve=payload.get("solve"),
            mentions=dict(payload.get("mentions", {})),
            memo=dict(payload.get("memo", {})),
            coref=tuple(dict(entry) for entry in coref),
            text_length=int(payload.get("text_length", 0)),
            request_id=payload.get("request_id"),
            degraded=bool(payload.get("degraded", False)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            timings=dict(payload.get("timings", {})),
            aborted_stage=payload.get("aborted_stage"),
            trace_id=payload.get("trace_id"),
            error=ServiceError.from_json(error) if error is not None else None,
        )
