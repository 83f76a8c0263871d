"""The load generator: one keep-alive HTTP connection, requests back to back.

All timestamps are ``time.perf_counter`` (``CLOCK_MONOTONIC``), the clock
the traced server's spans use, so client and server times subtract.
"""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass
from typing import Optional

HOST = "127.0.0.1"
#: Header carrying the benchmark's id of each request (the traced
#: server's wrappers read it; the server itself ignores it).
ID_HEADER = "X-Bench-Id"


@dataclass(frozen=True)
class Request:
    op_id: str
    method: str
    path: str
    body: Optional[bytes] = None


@dataclass
class Record:
    """What happened to one request.  ``status`` 0 is a transport error."""

    op_id: str
    sent: float
    done: float
    status: int
    body: bytes
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(HOST, port, timeout=120)

    def send(self, request: Request) -> Record:
        headers = {ID_HEADER: request.op_id}
        if request.body is not None:
            headers["Content-Type"] = "application/json"
        sent = time.perf_counter()
        try:
            self.connection.request(
                request.method, request.path, body=request.body, headers=headers
            )
            response = self.connection.getresponse()
            body = response.read()
            status, error = response.status, None
        except (OSError, http.client.HTTPException) as exc:
            self.connection.close()
            body, status, error = b"", 0, f"{type(exc).__name__}: {exc}"
        return Record(request.op_id, sent, time.perf_counter(), status, body, error)

    def close(self) -> None:
        self.connection.close()
