"""Session registry: LRU + TTL eviction with per-session serialization.

The manager owns the mapping ``session_id -> live session`` for the
serving layer.  Locking is two-level:

* a *registry lock* guards the id table — resolve/create, LRU/TTL
  eviction and close all run under it, and none of them ever waits for
  a linking solve;
* a *per-session lock* serializes feeds to one session — concurrent
  feeds queue behind each other instead of interleaving solver state.

Eviction never takes the session lock: it flips the entry's ``evicted``
flag and drops the table entry.  A feeder that was already queued on
the session lock re-checks the flag once it acquires it and surfaces a
clean :class:`~repro.session.sessions.SessionEvictedError` — eviction
mid-feed is a typed error, never a hang.  ``close()`` does the same
with ``closed`` so in-flight feeds drain into
:class:`~repro.session.sessions.SessionClosedError` (the HTTP layer's
503 envelope).
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.session.sessions import (
    SESSION_KINDS,
    SessionClosedError,
    SessionError,
    SessionEvictedError,
)
from repro.session.state import IncrementOutcome

_SESSION_ID = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def validate_session_id(session_id: str) -> str:
    if not isinstance(session_id, str) or not _SESSION_ID.match(session_id):
        raise SessionError(
            "session id must be 1-128 characters of [A-Za-z0-9._-]"
        )
    return session_id


class _Entry:
    __slots__ = (
        "session", "kind", "lock", "created_at", "last_used",
        "evicted", "closed",
    )

    def __init__(self, session, kind: str, now: float) -> None:
        self.session = session
        self.kind = kind
        self.lock = threading.Lock()
        self.created_at = now
        self.last_used = now
        self.evicted: Optional[str] = None  # eviction reason, once evicted
        self.closed = False


class SessionManager:
    """LRU/TTL-bounded table of live sessions."""

    def __init__(
        self,
        factory: Callable[[str], object],
        max_sessions: int = 64,
        ttl_seconds: float = 600.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        self._factory = factory
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._closed = False
        self.created = 0
        self.evicted_lru = 0
        self.evicted_ttl = 0
        self.deleted = 0

    # ------------------------------------------------------------------
    def feed(
        self,
        session_id: str,
        chunk: str,
        kind: str = "stream",
        deadline=None,
        trace=None,
    ) -> Tuple[IncrementOutcome, bool]:
        """Feed one increment; returns ``(outcome, created)``.

        Creates the session on first use.  Raises
        :class:`SessionEvictedError` / :class:`SessionClosedError` as
        typed lifecycle errors, :class:`SessionError` for id/kind
        misuse, and propagates solver errors (deadline aborts) with the
        session state unchanged.
        """
        validate_session_id(session_id)
        if kind not in SESSION_KINDS:
            raise SessionError(
                f"session kind must be one of {SESSION_KINDS}, got {kind!r}"
            )
        created = False
        with self._lock:
            if self._closed:
                raise SessionClosedError("session manager is closed")
            self._sweep_locked()
            entry = self._entries.get(session_id)
            if entry is None:
                entry = _Entry(self._factory(kind), kind, self._clock())
                self._entries[session_id] = entry
                self.created += 1
                created = True
                self._evict_over_capacity_locked(keep=session_id)
            elif entry.kind != kind:
                raise SessionError(
                    f"session {session_id!r} is a {entry.kind!r} session, "
                    f"not {kind!r}"
                )
            self._entries.move_to_end(session_id)
            entry.last_used = self._clock()
        with entry.lock:
            # Re-check after acquiring: an LRU/TTL sweep or close may
            # have run while this feed queued behind another.
            if entry.evicted is not None:
                raise SessionEvictedError(
                    f"session {session_id!r} was evicted ({entry.evicted})"
                )
            if entry.closed or self._closed:
                raise SessionClosedError("session manager is closed")
            outcome = entry.session.feed(chunk, deadline=deadline, trace=trace)
            entry.last_used = self._clock()
            return outcome, created

    # ------------------------------------------------------------------
    def get(self, session_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            self._sweep_locked()
            entry = self._entries.get(session_id)
            if entry is None:
                return None
            now = self._clock()
            return {
                "session_id": session_id,
                "kind": entry.kind,
                "increment": entry.session.increment,
                "text_length": len(entry.session.text),
                "idle_seconds": max(0.0, now - entry.last_used),
                "age_seconds": max(0.0, now - entry.created_at),
            }

    def delete(self, session_id: str) -> bool:
        with self._lock:
            entry = self._entries.pop(session_id, None)
            if entry is None:
                return False
            entry.evicted = "deleted"
            self.deleted += 1
            return True

    def close(self) -> int:
        """Drain: mark everything closed; in-flight feeds get 503s."""
        with self._lock:
            self._closed = True
            drained = len(self._entries)
            for entry in self._entries.values():
                entry.closed = True
            self._entries.clear()
            return drained

    # ------------------------------------------------------------------
    def active_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def session_ids(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "active": len(self._entries),
                "created": self.created,
                "evicted_lru": self.evicted_lru,
                "evicted_ttl": self.evicted_ttl,
                "deleted": self.deleted,
                "max_sessions": self.max_sessions,
            }

    # ------------------------------------------------------------------
    def _sweep_locked(self) -> None:
        if not self._entries:
            return
        horizon = self._clock() - self.ttl_seconds
        expired = [
            sid
            for sid, entry in self._entries.items()
            if entry.last_used < horizon
        ]
        for sid in expired:
            entry = self._entries.pop(sid)
            entry.evicted = "ttl"
            self.evicted_ttl += 1

    def _evict_over_capacity_locked(self, keep: str) -> None:
        while len(self._entries) > self.max_sessions:
            for sid in self._entries:
                if sid != keep:
                    entry = self._entries.pop(sid)
                    entry.evicted = "lru"
                    self.evicted_lru += 1
                    break
            else:  # pragma: no cover - keep is the only entry
                break
