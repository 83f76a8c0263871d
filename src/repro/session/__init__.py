"""Stateful incremental linking: streaming and conversational sessions.

Public surface of the ``repro.session`` subsystem:

* :class:`StreamingSession` / :class:`ConversationSession` — the two
  front doors (``feed(chunk)`` over a document stream, ``turn(utterance)``
  over a dialog);
* :class:`IncrementalLinker` / :class:`IncrementOutcome` — the shared
  per-document state machine and its per-increment report;
* :class:`SessionManager` — the serving layer's LRU+TTL session table;
* :class:`SessionConfig` and the typed lifecycle errors;
* :mod:`repro.session.workloads` — deterministic stream/conversation
  workload generators persisted as snapshot artifacts.

See docs/sessions.md for the state model and parity guarantees.
"""

from repro.session.manager import SessionManager, validate_session_id
from repro.session.sessions import (
    SESSION_KINDS,
    ConversationSession,
    SessionClosedError,
    SessionConfig,
    SessionError,
    SessionEvictedError,
    StreamingSession,
)
from repro.session.state import IncrementalLinker, IncrementOutcome

__all__ = [
    "SESSION_KINDS",
    "ConversationSession",
    "IncrementalLinker",
    "IncrementOutcome",
    "SessionClosedError",
    "SessionConfig",
    "SessionError",
    "SessionEvictedError",
    "SessionManager",
    "StreamingSession",
    "validate_session_id",
]
