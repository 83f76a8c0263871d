"""The two session front doors: streaming documents and conversations.

:class:`StreamingSession` models one document arriving in chunks — the
accumulated text is the verbatim concatenation of everything fed, so a
session that consumed a document in K chunks holds exactly the text a
one-shot link would see (the parity gate in the bench harness depends
on this).

:class:`ConversationSession` models a multi-turn dialog — turns are
joined with newlines, coref chains resolve pronouns against earlier
turns' entities, and concepts linked in earlier turns receive a small
candidate-prior boost on later turns (the "context prior" of the
sentence-level joint-embedding line of work), so a returning topic
("the theorem", "he") prefers the reading the conversation already
established.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.deadline import Deadline
from repro.core.linker import TenetLinker
from repro.core.result import LinkingResult
from repro.session.state import IncrementalLinker, IncrementOutcome

SESSION_KINDS = ("stream", "conversation")


class SessionError(RuntimeError):
    """Base class for session lifecycle errors."""


class SessionEvictedError(SessionError):
    """The session was evicted (LRU/TTL/delete) — create a new one."""


class SessionClosedError(SessionError):
    """The session (or the whole service) is shutting down."""


@dataclass(frozen=True)
class SessionConfig:
    """Knobs shared by both session kinds."""

    context_prior_boost: float = 0.08

    def __post_init__(self) -> None:
        if not 0.0 <= self.context_prior_boost <= 1.0:
            raise ValueError(
                "context_prior_boost must be within [0, 1], got "
                f"{self.context_prior_boost}"
            )


class StreamingSession:
    """Incremental linking over one document stream."""

    kind = "stream"

    def __init__(
        self, linker: TenetLinker, config: Optional[SessionConfig] = None
    ) -> None:
        self.config = config or SessionConfig()
        self.state = IncrementalLinker(linker)

    def feed(
        self,
        chunk: str,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> IncrementOutcome:
        """Append *chunk* verbatim and re-link the accumulated document."""
        if not chunk.strip():
            raise ValueError("chunk must contain non-whitespace text")
        return self.state.feed(chunk, deadline=deadline, trace=trace)

    @property
    def text(self) -> str:
        return self.state.text

    @property
    def increment(self) -> int:
        return self.state.increment

    @property
    def result(self) -> Optional[LinkingResult]:
        return self.state.result


class ConversationSession:
    """Incremental linking over a multi-turn dialog."""

    kind = "conversation"

    def __init__(
        self, linker: TenetLinker, config: Optional[SessionConfig] = None
    ) -> None:
        self.config = config or SessionConfig()
        self.state = IncrementalLinker(linker)
        # Concepts linked in earlier turns -> how many turns linked them.
        self.seen_concepts: Dict[str, int] = {}

    def turn(
        self,
        utterance: str,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> IncrementOutcome:
        """Link one new utterance in the context of all earlier turns."""
        if not utterance.strip():
            raise ValueError("utterance must contain non-whitespace text")
        outcome = self.state.feed(
            utterance,
            separator="\n",
            boost_concepts=set(self.seen_concepts),
            boost=self.config.context_prior_boost,
            deadline=deadline,
            trace=trace,
        )
        for link in outcome.result.links:
            self.seen_concepts[link.concept_id] = (
                self.seen_concepts.get(link.concept_id, 0) + 1
            )
        return outcome

    # The session manager drives both kinds through ``feed``.
    feed = turn

    @property
    def text(self) -> str:
        return self.state.text

    @property
    def increment(self) -> int:
        return self.state.increment

    @property
    def result(self) -> Optional[LinkingResult]:
        return self.state.result
