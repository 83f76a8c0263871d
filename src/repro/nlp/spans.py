"""Core span data model shared across the linguistic pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class Token:
    """A token with character offsets into the source document."""

    text: str
    start: int
    end: int
    index: int

    @property
    def lower(self) -> str:
        return self.text.lower()

    @property
    def is_capitalized(self) -> bool:
        return bool(self.text) and self.text[0].isupper()


@dataclass(frozen=True)
class Sentence:
    """A contiguous token range [token_start, token_end)."""

    index: int
    token_start: int
    token_end: int

    def contains_token(self, token_index: int) -> bool:
        return self.token_start <= token_index < self.token_end

    @property
    def length(self) -> int:
        return self.token_end - self.token_start


class SpanKind(Enum):
    """Whether a span is a noun phrase or a relational phrase."""

    NOUN = "noun"
    RELATION = "relation"


@dataclass(frozen=True)
class Span:
    """A mention candidate: a token range with surface text and kind.

    ``token_start`` is inclusive, ``token_end`` exclusive.  Identity (for
    dict keys, graph nodes, gold matching) is the full frozen tuple, so
    two extractions of the same range compare equal.
    """

    text: str
    token_start: int
    token_end: int
    sentence_index: int
    kind: SpanKind
    mention_type: Optional[str] = None
    # Character offsets into the source document, excluded from identity:
    # they are derived from the token list and only used for gold-span
    # alignment in evaluation.
    char_start: int = field(default=-1, compare=False)
    char_end: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.token_end <= self.token_start:
            raise ValueError(
                f"empty span [{self.token_start}, {self.token_end}) for {self.text!r}"
            )
        # Spans key nearly every dict/set on the linking hot path
        # (candidate maps, coherence nodes, session mention diffs); the
        # generated dataclass hash re-hashes the 6-tuple every call, so
        # cache it once.  Same tuple as the generated implementation —
        # the compare=True fields in declaration order.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.text,
                    self.token_start,
                    self.token_end,
                    self.sentence_index,
                    self.kind,
                    self.mention_type,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def length(self) -> int:
        return self.token_end - self.token_start

    def covers(self, other: "Span") -> bool:
        """Whether this span's token range contains *other*'s."""
        return (
            self.token_start <= other.token_start
            and other.token_end <= self.token_end
        )

    def same_range(self, other: "Span") -> bool:
        return (
            self.token_start == other.token_start
            and self.token_end == other.token_end
        )


def spans_overlap(a: Span, b: Span) -> bool:
    """Whether two spans share at least one token position."""
    return a.token_start < b.token_end and b.token_start < a.token_end


class SpanIndex:
    """Spans bucketed by start token, end token and covered token.

    The span scans of the link path (short-text selection, fallback and
    leftover grouping, canopy segments, the disambiguation sweep) ask
    which spans start, end, or sit at one token position.  A lookup
    answers in O(bucket) instead of a scan over every span, so those
    scans cost O(spans x nesting depth) rather than O(spans^2).

    The index only narrows the candidates: callers still decide each case
    with :meth:`Span.covers` or :func:`spans_overlap`.  Each bucket keeps
    insertion order, so it lists its spans in the order a linear scan
    over the inserted sequence meets them; for spans inserted sorted by
    start, :meth:`starting_within` yields them in that scan's order too.
    Equal spans added twice are kept twice (callers that need identity,
    not equality, rely on it).
    """

    def __init__(self, spans: Iterable[Span] = ()) -> None:
        self._by_start: Dict[int, List[Span]] = {}
        self._by_end: Dict[int, List[Span]] = {}
        self._by_token: Dict[int, List[Span]] = {}
        for span in spans:
            self.add(span)

    def add(self, span: Span) -> None:
        self._by_start.setdefault(span.token_start, []).append(span)
        self._by_end.setdefault(span.token_end, []).append(span)
        by_token = self._by_token
        for token in range(span.token_start, span.token_end):
            by_token.setdefault(token, []).append(span)

    def ending_at(self, token: int) -> Sequence[Span]:
        """Spans whose exclusive end is *token*."""
        return self._by_end.get(token, ())

    def covering(self, token: int) -> Sequence[Span]:
        """Spans containing token position *token*."""
        return self._by_token.get(token, ())

    def starting_within(self, span: Span) -> Iterator[Span]:
        """Spans starting inside *span*'s range, by start token.

        Every span *span* covers is among them.
        """
        for token in range(span.token_start, span.token_end):
            yield from self._by_start.get(token, ())

    def overlapping(self, span: Span) -> Iterator[Span]:
        """Spans sharing a token with *span* (repeated once per shared token)."""
        for token in range(span.token_start, span.token_end):
            yield from self._by_token.get(token, ())
