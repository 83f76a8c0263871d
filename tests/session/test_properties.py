"""Property tests: any chunking converges, and counters reconcile.

The headline session invariant — a session fed ANY
decomposition of a document (including mid-word cuts) ends in exactly
the state a one-shot link of that document produces — is exercised here
with hypothesis-drawn cut points over real gold documents.  The linker
and documents ride the shared session fixtures, and the example counts
are kept small because every example runs real linking solves.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.session import StreamingSession
from tests.session.conftest import canonical

SESSION_EXAMPLES = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def cut_into(text: str, cuts) -> list:
    """Split *text* at the (sorted, deduplicated, in-range) cut points.

    Whitespace-only pieces are folded into their neighbour (sessions
    reject blank chunks), so the pieces always concatenate back to
    *text* and every piece is feedable.
    """
    positions = sorted({cut % (len(text) - 1) + 1 for cut in cuts})
    parts = []
    previous = 0
    for position in positions:
        if position > previous:
            parts.append(text[previous:position])
            previous = position
    parts.append(text[previous:])
    merged = []
    carry = ""
    for part in parts:
        if part.strip():
            merged.append(carry + part)
            carry = ""
        else:
            carry += part
    if carry and merged:
        merged[-1] += carry
    return merged


class TestAnyChunkingConverges:
    @given(cuts=st.lists(st.integers(min_value=0), min_size=1, max_size=5))
    @SESSION_EXAMPLES
    def test_full_mode_byte_parity(self, linker, documents, cuts):
        text = documents[0].text
        parts = cut_into(text, cuts)
        assert "".join(parts) == text
        session = StreamingSession(linker)
        for part in parts:
            session.feed(part)
        assert session.text == text
        assert canonical(session.result) == canonical(linker.link(text))

    @given(cuts=st.lists(st.integers(min_value=0), min_size=1, max_size=4))
    @SESSION_EXAMPLES
    def test_counters_reconcile_under_any_chunking(
        self, linker, documents, cuts
    ):
        # new/reused/removed must reconcile feed over feed no matter how
        # the text is cut: reused + new = total now, removed = lost.
        text = documents[1].text
        session = StreamingSession(linker)
        previous_total = 0
        memo_hits = memo_misses = 0
        for part in cut_into(text, cuts):
            outcome = session.feed(part)
            assert outcome.new_mentions >= 0
            assert 0 <= outcome.reused_mentions <= previous_total
            assert outcome.removed_mentions == (
                previous_total - outcome.reused_mentions
            )
            previous_total = outcome.new_mentions + outcome.reused_mentions
            memo_hits += outcome.memo_hits
            memo_misses += outcome.memo_misses
        # The memo is consulted once per mention per feed: hits + misses
        # must cover every mention the session ever resolved.
        assert memo_hits + memo_misses >= previous_total
