"""IncrementalLinker: parity, rollback, conversations."""

from __future__ import annotations

import random

import pytest

from repro.core.deadline import Deadline, DeadlineExceeded
from repro.session import ConversationSession, SessionConfig, StreamingSession
from repro.session.workloads import split_text
from tests.session.conftest import canonical


class TestFullMode:
    def test_byte_parity_with_one_shot(self, linker, stream_workloads):
        for workload in stream_workloads:
            session = StreamingSession(linker)
            for chunk in workload.chunks:
                outcome = session.feed(chunk)
            one_shot = linker.link(workload.text)
            assert canonical(session.result) == canonical(one_shot)
            assert outcome.increment == len(workload.chunks)

    def test_byte_parity_survives_mid_word_cuts(self, linker, documents):
        # Cuts at arbitrary whitespace (not sentence-aligned) re-tokenise
        # earlier text; the session must still match one-shot exactly.
        text = documents[0].text
        rng = random.Random(3)
        parts = split_text(text, 5, rng, sentence_aligned=False)
        assert "".join(parts) == text
        session = StreamingSession(linker)
        for part in parts:
            session.feed(part)
        assert canonical(session.result) == canonical(linker.link(text))

    def test_increments_and_text_accumulate(self, linker, documents):
        session = StreamingSession(linker)
        parts = split_text(documents[1].text, 3, random.Random(0))
        for i, part in enumerate(parts, start=1):
            outcome = session.feed(part)
            assert outcome.increment == i
            assert session.increment == i
        assert session.text == documents[1].text

    def test_empty_chunk_rejected(self, linker):
        session = StreamingSession(linker)
        with pytest.raises(ValueError):
            session.feed("   ")

    def test_deadline_abort_rolls_back(self, linker, documents):
        session = StreamingSession(linker)
        session.feed(documents[0].text)
        before_increment = session.increment
        before_text = session.text
        before = canonical(session.result)
        expired = Deadline.after(0.0)
        with pytest.raises(DeadlineExceeded):
            session.feed(" More text arrives later.", deadline=expired)
        assert session.increment == before_increment
        assert session.text == before_text
        assert canonical(session.result) == before
        # The session stays usable after the abort.
        outcome = session.feed(" More text arrives later.")
        assert outcome.increment == before_increment + 1


class TestMentionAccounting:
    def test_new_reused_removed_reconcile(self, linker, stream_workloads):
        # Per feed: reused + new = mentions now, removed = before - reused.
        for workload in stream_workloads[:3]:
            session = StreamingSession(linker)
            previous_total = 0
            for chunk in workload.chunks:
                outcome = session.feed(chunk)
                assert outcome.removed_mentions == (
                    previous_total - outcome.reused_mentions
                )
                assert outcome.reused_mentions <= previous_total
                previous_total = outcome.new_mentions + outcome.reused_mentions
            assert previous_total > 0


class TestConversationSession:
    def test_turns_accumulate_seen_concepts(self, linker, documents):
        session = ConversationSession(linker)
        first = session.turn(documents[0].text)
        assert first.increment == 1
        linked_once = set(session.seen_concepts)
        assert linked_once  # gold documents always link something
        session.turn("The discussion continued on the same topic.")
        assert linked_once <= set(session.seen_concepts)

    def test_turns_join_with_newlines(self, linker):
        session = ConversationSession(linker)
        session.turn("First utterance about nothing in particular.")
        session.turn("Second utterance, equally inert.")
        assert "\n" in session.text

    def test_repeat_mention_keeps_reading(self, linker, documents):
        # A concept linked in turn 1 and mentioned again in turn 3 must
        # still resolve to the same concept (the context prior boost
        # reinforces, never flips, an established reading).
        document = documents[0]
        session = ConversationSession(linker)
        session.turn(document.text)
        established = dict(session.seen_concepts)
        session.turn("That was the whole first story.")
        final = session.turn(document.text.split(". ")[0] + ".")
        final_concepts = {link.concept_id for link in final.result.links}
        assert final_concepts & set(established)


class TestConfigValidation:
    def test_bad_boost_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig(context_prior_boost=1.5)
