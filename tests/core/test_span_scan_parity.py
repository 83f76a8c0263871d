"""Span-index scans vs. the all-pairs scans they replaced.

Grouping, co-reference and Open IE look spans up in a token-position
index instead of scanning every span (or region) per span, pronoun or
sentence.  The answers must not change: each is pinned here against the
all-pairs form kept in :mod:`tests.core.oracles`, on generated
inventories (same-range twins, nested spans, relations, candidate-less
members) and on the extractions of real documents.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.canopies import build_mention_groups
from repro.core.linker import TenetLinker
from repro.nlp import pos
from repro.nlp.coref import resolve_pronouns
from repro.nlp.spans import Span, SpanKind, Token
from tests.core.oracles import (
    build_mention_groups_reference,
    extract_relations_reference,
    resolve_pronouns_reference,
)

# Feature words (coordination, prepositions, numbers, punctuation) and
# plain nouns, so chains, long-text mentions and canopies all occur.
_WORDS = ["Storm", "Sea", "Galilee", "Rome", "Paris", "Mr", "of", "the",
          "and", "on", ",", "11", "city", "."]
_TYPES = [None, "PER", "ORG"]


def _tokens(words):
    tokens, offset = [], 0
    for index, word in enumerate(words):
        tokens.append(Token(word, offset, offset + len(word), index))
        offset += len(word) + 1
    return tokens


def _span(tokens, start, end, sentence_of, kind=SpanKind.NOUN, mention_type=None):
    return Span(
        " ".join(t.text for t in tokens[start:end]),
        start,
        end,
        sentence_of(start),
        kind,
        mention_type,
    )


@st.composite
def inventories(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=30))
    tokens = _tokens(words)
    n = len(tokens)
    sentence_length = draw(st.integers(min_value=3, max_value=12))

    def sentence_of(token):
        return token // sentence_length

    ranges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=40,
        )
    )
    noun_spans = []
    for start, length in ranges:
        end = min(n, start + length)
        mention_type = draw(st.sampled_from(_TYPES))
        noun_spans.append(_span(tokens, start, end, sentence_of, mention_type=mention_type))
        shape = draw(st.sampled_from(["plain", "twin", "nested", "copy"]))
        if shape == "twin":
            # Same range, another mention type: a distinct span that
            # covers, and is covered by, the first.
            other = _TYPES[(_TYPES.index(mention_type) + 1) % len(_TYPES)]
            noun_spans.append(_span(tokens, start, end, sentence_of, mention_type=other))
        elif shape == "nested" and end - start > 1:
            inner_start = draw(st.integers(min_value=start, max_value=end - 1))
            inner_end = draw(st.integers(min_value=inner_start + 1, max_value=end))
            noun_spans.append(_span(tokens, inner_start, inner_end, sentence_of))
        elif shape == "copy":
            # An equal span object of its own: identity, not equality,
            # decides "another span covers it".
            noun_spans.append(_span(tokens, start, end, sentence_of, mention_type=mention_type))
    relation_ranges = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=5)
    )
    relation_spans = [
        _span(tokens, start, min(n, start + 2), sentence_of, SpanKind.RELATION)
        for start in relation_ranges
    ]
    linkable = draw(st.sets(st.integers(min_value=0, max_value=n), max_size=n))
    has_candidates = draw(st.sampled_from([None, _candidates_at(linkable)]))
    return tokens, noun_spans, relation_spans, has_candidates


def _candidates_at(linkable):
    """A candidate oracle: spans starting at a linkable token, and single tokens."""

    def has_candidates(span):
        return span.token_start in linkable or span.length == 1

    return has_candidates


def _shape(groups):
    return [
        (
            group.group_id,
            group.short_mentions,
            tuple((c.members, c.all_members_linkable) for c in group.canopies),
        )
        for group in groups
    ]


class TestGroupingParity:
    @settings(max_examples=300, deadline=None)
    @given(inventories())
    def test_groups_equal_all_pairs_reference(self, inventory):
        tokens, noun_spans, relation_spans, has_candidates = inventory
        assert _shape(
            build_mention_groups(tokens, noun_spans, relation_spans, has_candidates)
        ) == _shape(
            build_mention_groups_reference(
                tokens, noun_spans, relation_spans, has_candidates
            )
        )

    def test_same_range_twins_are_not_short_text_mentions(self):
        tokens = _tokens(["Rome", "met", "Paris"])
        twin_a = _span(tokens, 0, 1, lambda t: 0, mention_type="PER")
        twin_b = _span(tokens, 0, 1, lambda t: 0, mention_type="ORG")
        paris = _span(tokens, 2, 3, lambda t: 0)
        groups = build_mention_groups(tokens, [twin_a, twin_b, paris], [])
        shorts = [g.short_mentions for g in groups]
        # Each twin covers the other, so neither is maximal; both then
        # come back as leftovers, the second overlapping the first.
        assert shorts == [(paris,), (twin_a,)]
        assert _shape(groups) == _shape(
            build_mention_groups_reference(tokens, [twin_a, twin_b, paris], [])
        )


_PRONOUNS = ["he", "she", "it", "they", "him"]


@st.composite
def pronoun_documents(draw):
    words = draw(
        st.lists(
            st.sampled_from(["Anna", "Bo", "Lee", "city", "visited"] + _PRONOUNS),
            min_size=1,
            max_size=40,
        )
    )
    tokens = _tokens(words)
    tags = [
        pos.PRON if word in _PRONOUNS else draw(
            st.sampled_from([pos.PROPN, pos.NOUN, pos.VERB, pos.PRON])
        )
        for word in words
    ]
    n = len(tokens)
    ranges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=20,
        )
    )
    regions = [
        _span(tokens, start, min(n, start + length), lambda t: 0)
        for start, length in ranges
    ]
    return tokens, tags, regions


def _identities(resolved):
    return {index: id(region) for index, region in resolved.items()}


class TestCorefParity:
    @settings(max_examples=300, deadline=None)
    @given(pronoun_documents())
    def test_antecedents_equal_rescanning_reference(self, document):
        tokens, tags, regions = document
        resolved = resolve_pronouns(tokens, tags, regions)
        reference = resolve_pronouns_reference(tokens, tags, regions)
        assert resolved == reference
        assert _identities(resolved) == _identities(reference)

    def test_region_ending_after_the_pronoun_stops_the_scan(self):
        # 0:Anna 1:visited 2:Bo 3:Lee 4:he 5:visited 6:city 7:she
        tokens = _tokens(["Anna", "visited", "Bo", "Lee", "he", "visited", "city", "she"])
        tags = [pos.PROPN, pos.VERB, pos.PROPN, pos.PROPN, pos.PRON,
                pos.VERB, pos.NOUN, pos.PRON]
        anna = _span(tokens, 0, 1, lambda t: 0)
        long_region = _span(tokens, 2, 6, lambda t: 0)  # ends after "he"
        lee = _span(tokens, 3, 4, lambda t: 0)  # ends before "he", starts later
        regions = [lee, long_region, anna]
        resolved = resolve_pronouns(tokens, tags, regions)
        # "he": the scan stops at "Bo Lee he visited", so "Lee" is never
        # reached.  "she": every region has ended; "Lee" is the latest
        # person-like one ("Bo Lee he visited" is four tokens).
        assert resolved == {4: anna, 7: lee}
        assert resolved == resolve_pronouns_reference(tokens, tags, regions)


@pytest.fixture(scope="module")
def linker(suite_context):
    return TenetLinker(suite_context)


class TestRealDocuments:
    def test_extraction_and_grouping_equal_references(self, linker, suite):
        documents = [
            document.text
            for dataset in suite.datasets()
            for document in dataset.documents
        ]
        pipeline = linker.pipeline
        for text in documents:
            extraction = pipeline.extract(text)
            assert resolve_pronouns(
                extraction.tokens, extraction.tags, extraction.regions
            ) == resolve_pronouns_reference(
                extraction.tokens, extraction.tags, extraction.regions
            )
            args = (
                text,
                extraction.tokens,
                extraction.tags,
                extraction.sentences,
                extraction.regions,
            )
            assert pipeline.relation_extractor.extract(*args) == (
                extract_relations_reference(pipeline.relation_extractor, *args)
            )
            by_mention = linker.generator.generate(extraction).by_mention

            def has_candidates(span):
                return bool(by_mention.get(span))

            groups = build_mention_groups(
                extraction.tokens,
                extraction.noun_spans,
                extraction.relation_spans,
                has_candidates,
            )
            assert _shape(groups) == _shape(
                build_mention_groups_reference(
                    extraction.tokens,
                    extraction.noun_spans,
                    extraction.relation_spans,
                    has_candidates,
                )
            )
