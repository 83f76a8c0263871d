"""Span data-model tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nlp.spans import Span, SpanIndex, SpanKind, Token, spans_overlap


def noun(start, end, text="x"):
    return Span(text, start, end, 0, SpanKind.NOUN)


class TestToken:
    def test_lower(self):
        assert Token("Hello", 0, 5, 0).lower == "hello"

    def test_capitalized(self):
        assert Token("Hello", 0, 5, 0).is_capitalized
        assert not Token("hello", 0, 5, 0).is_capitalized
        assert not Token("", 0, 0, 0).is_capitalized


class TestSpan:
    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            Span("x", 3, 3, 0, SpanKind.NOUN)

    def test_length(self):
        assert noun(2, 5).length == 3

    def test_covers(self):
        outer, inner = noun(0, 5), noun(1, 3)
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(outer)

    def test_same_range(self):
        assert noun(1, 3, "a").same_range(noun(1, 3, "b"))
        assert not noun(1, 3).same_range(noun(1, 4))

    def test_char_offsets_excluded_from_identity(self):
        a = Span("x", 0, 1, 0, SpanKind.NOUN, char_start=0, char_end=1)
        b = Span("x", 0, 1, 0, SpanKind.NOUN, char_start=99, char_end=100)
        assert a == b
        assert hash(a) == hash(b)

    def test_kind_part_of_identity(self):
        a = Span("x", 0, 1, 0, SpanKind.NOUN)
        b = Span("x", 0, 1, 0, SpanKind.RELATION)
        assert a != b


class TestOverlap:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((0, 3), (2, 5), True),
            ((0, 3), (3, 5), False),  # touching is not overlapping
            ((2, 5), (0, 3), True),
            ((0, 10), (4, 5), True),
            ((0, 1), (5, 6), False),
        ],
    )
    def test_cases(self, a, b, expected):
        assert spans_overlap(noun(*a), noun(*b)) is expected

    def test_symmetric(self):
        a, b = noun(0, 4), noun(3, 8)
        assert spans_overlap(a, b) == spans_overlap(b, a)


span_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=6)
    ).map(lambda r: noun(r[0], r[0] + r[1], f"s{r[0]}")),
    max_size=25,
)


class TestSpanIndex:
    """Each lookup returns exactly what a scan in insertion order would."""

    @settings(max_examples=200, deadline=None)
    @given(span_lists, st.integers(min_value=0, max_value=27))
    def test_buckets_match_linear_scans(self, spans, token):
        index = SpanIndex(spans)
        assert list(index.ending_at(token)) == [
            s for s in spans if s.token_end == token
        ]
        assert list(index.covering(token)) == [
            s for s in spans if s.token_start <= token < s.token_end
        ]

    @settings(max_examples=200, deadline=None)
    @given(span_lists, st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=8))
    def test_range_lookups_hold_every_candidate(self, spans, start, length):
        probe = noun(start, start + length)
        index = SpanIndex(spans)
        within = list(index.starting_within(probe))
        assert within == sorted(
            (s for s in spans if start <= s.token_start < probe.token_end),
            key=lambda s: s.token_start,
        )
        assert {id(s) for s in spans if probe.covers(s)} <= {id(s) for s in within}
        overlapping = list(index.overlapping(probe))
        assert {id(s) for s in overlapping} == {
            id(s) for s in spans if spans_overlap(probe, s)
        }

    def test_add_keeps_equal_spans_apart(self):
        first, second = noun(1, 3), noun(1, 3)
        index = SpanIndex([first])
        index.add(second)
        assert [id(s) for s in index.covering(2)] == [id(first), id(second)]
        assert [id(s) for s in index.ending_at(3)] == [id(first), id(second)]
        assert list(index.covering(5)) == []
