"""Regression tests for the greedy-scan correctness sweep.

Three historical bugs are pinned here:

* same-endpoint duplicate edges kept the *first-pushed* weight instead of
  the minimum, so a heavier tree edge could shadow a lighter shared-pool
  edge and flip the scan order;
* ``deferred.setdefault`` pinned whichever deferrable canopy completed
  first, not the most merged one the deferral was holding out for;
* the overlap sweeps were linear scans over all committed/candidate
  spans (quadratic overall) — now token-interval indexed, with the index
  pinned against the ``spans_overlap`` semantics it replaced.
"""

import random

from repro.core.canopies import Canopy, MentionGroup
from repro.core.coherence import CandidateNode
from repro.core.disambiguation import (
    _scan_edges,
    _ScanState,
    disambiguate,
)
from repro.core.tree_cover import TreeCoverResult
from repro.graph.tree import RootedTree
from repro.nlp.spans import Span, SpanKind, spans_overlap


def noun(text, start, end=None, sentence=0):
    return Span(text, start, end or start + 1, sentence, SpanKind.NOUN)


def cand(mention, cid, kind="entity"):
    return CandidateNode(mention, cid, kind)


def singleton_groups(*spans):
    return [
        MentionGroup(i, (s,), (Canopy((s,)),)) for i, s in enumerate(spans)
    ]


def cover_for(*trees_by_mention):
    return TreeCoverResult(dict(trees_by_mention), bound=10.0)


class TestDuplicateEdgeDedup:
    def test_duplicate_keeps_minimum_weight(self):
        a, b = noun("Alice", 0), noun("Bob", 5)
        ca, cb = cand(a, "Q1"), cand(b, "Q3")
        tree = RootedTree(a)
        tree.add_edge(a, ca, 0.45)
        tree.add_edge(ca, cb, 0.5)
        edges = _scan_edges(
            cover_for((a, tree), (b, RootedTree(b))), [(ca, cb, 0.1)]
        )
        dup = [e for e in edges if {e[0], e[1]} == {ca, cb}]
        assert dup == [(ca, cb, 0.1)]

    def test_duplicate_keeps_minimum_weight_pushed_first(self):
        # Symmetric case: the light version arrives first (as a tree
        # edge), the heavy one second (extra edge) — still the minimum.
        a, b = noun("Alice", 0), noun("Bob", 5)
        ca, cb = cand(a, "Q1"), cand(b, "Q3")
        tree = RootedTree(a)
        tree.add_edge(a, ca, 0.45)
        tree.add_edge(ca, cb, 0.1)
        edges = _scan_edges(
            cover_for((a, tree), (b, RootedTree(b))), [(ca, cb, 0.5)]
        )
        dup = [e for e in edges if {e[0], e[1]} == {ca, cb}]
        assert len(dup) == 1
        assert dup[0][2] == 0.1

    def test_scan_order_follows_deduplicated_weight(self):
        # The duplicate's minimum weight decides WHICH candidate wins the
        # mention: with the light (0.1) version of (Q1, Q3) the coherence
        # edge is scanned first and commits Alice->Q1 and Bob->Q3; the
        # old first-pushed behaviour kept 0.5, let Alice's 0.3 prior edge
        # commit Q2 first, and stranded Bob on its weak Q4 prior.
        a, b = noun("Alice", 0), noun("Bob", 5)
        ca, ca2 = cand(a, "Q1"), cand(a, "Q2")
        cb, cb2 = cand(b, "Q3"), cand(b, "Q4")
        tree = RootedTree(a)
        tree.add_edge(a, ca, 0.45)
        tree.add_edge(a, ca2, 0.3)
        tree.add_edge(ca, cb, 0.5)  # heavy duplicate of the extra edge
        tree_b = RootedTree(b)
        tree_b.add_edge(b, cb2, 0.6)
        result = disambiguate(
            cover_for((a, tree), (b, tree_b)),
            singleton_groups(a, b),
            extra_edges=[(ca, cb, 0.1)],
        )
        assert result.gamma[a] is ca
        assert result.gamma[b] is cb


class TestDeferredCanopyRace:
    def _race_group(self):
        # Three readings of tokens 0..6: a 3-way split, a 2-way split,
        # and a fully merged span.  The merged reading is (claimed)
        # linkable, so BOTH splits defer when they complete.
        a1, a2, a3 = noun("alpha", 0, 2), noun("beta", 2, 4), noun("gamma", 4, 6)
        b1, b2 = noun("alpha beta", 0, 3), noun("beta gamma", 3, 6)
        merged = noun("alpha beta gamma", 0, 6)
        group = MentionGroup(
            0,
            (a1, a2, a3),
            (
                Canopy((a1, a2, a3), all_members_linkable=True),
                Canopy((b1, b2), all_members_linkable=True),
                Canopy((merged,), all_members_linkable=True),
            ),
        )
        return a1, a2, a3, b1, b2, merged, group

    def test_most_merged_deferrable_wins_adverse_order(self):
        # The 3-way split completes FIRST (weights 0.10-0.12), the 2-way
        # split second (0.20-0.21), the merged reading never (its
        # candidate edge never materialised).  The deferral must commit
        # the 2-way split — the most merged reading that actually
        # completed — not whichever completion happened to arrive first.
        a1, a2, a3, b1, b2, merged, group = self._race_group()
        trees = {}
        for span, weight in (
            (a1, 0.10), (a2, 0.11), (a3, 0.12), (b1, 0.20), (b2, 0.21)
        ):
            tree = RootedTree(span)
            tree.add_edge(span, cand(span, f"Q_{span.token_start}_{span.token_end}"), weight)
            trees[span] = tree
        trees[merged] = RootedTree(merged)
        result = disambiguate(cover_for(*trees.items()), [group])
        assert result.committed_canopies == {0: 1}
        assert set(result.gamma) == {b1, b2}

    def test_single_deferrable_still_commits(self):
        # With only one deferrable completion the fix must not change the
        # outcome: it still commits at the end.
        a1, a2, a3, b1, b2, merged, group = self._race_group()
        trees = {span: RootedTree(span) for span in (a1, a2, a3, b1, b2, merged)}
        trees[b1].add_edge(b1, cand(b1, "Q_b1"), 0.2)
        trees[b2].add_edge(b2, cand(b2, "Q_b2"), 0.3)
        result = disambiguate(cover_for(*trees.items()), [group])
        assert result.committed_canopies == {0: 1}


class TestTokenIndexOverlapParity:
    """The token-interval index must agree with ``spans_overlap``."""

    def _random_spans(self, rng, count):
        spans = []
        for _ in range(count):
            start = rng.randrange(0, 30)
            end = start + rng.randrange(1, 5)
            spans.append(noun(f"s{start}_{end}", start, end))
        return spans

    def test_claimed_by_other_matches_spans_overlap(self):
        rng = random.Random(42)
        for _ in range(50):
            spans = self._random_spans(rng, 8)
            groups = singleton_groups(*dict.fromkeys(spans))
            state = _ScanState(list(dict.fromkeys(spans)), groups)
            # Commit a random subset through the real commit path.
            committed = []
            for group in groups[: len(groups) // 2]:
                span = group.short_mentions[0]
                if any(spans_overlap(span, c) for c, _ in committed):
                    continue
                proposal_cand = cand(span, f"Q{span.token_start}")
                state.commit(
                    group,
                    0,
                    {span: _proposal(span, proposal_cand)},
                )
                committed.append((span, group.group_id))
            for group in groups:
                probe = group.short_mentions[0]
                expected = any(
                    spans_overlap(probe, span)
                    for span, gid in committed
                    if gid != group.group_id
                )
                assert (
                    state.claimed_by_other(probe, group.group_id) == expected
                ), (probe, committed)
                assert state.claimed_at_all(probe) == any(
                    spans_overlap(probe, span) for span, _ in committed
                )


def _proposal(span, candidate):
    from repro.core.disambiguation import _Proposal

    return _Proposal(span, candidate, 0.1, from_coherence=False)
