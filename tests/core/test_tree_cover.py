"""Tree cover derivation tests (Algorithm 1, including the 4B bound)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coherence import build_coherence_graph
from repro.core.tree_cover import (
    BoundTooSmallError,
    derive_tree_cover,
    minimal_feasible_bound,
)
from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span, SpanKind
from tests.core.oracles import optimal_cover_cost


def _world_similarity(seed, n_concepts=12, dim=16):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim)
    for i in range(n_concepts):
        store.add(f"Q{i}", rng.standard_normal(dim))
    return SimilarityIndex(store)


def _mentions(n, candidates_per_mention, similarity_seed=0):
    rng = np.random.default_rng(similarity_seed + 1)
    mention_candidates = {}
    cid = 0
    for i in range(n):
        span = Span(f"m{i}", i * 3, i * 3 + 1, 0, SpanKind.NOUN)
        hits = []
        priors = rng.dirichlet(np.ones(candidates_per_mention))
        for j in range(candidates_per_mention):
            hits.append(CandidateHit(f"Q{cid % 12}", float(priors[j]), "entity"))
            cid += 1
        mention_candidates[span] = hits
    return mention_candidates


def build(n_mentions=4, k=2, seed=0):
    similarity = _world_similarity(seed)
    return build_coherence_graph(_mentions(n_mentions, k, seed), similarity)


class TestSuccess:
    def test_default_bound_is_mention_count(self):
        coherence = build()
        cover = derive_tree_cover(coherence)
        assert cover.bound == float(len(coherence.mentions))

    def test_one_tree_per_mention(self):
        coherence = build(n_mentions=5)
        cover = derive_tree_cover(coherence)
        assert set(cover.trees) == set(coherence.mentions)

    def test_every_tree_rooted_at_its_mention(self):
        coherence = build()
        cover = derive_tree_cover(coherence)
        for mention, tree in cover.trees.items():
            assert tree.root == mention

    def test_all_candidates_covered(self):
        coherence = build(n_mentions=4, k=3)
        cover = derive_tree_cover(coherence)
        covered = set()
        for tree in cover.trees.values():
            covered |= tree.node_set()
        for node in coherence.candidate_nodes():
            assert node in covered

    def test_candidate_less_mention_gets_singleton(self):
        similarity = _world_similarity(0)
        mentions = _mentions(2, 2)
        orphan = Span("orphan", 99, 100, 0, SpanKind.NOUN)
        mentions[orphan] = []
        coherence = build_coherence_graph(mentions, similarity)
        cover = derive_tree_cover(coherence)
        assert cover.trees[orphan].is_singleton()
        assert orphan in cover.isolated_mentions()

    def test_cost_reported(self):
        coherence = build()
        cover = derive_tree_cover(coherence)
        assert cover.cost() >= 0.0
        assert cover.total_edges >= coherence.concept_node_count


class TestFailure:
    def test_tiny_bound_fails(self):
        coherence = build()
        with pytest.raises(BoundTooSmallError):
            derive_tree_cover(coherence, bound=1e-6)

    def test_non_positive_bound_rejected(self):
        coherence = build()
        with pytest.raises(ValueError):
            derive_tree_cover(coherence, bound=-1.0)


def _one_mention_weak_candidates():
    """One mention with four weak candidates and no coherence edges.

    Its star tree (four ~0.95 prior edges) outweighs B = |M| = 1, the
    split leaves two subtrees, and one mention can adopt only one.
    """
    span = Span("Kumar", 0, 1, 0, SpanKind.NOUN)
    hits = [CandidateHit(f"Q{i}", 0.25, "entity") for i in range(4)]
    return build_coherence_graph({span: hits}, _world_similarity(0))


class TestDefaultBoundDoubling:
    def test_infeasible_default_bound_is_doubled(self):
        coherence = _one_mention_weak_candidates()
        cover = derive_tree_cover(coherence)
        assert cover.bound == 2.0
        assert set(cover.trees) == set(coherence.mentions)
        assert cover.cost() <= 4 * cover.bound + 1e-9

    def test_explicit_bound_still_raises(self):
        coherence = _one_mention_weak_candidates()
        with pytest.raises(BoundTooSmallError):
            derive_tree_cover(coherence, bound=1.0)

    def test_bound_search_default_ceiling_doubles(self):
        # derive_tree_cover succeeds at B = 2 here, so the search's
        # default ceiling must reach it too.
        coherence = _one_mention_weak_candidates()
        b_star = minimal_feasible_bound(coherence, tolerance=0.01)
        assert b_star <= 2.0
        assert b_star == pytest.approx(
            minimal_feasible_bound(coherence, tolerance=0.01, max_bound=4.0),
            abs=0.01,
        )
        derive_tree_cover(coherence, bound=b_star)

    def test_bound_search_explicit_ceiling_still_raises(self):
        coherence = _one_mention_weak_candidates()
        with pytest.raises(BoundTooSmallError):
            minimal_feasible_bound(coherence, max_bound=1.0)

    def test_one_mention_document_links(self, tenet):
        # Seed-7 world: "Kumar." has one mention whose candidates cannot
        # be covered within B = |M| = 1.
        diagnostics = tenet.link_detailed("Kumar.")
        assert diagnostics.cover.bound == 2.0
        assert diagnostics.result.to_json(include_timings=False) == (
            tenet.link("Kumar.").to_json(include_timings=False)
        )
        with pytest.raises(BoundTooSmallError):
            derive_tree_cover(diagnostics.coherence, bound=1.0)


class TestApproximationBound:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 1000))
    def test_cover_cost_at_most_4b(self, n_mentions, k, seed):
        """Lemma 4.2: a successful cover costs at most 4B."""
        coherence = build(n_mentions, k, seed)
        for bound in (0.7, 1.0, 2.0):
            try:
                cover = derive_tree_cover(coherence, bound=bound)
            except BoundTooSmallError:
                continue
            assert cover.cost() <= 4 * bound + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 500))
    def test_minimal_bound_is_feasible_and_tightish(self, n_mentions, seed):
        coherence = build(n_mentions, 2, seed)
        tolerance = 0.01
        b_star = minimal_feasible_bound(coherence, tolerance=tolerance)
        cover = derive_tree_cover(coherence, bound=b_star)
        assert cover.cost() <= 4 * b_star + 1e-9
        # The search keeps an infeasible bound within one tolerance
        # below the one it returns, so that much lower must fail.
        if b_star - tolerance > 0:
            with pytest.raises(BoundTooSmallError):
                derive_tree_cover(coherence, bound=b_star - tolerance)
        # Feasibility is monotone in B: once feasible on a grid of
        # bounds, feasible from there on.
        feasible = []
        for bound in np.linspace(b_star / 8, 2 * b_star, 24):
            try:
                derive_tree_cover(coherence, bound=bound)
                feasible.append(True)
            except BoundTooSmallError:
                feasible.append(False)
        assert feasible[-1]
        assert all(feasible[feasible.index(True):])


def _tiny(n_mentions, sizes, seed):
    """A graph of at most 3 mentions and 7 candidates."""
    rng = np.random.default_rng(seed + 1)
    mention_candidates = {}
    cid = 0
    for i, k in enumerate(sizes[:n_mentions]):
        span = Span(f"m{i}", i * 3, i * 3 + 1, 0, SpanKind.NOUN)
        priors = rng.dirichlet(np.ones(k))
        mention_candidates[span] = [
            CandidateHit(f"Q{(cid + j) % 12}", float(priors[j]), "entity")
            for j in range(k)
        ]
        cid += k
    return build_coherence_graph(mention_candidates, _world_similarity(seed))


_TINY = dict(
    n_mentions=st.integers(1, 3),
    sizes=st.lists(st.integers(1, 3), min_size=3, max_size=3).filter(
        lambda sizes: sum(sizes) <= 7
    ),
    seed=st.integers(0, 1000),
)


class TestAgainstOptimum:
    """Lemma 4.2 against the exhaustive optimum of tiny graphs."""

    @settings(max_examples=40, deadline=None)
    @given(**_TINY)
    def test_cover_at_optimum_costs_at_most_4_opt(self, n_mentions, sizes, seed):
        coherence = _tiny(n_mentions, sizes, seed)
        optimum = optimal_cover_cost(coherence)
        cover = derive_tree_cover(coherence, bound=optimum)
        assert cover.cost() <= 4 * optimum + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(**_TINY)
    def test_bound_search_finds_at_most_the_optimum(self, n_mentions, sizes, seed):
        coherence = _tiny(n_mentions, sizes, seed)
        optimum = optimal_cover_cost(coherence)
        assert minimal_feasible_bound(coherence, tolerance=0.01) <= optimum + 0.01


class TestDeterminism:
    def test_same_input_same_cover(self):
        coherence = build(n_mentions=5, k=3, seed=9)
        a = derive_tree_cover(coherence)
        b = derive_tree_cover(coherence)
        for mention in a.trees:
            assert sorted(map(repr, a.trees[mention].edges())) == sorted(
                map(repr, b.trees[mention].edges())
            )


class TestStatistics:
    def test_statistics_fields(self):
        coherence = build(n_mentions=4, k=2, seed=3)
        cover = derive_tree_cover(coherence)
        stats = cover.statistics()
        assert stats.tree_count == 4
        assert 0 <= stats.singleton_count <= stats.tree_count
        assert stats.total_edges == cover.total_edges
        assert stats.max_tree_weight == pytest.approx(cover.cost())
        assert 0.0 <= stats.isolation_rate <= 1.0
        assert stats.bound == cover.bound

    def test_isolation_rate_for_candidate_less_world(self):
        similarity = _world_similarity(1)
        from repro.nlp.spans import Span, SpanKind

        mentions = {
            Span(f"lonely{i}", i * 2, i * 2 + 1, 0, SpanKind.NOUN): []
            for i in range(3)
        }
        coherence = build_coherence_graph(mentions, similarity)
        cover = derive_tree_cover(coherence)
        assert cover.statistics().isolation_rate == 1.0
