"""Knowledge coherence graph construction tests (Sec. 3 rules)."""

import numpy as np
import pytest

from repro.core.coherence import build_coherence_graph
from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span, SpanKind
from tests.core.oracles import materialise


@pytest.fixture
def similarity():
    store = EmbeddingStore(4)
    store.add("Q1", np.array([1.0, 0.0, 0.0, 0.0]))
    store.add("Q2", np.array([0.9, 0.1, 0.0, 0.0]))
    store.add("Q3", np.array([0.0, 0.0, 1.0, 0.0]))
    store.add("P1", np.array([0.5, 0.5, 0.0, 0.0]))
    store.add("P2", np.array([0.0, 0.0, 0.0, 1.0]))
    return SimilarityIndex(store)


def noun(text, start, sentence=0):
    return Span(text, start, start + len(text.split()), sentence, SpanKind.NOUN)


def relation(text, start, sentence=0):
    return Span(text, start, start + len(text.split()), sentence, SpanKind.RELATION)


def hit(cid, prior, kind="entity"):
    return CandidateHit(cid, prior, kind)


class TestNodes:
    def test_mention_and_candidate_nodes(self, similarity):
        m = noun("Alice", 0)
        graph = build_coherence_graph({m: [hit("Q1", 0.7), hit("Q2", 0.3)]}, similarity)
        assert graph.mention_count == 1
        assert graph.concept_node_count == 2
        assert m in graph.nodes
        # The sizes the stage trace reads: mentions + candidates, and
        # mention edges + concept edges (none within one mention).
        assert (graph.graph.node_count, graph.graph.edge_count) == (3, 2)

    def test_candidate_node_keyed_by_mention(self, similarity):
        a, b = noun("Alice", 0), noun("Ally", 5)
        graph = build_coherence_graph(
            {a: [hit("Q1", 1.0)], b: [hit("Q1", 1.0)]}, similarity
        )
        nodes = graph.candidate_nodes()
        assert len(nodes) == 2  # same concept, two distinct nodes
        assert {n.mention for n in nodes} == {a, b}

    def test_empty_candidate_mention_is_isolated(self, similarity):
        m = noun("Glowberry", 0)
        graph = build_coherence_graph({m: []}, similarity)
        assert materialise(graph).degree(m) == 0


class TestLocalEdges:
    def test_prior_maps_through_floor_and_curve(self, similarity):
        m = noun("Alice", 0)
        graph = build_coherence_graph(
            {m: [hit("Q1", 0.75)]}, similarity,
            prior_distance_floor=0.6, prior_distance_curve=0.5,
        )
        node = graph.candidate_nodes()[0]
        expected = 0.6 + 0.4 * (0.25 ** 0.5)
        assert materialise(graph).weight(m, node) == pytest.approx(expected)

    def test_certain_prior_sits_at_floor(self, similarity):
        m = noun("Alice", 0)
        graph = build_coherence_graph(
            {m: [hit("Q1", 1.0)]}, similarity, prior_distance_floor=0.62
        )
        node = graph.candidate_nodes()[0]
        assert materialise(graph).weight(m, node) == pytest.approx(0.62)

    def test_local_distance_accessor(self, similarity):
        m = noun("Alice", 0)
        graph = build_coherence_graph({m: [hit("Q1", 0.8)]}, similarity)
        node = graph.candidate_nodes()[0]
        assert graph.local_distance(node) == pytest.approx(0.2)


class TestEdgeRules:
    def test_entity_entity_cross_sentence_allowed(self, similarity):
        a, b = noun("Alice", 0, sentence=0), noun("Bob", 10, sentence=3)
        graph = build_coherence_graph(
            {a: [hit("Q1", 1.0)], b: [hit("Q2", 1.0)]}, similarity
        )
        na, nb = graph.candidates_by_mention[a][0], graph.candidates_by_mention[b][0]
        assert materialise(graph).has_edge(na, nb)

    def test_predicate_pairs_require_same_sentence(self, similarity):
        r1 = relation("studies", 1, sentence=0)
        r2 = relation("visited", 8, sentence=1)
        graph = build_coherence_graph(
            {
                r1: [hit("P1", 1.0, "predicate")],
                r2: [hit("P2", 1.0, "predicate")],
            },
            similarity,
        )
        n1 = graph.candidates_by_mention[r1][0]
        n2 = graph.candidates_by_mention[r2][0]
        assert not materialise(graph).has_edge(n1, n2)

    def test_entity_predicate_requires_same_sentence(self, similarity):
        m = noun("Alice", 0, sentence=0)
        r_far = relation("visited", 9, sentence=1)
        r_near = relation("studies", 1, sentence=0)
        graph = build_coherence_graph(
            {
                m: [hit("Q1", 1.0)],
                r_far: [hit("P2", 1.0, "predicate")],
                r_near: [hit("P1", 1.0, "predicate")],
            },
            similarity,
        )
        nm = graph.candidates_by_mention[m][0]
        far = graph.candidates_by_mention[r_far][0]
        near = graph.candidates_by_mention[r_near][0]
        assert not materialise(graph).has_edge(nm, far)
        assert materialise(graph).has_edge(nm, near)

    def test_no_edges_between_same_mention_candidates(self, similarity):
        m = noun("Alice", 0)
        graph = build_coherence_graph(
            {m: [hit("Q1", 0.7), hit("Q2", 0.3)]}, similarity
        )
        n1, n2 = graph.candidates_by_mention[m]
        assert not materialise(graph).has_edge(n1, n2)

    def test_no_edges_between_overlapping_mentions(self, similarity):
        full = noun("Nina Wilson", 0)
        part = Span("Wilson", 1, 2, 0, SpanKind.NOUN)
        graph = build_coherence_graph(
            {full: [hit("Q1", 1.0)], part: [hit("Q2", 1.0)]}, similarity
        )
        nf = graph.candidates_by_mention[full][0]
        np_ = graph.candidates_by_mention[part][0]
        assert not materialise(graph).has_edge(nf, np_)


class TestWeights:
    def test_concept_distance_from_embeddings(self, similarity):
        a, b = noun("Alice", 0), noun("Ally", 5)
        graph = build_coherence_graph(
            {a: [hit("Q1", 1.0)], b: [hit("Q2", 1.0)]},
            similarity,
            coherence_prior_blend=0.0,
        )
        na = graph.candidates_by_mention[a][0]
        nb = graph.candidates_by_mention[b][0]
        expected = 1.0 - similarity.similarity("Q1", "Q2")
        assert materialise(graph).weight(na, nb) == pytest.approx(expected, abs=1e-6)

    def test_predicate_similarity_scaled(self, similarity):
        m = noun("Alice", 0, sentence=0)
        r = relation("studies", 1, sentence=0)
        graph = build_coherence_graph(
            {m: [hit("Q1", 1.0)], r: [hit("P1", 1.0, "predicate")]},
            similarity,
            predicate_similarity_scale=0.5,
            coherence_prior_blend=0.0,
        )
        nm = graph.candidates_by_mention[m][0]
        nr = graph.candidates_by_mention[r][0]
        expected = 1.0 - 0.5 * similarity.similarity("Q1", "P1")
        assert materialise(graph).weight(nm, nr) == pytest.approx(expected, abs=1e-6)

    def test_prior_blend_penalises_weak_priors(self, similarity):
        a, b = noun("Alice", 0), noun("Ally", 5)
        strong = build_coherence_graph(
            {a: [hit("Q1", 1.0)], b: [hit("Q2", 1.0)]},
            similarity, coherence_prior_blend=0.1,
        )
        weak = build_coherence_graph(
            {a: [hit("Q1", 0.5)], b: [hit("Q2", 0.5)]},
            similarity, coherence_prior_blend=0.1,
        )
        def concept_edge(g):
            na = g.candidates_by_mention[a][0]
            nb = g.candidates_by_mention[b][0]
            return materialise(g).weight(na, nb)
        assert concept_edge(weak) > concept_edge(strong)

    def test_distance_clipped_to_max(self, similarity):
        a, b = noun("Alice", 0), noun("Bob", 5)
        graph = build_coherence_graph(
            {a: [hit("Q1", 0.1)], b: [hit("Q3", 0.1)]},
            similarity, max_concept_distance=1.0,
        )
        na = graph.candidates_by_mention[a][0]
        nb = graph.candidates_by_mention[b][0]
        assert materialise(graph).weight(na, nb) <= 1.0
