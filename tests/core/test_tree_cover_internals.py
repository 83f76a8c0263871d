"""White-box tests of Algorithm 1's contraction and decomposition."""

import numpy as np
import pytest

from repro.core.coherence import MAJOR_ROOT, CandidateNode, build_coherence_graph
from repro.core.tree_cover import derive_tree_cover
from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from repro.graph.mst import minimum_spanning_forest
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span, SpanKind
from tests.core.oracles import _contract, _decompose, materialise


@pytest.fixture
def coherence():
    store = EmbeddingStore(4)
    store.add("Q1", np.array([1.0, 0.0, 0.0, 0.0]))
    store.add("Q2", np.array([0.9, 0.4, 0.0, 0.0]))
    store.add("Q3", np.array([0.0, 0.0, 1.0, 0.0]))
    similarity = SimilarityIndex(store)
    m1 = Span("alpha", 0, 1, 0, SpanKind.NOUN)
    m2 = Span("beta", 3, 4, 0, SpanKind.NOUN)
    m3 = Span("gamma", 6, 7, 0, SpanKind.NOUN)
    return build_coherence_graph(
        {
            m1: [CandidateHit("Q1", 1.0, "entity")],
            m2: [CandidateHit("Q2", 1.0, "entity")],
            m3: [CandidateHit("Q3", 1.0, "entity")],
        },
        similarity,
    ), (m1, m2, m3)


class TestContract:
    def test_root_connects_to_every_candidate(self, coherence):
        graph, _ = coherence
        pruned = materialise(graph).pruned(10.0)
        contracted, owner = _contract(graph, pruned, 10.0)
        assert MAJOR_ROOT in contracted
        for node in graph.candidate_nodes():
            assert contracted.has_edge(MAJOR_ROOT, node)
            assert owner[node] == node.mention

    def test_root_edge_takes_mention_edge_weight(self, coherence):
        graph, (m1, _, _) = coherence
        pruned = materialise(graph).pruned(10.0)
        contracted, _ = _contract(graph, pruned, 10.0)
        node = graph.candidates_by_mention[m1][0]
        assert contracted.weight(MAJOR_ROOT, node) == pytest.approx(
            pruned.weight(m1, node)
        )

    def test_concept_edges_carried_over(self, coherence):
        graph, _ = coherence
        pruned = materialise(graph).pruned(10.0)
        contracted, _ = _contract(graph, pruned, 10.0)
        concept_edges = [
            (u, v)
            for u, v, _ in contracted.edges()
            if u is not MAJOR_ROOT and v is not MAJOR_ROOT
        ]
        assert concept_edges  # Q1-Q2 similarity edge survives

    def test_pruning_removes_root_edges(self, coherence):
        graph, _ = coherence
        # a bound below the local-distance floor removes all prior edges
        pruned = materialise(graph).pruned(0.1)
        contracted, owner = _contract(graph, pruned, 0.1)
        assert not owner


class TestDecompose:
    def test_one_tree_per_mention(self, coherence):
        graph, mentions = coherence
        pruned = materialise(graph).pruned(10.0)
        contracted, owner = _contract(graph, pruned, 10.0)
        mst = minimum_spanning_forest(contracted)
        trees = _decompose(graph, mst, owner)
        assert set(trees) == set(mentions)
        for mention, tree in trees.items():
            assert tree.root == mention

    def test_components_fully_distributed(self, coherence):
        graph, _ = coherence
        pruned = materialise(graph).pruned(10.0)
        contracted, owner = _contract(graph, pruned, 10.0)
        mst = minimum_spanning_forest(contracted)
        trees = _decompose(graph, mst, owner)
        covered = set()
        for tree in trees.values():
            covered |= {
                n for n in tree.node_set() if isinstance(n, CandidateNode)
            }
        assert covered == set(graph.candidate_nodes())

    def test_cover_matches_manual_pipeline(self, coherence):
        graph, _ = coherence
        cover = derive_tree_cover(graph)
        assert cover.cost() <= 4 * cover.bound + 1e-9
        # close concepts Q1/Q2 end up coherently connected in one tree
        sizes = sorted(t.node_count for t in cover.trees.values())
        assert sizes[-1] >= 3  # a tree holding both close candidates
