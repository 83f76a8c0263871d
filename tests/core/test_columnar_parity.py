"""The columnar coherence graph against the object path it replaced.

The coherence graph is built once as integer edge arrays, and the tree
cover scaffold, the shared pool and the scan's edge pool read them.
Each must reproduce, edge for edge, the object-graph form kept in
:mod:`tests.core.oracles`: the concept edges, the contracted stream and
its Kruskal order, the shared pool walked off the dict adjacency, and
the scan pool deduped on ``repr`` strings.  Inputs are generated graphs
built to collide (recurring surfaces with one candidate, so equal
reprs; a palette of axis vectors and priors, so equal weights; small
and unlimited neighbour counts, so edges visited from both rows), the
first 35 long-docs benchmark documents of seed 1, and the scale-0.1
suite.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbench import inputs
from repro.core.coherence import build_coherence_graph
from repro.core.disambiguation import _scan_edges
from repro.core.linker import LinkingContext, TenetLinker
from repro.core.tree_cover import (
    BoundTooSmallError,
    _CoverScaffold,
    derive_tree_cover,
)
from repro.datasets.benchmarks import build_benchmark_suite
from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from repro.graph.weighted_graph import WeightedGraph
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span, SpanKind
from tests.core.oracles import (
    concept_edge_triples,
    dense_concept_edges,
    derive_tree_cover_reference,
    edge_triples,
    object_scaffold,
    shared_edges_reference,
    sorted_cover_edges_reference,
)


def assert_scaffold_parity(coherence):
    scaffold = _CoverScaffold(coherence)
    edge_u, edge_v, weights, sorted_order = object_scaffold(coherence)
    assert scaffold.edge_u.tolist() == edge_u
    assert scaffold.edge_v.tolist() == edge_v
    assert scaffold.weights.tolist() == weights
    assert scaffold.sorted_order.tolist() == sorted_order


def assert_pool_parity(coherence, cover):
    shared = coherence.shared_edges(cover.bound)
    reference = shared_edges_reference(coherence, cover.bound)
    assert edge_triples(shared) == reference
    expected = sorted_cover_edges_reference(cover, reference)
    # Exact: the same node objects, orientation and weight, in order.
    assert _scan_edges(cover, shared) == expected
    assert _scan_edges(cover, reference) == expected


# ---------------------------------------------------------------------------
# generated graphs built to collide
# ---------------------------------------------------------------------------

_AXES = np.eye(3)


@st.composite
def colliding_graphs(draw):
    concepts = [f"Q{i}" for i in range(draw(st.integers(2, 5)))]
    store = EmbeddingStore(3)
    for cid in concepts:
        store.add(cid, _AXES[draw(st.integers(0, 2))])
    mention_candidates = {}
    token = 0
    for _ in range(draw(st.integers(1, 7))):
        text = draw(st.sampled_from(["Paris", "Paris", "Lyon", "is in"]))
        kind = SpanKind.RELATION if text == "is in" else SpanKind.NOUN
        sentence = draw(st.integers(0, 1))
        span = Span(text, token, token + len(text.split()), sentence, kind)
        token += draw(st.integers(1, 2))
        chosen = draw(
            st.lists(st.sampled_from(concepts), min_size=0, max_size=3, unique=True)
        )
        mention_candidates[span] = [
            CandidateHit(
                cid,
                draw(st.sampled_from([0.25, 0.5, 1.0])),
                "predicate" if kind is SpanKind.RELATION else "entity",
            )
            for cid in chosen
        ]
    max_neighbours = draw(st.sampled_from([None, 1, 2, 3]))
    return mention_candidates, SimilarityIndex(store), max_neighbours


class TestCollidingGraphs:
    @settings(max_examples=120, deadline=None)
    @given(colliding_graphs())
    def test_arrays_scaffold_and_pools_match_object_path(self, drawn):
        mention_candidates, similarity, max_neighbours = drawn
        coherence = build_coherence_graph(
            mention_candidates, similarity, max_neighbours=max_neighbours
        )
        assert concept_edge_triples(coherence) == dense_concept_edges(
            coherence.candidate_nodes(),
            coherence.priors,
            similarity,
            max_neighbours=max_neighbours,
        )
        assert_scaffold_parity(coherence)
        for bound in (None, 0.7, 1.0):
            try:
                cover = derive_tree_cover(coherence, bound=bound)
            except BoundTooSmallError:
                with pytest.raises(BoundTooSmallError):
                    derive_tree_cover_reference(coherence, bound=bound)
                continue
            reference = derive_tree_cover_reference(coherence, bound=bound)
            assert {m: t.edges() for m, t in cover.trees.items()} == {
                m: t.edges() for m, t in reference.trees.items()
            }
            assert_pool_parity(coherence, cover)


# ---------------------------------------------------------------------------
# pipeline graphs
# ---------------------------------------------------------------------------

def assert_document_parity(linker, text):
    diagnostics = linker.link_detailed(text)
    coherence = diagnostics.coherence
    config = linker.config
    assert concept_edge_triples(coherence) == dense_concept_edges(
        coherence.candidate_nodes(),
        coherence.priors,
        linker.similarity,
        predicate_similarity_scale=config.predicate_similarity_scale,
        coherence_prior_blend=config.coherence_prior_blend,
        max_neighbours=config.coherence_max_neighbours,
    )
    assert_scaffold_parity(coherence)
    assert_pool_parity(coherence, diagnostics.cover)


class TestLongDocuments:
    def test_seed_one_long_docs(self, world, tenet):
        documents = itertools.islice(inputs.fig7_documents(world, 1), 35)
        for document in documents:
            assert_document_parity(tenet, document.text)


class TestSuiteDocuments:
    def test_scale_010_suite(self):
        suite = build_benchmark_suite(seed=7, scale=0.1)
        linker = TenetLinker(
            LinkingContext.build(suite.world.kb, suite.world.taxonomy)
        )
        for dataset in suite.datasets():
            for document in dataset.documents:
                assert_document_parity(linker, document.text)


class TestNoObjectGraph:
    def test_long_document_links_without_add_edge(
        self, world, tenet, monkeypatch
    ):
        """From the similarity block to the scan, no edge becomes a
        :class:`WeightedGraph` edge (step (f) would build one, but this
        document's cover splits off no subtrees)."""
        text = next(
            document.text
            for document in inputs.fig7_documents(world, 1)
            if document.doc_id.endswith("-256")
        )
        calls = []
        original = WeightedGraph.add_edge

        def counting(self, u, v, weight):
            calls.append((u, v))
            original(self, u, v, weight)

        monkeypatch.setattr(WeightedGraph, "add_edge", counting)
        diagnostics = tenet.link_detailed(text)
        assert diagnostics.coherence.concept_node_count > 1000
        assert diagnostics.cover.subtree_count == 0
        assert calls == []
