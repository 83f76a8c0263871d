"""Batched vs. scalar coherence construction: identical graphs, identical links.

Pins the acceptance criterion of the vectorised hot path: building the
coherence graph from one batched similarity block instead of per-pair
cosine calls (the :class:`tests.core.oracles.ScalarSimilarityIndex`
oracle) must not change the graph, and end-to-end linking output must
be byte-identical.  The concept edge arrays of the per-group selection
must hold the edges the whole-matrix construction
(:func:`tests.core.oracles.dense_concept_edges`: n x n weights, then a
stable argsort per row) adds, in the same order, orientation and
weight, on pipeline documents and on generated documents of many
sentences whose cross-sentence pairs go through the concept groups.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import coherence as coherence_module
from repro.core.coherence import build_coherence_graph
from repro.core.linker import LinkingContext, TenetLinker
from repro.datasets.benchmarks import build_benchmark_suite
from repro.datasets.generator import DocumentGenerator, DocumentSpec
from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span, SpanKind
from tests.core.oracles import (
    ScalarSimilarityIndex,
    concept_edge_triples,
    dense_concept_edges,
    materialise,
)


@pytest.fixture(scope="module")
def suite():
    return build_benchmark_suite(seed=7, scale=0.1)


@pytest.fixture(scope="module")
def context(suite):
    return LinkingContext.build(suite.world.kb, suite.world.taxonomy)


@pytest.fixture(scope="module")
def documents(suite):
    return [
        document.text
        for dataset in suite.datasets()
        for document in dataset.documents
    ]


def edge_map(graph):
    edges = {}
    for u, v, w in graph.edges():
        ru, rv = repr(u), repr(v)
        edges[(ru, rv) if ru <= rv else (rv, ru)] = w
    return edges


class TestGraphParity:
    def test_same_edges_and_weights(self, context, documents):
        linker = TenetLinker(context)
        scalar_index = ScalarSimilarityIndex(context.embeddings)
        for text in documents[:6]:
            extraction = linker.pipeline.extract(text)
            by_mention = linker.generator.generate(extraction).by_mention
            batch = build_coherence_graph(by_mention, linker.similarity)
            scalar = build_coherence_graph(by_mention, scalar_index)
            left = edge_map(materialise(batch))
            right = edge_map(materialise(scalar))
            assert left.keys() == right.keys()
            for key in left:
                assert left[key] == pytest.approx(right[key], abs=1e-9)


class TestEndToEndParity:
    def test_linking_output_byte_identical(self, context, documents):
        batch_linker = TenetLinker(context)
        scalar_linker = TenetLinker(context)
        scalar_linker.similarity = ScalarSimilarityIndex(context.embeddings)
        for text in documents:
            batched = batch_linker.link(text).to_json(include_timings=False)
            scalar = scalar_linker.link(text).to_json(include_timings=False)
            assert json.dumps(batched, sort_keys=True) == json.dumps(
                scalar, sort_keys=True
            )


def _fig7_document(world, facts):
    """A Fig. 7 runtime-vs-length document (the efficiency study's spec)."""
    spec = DocumentSpec(
        domain="computer_science",
        facts=facts,
        isolated_facts=max(1, facts // 8),
        non_linkable_noun_sentences=1,
        non_linkable_relation_sentences=1,
        filler_sentences=facts,
        pronoun_prob=0.2,
        title_facts=1,
    )
    return DocumentGenerator(world, seed=99).generate(f"fig7-{facts}", spec).text


class TestConceptEdgeSequence:
    def _assert_same_sequence(self, linker, text, max_neighbours):
        extraction = linker.pipeline.extract(text)
        by_mention = linker.generator.generate(extraction).by_mention
        config = linker.config
        built = build_coherence_graph(
            by_mention,
            linker.similarity,
            predicate_similarity_scale=config.predicate_similarity_scale,
            prior_distance_floor=config.prior_distance_floor,
            coherence_prior_blend=config.coherence_prior_blend,
            prior_distance_curve=config.prior_distance_curve,
            max_neighbours=max_neighbours,
        )
        nodes = built.candidate_nodes()
        actual = concept_edge_triples(built)
        expected = dense_concept_edges(
            nodes,
            built.priors,
            linker.similarity,
            predicate_similarity_scale=config.predicate_similarity_scale,
            coherence_prior_blend=config.coherence_prior_blend,
            max_neighbours=max_neighbours,
        )
        # Exact: node identity and orientation of every edge, and every
        # weight to the last bit.
        assert len(actual) == len(expected)
        assert actual == expected
        return len(nodes)

    @pytest.mark.parametrize("max_neighbours", [None, 12])
    def test_long_document_spanning_several_row_blocks(
        self, context, suite, max_neighbours
    ):
        linker = TenetLinker(context)
        text = _fig7_document(suite.world, 256)
        nodes = self._assert_same_sequence(linker, text, max_neighbours)
        assert nodes > 3 * coherence_module._ROW_BLOCK

    @pytest.mark.parametrize("max_neighbours", [None, 12])
    def test_suite_documents(self, context, documents, max_neighbours):
        linker = TenetLinker(context)
        for text in documents:
            self._assert_same_sequence(linker, text, max_neighbours)


# Embedding rows with repeated, orthogonal and opposite directions: equal
# similarities across concepts, and weights clipped at the distance cap.
_PALETTE = [
    np.array(v, dtype=np.float32)
    for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [-1, 0, 0], [1, 1, 1])
]


@st.composite
def sentence_graphs(draw):
    """Documents of several sentences in token order, with concepts that
    recur across sentences at equal priors (long runs of equal weight),
    same-concept candidates and overlapping mentions inside a sentence,
    predicates, and sometimes a mention reaching into the next sentence."""
    concepts = [f"Q{i}" for i in range(draw(st.integers(2, 6)))]
    store = EmbeddingStore(3)
    for cid in concepts:
        store.add(cid, draw(st.sampled_from(_PALETTE)))
    mention_candidates = {}
    token = 0
    for sentence in range(draw(st.integers(1, 6))):
        for _ in range(draw(st.integers(1, 5))):
            text = draw(st.sampled_from(["Paris", "Lyon", "New York", "is in"]))
            kind = SpanKind.RELATION if text == "is in" else SpanKind.NOUN
            length = len(text.split())
            span = Span(text, token, token + length, sentence, kind)
            token += draw(st.integers(1, length))
            chosen = draw(
                st.lists(
                    st.sampled_from(concepts), min_size=0, max_size=3, unique=True
                )
            )
            mention_candidates[span] = [
                CandidateHit(
                    cid,
                    draw(st.sampled_from([0.25, 0.5, 1.0])),
                    "predicate" if kind is SpanKind.RELATION else "entity",
                )
                for cid in chosen
            ]
        token += draw(st.sampled_from([0, 1, 1, 1]))
    options = dict(
        max_concept_distance=draw(st.sampled_from([1.0, 0.9])),
        coherence_prior_blend=draw(st.sampled_from([0.06, 0.0, -0.05])),
        max_neighbours=draw(st.sampled_from([None, 1, 2, 3, 5])),
    )
    return mention_candidates, SimilarityIndex(store), options


class TestGroupedSelection:
    # Small documents weigh every pair directly; at 0 cells every
    # document goes through units and concept groups, as large ones do.
    @pytest.mark.parametrize(
        "direct_cells", [0, coherence_module._DIRECT_CELLS]
    )
    @settings(max_examples=150, deadline=None)
    @given(drawn=sentence_graphs())
    def test_matches_dense_stable_oracle(self, direct_cells, drawn):
        mention_candidates, similarity, options = drawn
        with mock.patch.object(
            coherence_module, "_DIRECT_CELLS", direct_cells
        ):
            built = build_coherence_graph(
                mention_candidates, similarity, **options
            )
        expected = dense_concept_edges(
            built.candidate_nodes(), built.priors, similarity, **options
        )
        assert concept_edge_triples(built) == expected
