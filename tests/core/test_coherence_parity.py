"""Batched vs. scalar coherence construction: identical graphs, identical links.

Pins the acceptance criterion of the vectorised hot path: building the
coherence graph from one ``E @ E.T`` block instead of per-pair cosine
calls (the :class:`tests.core.oracles.ScalarSimilarityIndex` oracle)
must not change the graph, and end-to-end linking output must be
byte-identical.
"""

import json

import pytest

from repro.core.coherence import build_coherence_graph
from repro.core.linker import LinkingContext, TenetLinker
from repro.datasets.benchmarks import build_benchmark_suite
from tests.core.oracles import ScalarSimilarityIndex


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
            left, right = edge_map(batch.graph), edge_map(scalar.graph)
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
