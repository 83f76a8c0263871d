"""Coherence memory grows with the candidates, not with their square.

The concept edges come from one block over the document's distinct
concepts and a per-group selection, so the traced peak of
``build_coherence_graph`` on four concatenated 256-fact Fig. 7
documents (~7.7k candidates) stays small and within a few times its
peak on one of them.  An n x n float64 block over the candidates would
take ~470 MB there, seventeen times its size on one document.
"""

import itertools
import tracemalloc

import pytest

from perfbench import inputs
from repro.core import linker as linker_module

_MB = 1024 * 1024


def _coherence_peak(tenet, text, monkeypatch):
    """The tracemalloc peak inside ``build_coherence_graph`` while
    *tenet* links *text*."""
    original = linker_module.build_coherence_graph
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with monkeypatch.context() as patch:
        patch.setattr(linker_module, "build_coherence_graph", traced)
        diagnostics = tenet.link_detailed(text)
    assert len(peaks) == 1
    return peaks[0], diagnostics.coherence.concept_node_count


@pytest.fixture(scope="module")
def documents(world):
    texts = (
        document.text
        for document in itertools.islice(inputs.fig7_documents(world, 3), 40)
        if document.doc_id.endswith("-256")
    )
    return list(itertools.islice(texts, 4))


class TestCoherenceMemory:
    def test_four_documents_stay_bounded(self, tenet, documents, monkeypatch):
        one, one_nodes = _coherence_peak(tenet, documents[0], monkeypatch)
        four, four_nodes = _coherence_peak(
            tenet, " ".join(documents), monkeypatch
        )
        assert four_nodes > 3.5 * one_nodes
        assert four < 128 * _MB, four / _MB
        assert four < 6 * one, (four / _MB, one / _MB)
