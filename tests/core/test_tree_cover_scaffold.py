"""Scaffold vs. reference Algorithm 1: identical covers, shared probes.

The scaffolded :func:`derive_tree_cover` (flat integer-id edge arrays,
masked Kruskal over one precomputed order) must reproduce the
object-graph oracle :func:`tests.core.oracles.derive_tree_cover_reference`
exactly — same trees, same edge sequences, same failures — both on
randomized coherence graphs and on real pipeline graphs from the
benchmark suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coherence import build_coherence_graph
from repro.core.linker import LinkingContext, TenetLinker
from repro.core.tree_cover import (
    BoundTooSmallError,
    derive_tree_cover,
    minimal_feasible_bound,
)
from repro.datasets.benchmarks import build_benchmark_suite
from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span, SpanKind
from tests.core.oracles import derive_tree_cover_reference


def _world_similarity(seed, n_concepts=12, dim=16):
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(dim)
    for i in range(n_concepts):
        store.add(f"Q{i}", rng.standard_normal(dim))
    return SimilarityIndex(store)


def build(n_mentions=4, k=2, seed=0):
    rng = np.random.default_rng(seed + 1)
    mention_candidates = {}
    cid = 0
    for i in range(n_mentions):
        span = Span(f"m{i}", i * 3, i * 3 + 1, 0, SpanKind.NOUN)
        priors = rng.dirichlet(np.ones(k))
        hits = [
            CandidateHit(f"Q{(cid + j) % 12}", float(priors[j]), "entity")
            for j in range(k)
        ]
        cid += k
        mention_candidates[span] = hits
    return build_coherence_graph(mention_candidates, _world_similarity(seed))


def cover_signature(cover):
    """Everything observable about a cover, in a comparable form."""
    return {
        "bound": cover.bound,
        "subtree_count": cover.subtree_count,
        "trees": {
            repr(mention): sorted(
                (repr(e.parent), repr(e.child), e.weight)
                for e in tree.edges()
            )
            for mention, tree in cover.trees.items()
        },
    }


def assert_same_cover(coherence, bound=None):
    fast = derive_tree_cover(coherence, bound=bound)
    reference = derive_tree_cover_reference(coherence, bound=bound)
    assert cover_signature(fast) == cover_signature(reference)


class TestRandomGraphParity:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 1000))
    def test_default_bound_identical(self, n_mentions, k, seed):
        assert_same_cover(build(n_mentions, k, seed))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 1000))
    def test_tight_bounds_identical_including_failures(
        self, n_mentions, k, seed
    ):
        """Small explicit bounds exercise splitting and subtree matching;
        the two implementations must succeed and fail on the same B."""
        coherence = build(n_mentions, k, seed)
        for bound in (0.5, 0.8, 1.2, 2.0):
            try:
                fast = derive_tree_cover(coherence, bound=bound)
            except BoundTooSmallError:
                with pytest.raises(BoundTooSmallError):
                    derive_tree_cover_reference(coherence, bound=bound)
                continue
            reference = derive_tree_cover_reference(coherence, bound=bound)
            assert cover_signature(fast) == cover_signature(reference)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 500))
    def test_minimal_bound_probes_match_fresh_derivation(
        self, n_mentions, seed
    ):
        """The scaffold reused across binary-search probes must reach the
        same B* a probe-by-probe reference search reaches, and the cover
        at B* must match a from-scratch derivation."""
        coherence = build(n_mentions, 2, seed)
        b_star = minimal_feasible_bound(coherence, tolerance=0.01)

        def reference_feasible(bound):
            try:
                derive_tree_cover_reference(coherence, bound=bound)
                return True
            except BoundTooSmallError:
                return False

        lo, hi = 0.0, max(float(n_mentions), 1.0)
        assert reference_feasible(hi)
        while hi - lo > 0.01:
            mid = (lo + hi) / 2.0
            if mid <= 0.0:
                break
            if reference_feasible(mid):
                hi = mid
            else:
                lo = mid
        assert b_star == pytest.approx(hi)
        assert_same_cover(coherence, bound=b_star)


class TestPipelineGraphParity:
    @pytest.fixture(scope="class")
    def pipeline_graphs(self):
        suite = build_benchmark_suite(seed=7, scale=0.1)
        context = LinkingContext.build(suite.world.kb, suite.world.taxonomy)
        linker = TenetLinker(context)
        graphs = []
        for dataset in suite.datasets():
            for document in dataset.documents[:4]:
                extraction = linker.pipeline.extract(document.text)
                by_mention = linker.generator.generate(extraction).by_mention
                graphs.append(
                    build_coherence_graph(by_mention, linker.similarity)
                )
        return graphs

    def test_real_documents_identical(self, pipeline_graphs):
        assert pipeline_graphs
        for coherence in pipeline_graphs:
            assert_same_cover(coherence)
