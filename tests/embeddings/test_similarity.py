"""Similarity index tests."""

import numpy as np
import pytest

from repro.embeddings.similarity import SimilarityIndex, cosine_similarity
from repro.embeddings.store import EmbeddingStore


@pytest.fixture
def index():
    store = EmbeddingStore(3)
    store.add("a", np.array([1.0, 0.0, 0.0]))
    store.add("b", np.array([1.0, 1.0, 0.0]))
    store.add("c", np.array([0.0, 0.0, 1.0]))
    return SimilarityIndex(store)


class TestCosineFunction:
    def test_parallel(self):
        assert cosine_similarity(np.ones(3), 2 * np.ones(3)) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert cosine_similarity(a, b) == pytest.approx(0.0)

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_clipped(self):
        a = np.array([1.0])
        assert cosine_similarity(a, a) <= 1.0


class TestIndex:
    def test_self_similarity(self, index):
        assert index.similarity("a", "a") == 1.0

    def test_symmetric(self, index):
        assert index.similarity("a", "b") == index.similarity("b", "a")

    def test_distance_complement(self, index):
        assert index.distance("a", "c") == pytest.approx(
            1.0 - index.similarity("a", "c")
        )

    def test_cache_grows_once_per_pair(self, index):
        index.similarity("a", "b")
        size = index.cache_size
        index.similarity("b", "a")
        assert index.cache_size == size
