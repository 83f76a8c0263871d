"""Batched similarity matrix vs. the scalar per-pair path.

For any embedding store, ``SimilarityIndex.batch_similarity`` must
reproduce the scalar ``similarity`` / ``1 - cosine`` values within 1e-9
— the batched block may not change the numbers, only the cost — and a
pair's value must not depend on which other ids the call holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from tests.core.oracles import object_mask_similarity, scalar_similarity_matrix


def make_store(matrix):
    ids = [f"Q{i}" for i in range(matrix.shape[0])]
    return ids, EmbeddingStore.from_matrix(ids, matrix)


@st.composite
def embedding_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=16))
    values = draw(
        st.lists(
            st.floats(
                min_value=-10.0,
                max_value=10.0,
                allow_nan=False,
                allow_infinity=False,
                width=32,
            ),
            min_size=n * dim,
            max_size=n * dim,
        )
    )
    return np.array(values, dtype=np.float32).reshape(n, dim)


class TestBatchMatchesScalar:
    @settings(max_examples=60, deadline=None)
    @given(embedding_matrices())
    def test_batch_equals_scalar_within_1e9(self, matrix):
        ids, store = make_store(matrix)
        index = SimilarityIndex(store)
        batch = index.batch_similarity(ids)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert batch[i, j] == pytest.approx(
                    index.similarity(a, b), abs=1e-9
                )

    @settings(max_examples=30, deadline=None)
    @given(embedding_matrices())
    def test_batch_distance_is_complement(self, matrix):
        ids, store = make_store(matrix)
        index = SimilarityIndex(store)
        np.testing.assert_allclose(
            index.batch_distance(ids),
            1.0 - index.batch_similarity(ids),
            atol=1e-12,
        )


class TestRepeatedAndUnknownIds:
    @settings(max_examples=60, deadline=None)
    @given(embedding_matrices(), st.data())
    def test_equals_scalar_oracle(self, matrix, data):
        known, store = make_store(matrix)
        ids = data.draw(
            st.lists(
                st.sampled_from(known + ["ghost", "phantom"]),
                min_size=0,
                max_size=3 * len(known),
            )
        )
        index = SimilarityIndex(store)
        batch = index.batch_similarity(ids)
        scalar = scalar_similarity_matrix(index, ids)
        assert batch.shape == scalar.shape == (len(ids), len(ids))
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if a == b or a not in known or b not in known:
                    # Same id: exactly 1 (known or not); an unknown id
                    # against another id: exactly 0.
                    assert batch[i, j] == scalar[i, j]
                else:
                    assert batch[i, j] == pytest.approx(scalar[i, j], abs=1e-9)
        # Bit for bit what the object-dtype same-id mask produced.
        assert np.array_equal(batch, object_mask_similarity(index, ids))


class TestBatchSemantics:
    @pytest.fixture
    def index(self):
        store = EmbeddingStore(3)
        store.add("a", np.array([1.0, 0.0, 0.0]))
        store.add("b", np.array([0.0, 1.0, 0.0]))
        return SimilarityIndex(store)

    def test_matrix_is_symmetric_with_unit_diagonal(self, index):
        sims = index.batch_similarity(["a", "b"])
        np.testing.assert_allclose(sims, sims.T)
        np.testing.assert_allclose(np.diag(sims), 1.0)

    def test_duplicate_ids_are_exactly_one(self, index):
        sims = index.batch_similarity(["a", "b", "a"])
        assert sims[0, 2] == 1.0 == sims[2, 0]

    def test_unknown_ids_have_zero_similarity(self, index):
        sims = index.batch_similarity(["a", "ghost"])
        assert sims[0, 1] == 0.0
        assert sims[1, 0] == 0.0
        assert sims[1, 1] == 1.0  # same-id shortcut, known or not

    def test_empty_input(self, index):
        assert index.batch_similarity([]).shape == (0, 0)

    def test_counters_advance(self, index):
        before = index.batch_stats()["batch_calls"]
        index.batch_similarity(["a", "b"])
        stats = index.batch_stats()
        assert stats["batch_calls"] == before + 1
        assert stats["batch_pairs"] >= 1

    def test_batch_does_not_fill_pair_cache(self, index):
        index.batch_similarity(["a", "b"])
        assert index.cache_size == 0


class TestPairValueIndependentOfCall:
    """A pair's cell is a function of its two rows: the same bits in a
    call over any subset of ids, in any order, of any size."""

    @pytest.mark.parametrize("dimension", [7, 256])
    def test_subsets_and_permutations_bit_for_bit(self, dimension):
        rng = np.random.default_rng(dimension)
        matrix = rng.standard_normal((400, dimension)).astype(np.float32)
        ids, store = make_store(matrix)
        index = SimilarityIndex(store)
        full = index.batch_similarity(ids)
        sizes = [2, 3, 24, 139, 192, 394, 400, *rng.integers(2, 401, size=13)]
        for size in sizes:
            pick = rng.permutation(len(ids))[:size]
            block = index.batch_similarity([ids[p] for p in pick])
            expected = full[np.ix_(pick, pick)]
            assert np.array_equal(
                block.view(np.uint64), expected.view(np.uint64)
            ), size
