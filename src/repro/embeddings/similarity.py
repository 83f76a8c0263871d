"""Pairwise similarity with caching, and the batched matrix hot path.

The paper notes (Sec. 6.2, efficiency discussion) that semantic
relatedness between concept pairs is pre-computed/indexed so that
retrieving one coherence-graph edge costs O(1).  :class:`SimilarityIndex`
provides exactly that: an unordered-pair dict cache in front of the
embedding store for scalar lookups (the baselines' access pattern), plus
:meth:`SimilarityIndex.batch_similarity` — one block over a gathered row
matrix, each cell a fixed-order reduction of its two rows — which the
coherence-graph construction calls once per document, over the
document's distinct concepts.
"""

from __future__ import annotations

import threading
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.embeddings.store import EmbeddingStore


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two raw vectors (0 when either is zero)."""
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(np.dot(a, b)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


class SimilarityIndex:
    """Cached pairwise semantic distance over an embedding store.

    The scalar pair cache is an unbounded dict (the paper's per-document
    precomputation); only the scalar :meth:`similarity` fills it.
    """

    def __init__(self, store: EmbeddingStore) -> None:
        self._store = store
        self._cache: Dict[Tuple[str, str], float] = {}
        # Monotonic counters of the batched path (surfaced by the bench
        # harness next to the LRU hit/miss stats).  The index is shared
        # across service workers, so the increments take a lock: a bare
        # `+=` is a read-modify-write that loses updates under
        # contention, which would make the per-worker counter fold-in
        # on /metrics undercount.
        self._stats_lock = threading.Lock()
        self.batch_calls = 0
        self.batch_pairs = 0

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def similarity(self, a: str, b: str) -> float:
        """Cached cosine similarity."""
        if a == b:
            return 1.0
        key = self._key(a, b)
        value = self._cache.get(key)
        if value is None:
            value = self._store.cosine(a, b)
            self._cache[key] = value
        return value

    def distance(self, a: str, b: str) -> float:
        """The paper's global semantic distance 1 - cos(a, b)."""
        return 1.0 - self.similarity(a, b)

    def batch_similarity(self, concept_ids: Sequence[str]) -> np.ndarray:
        """Clipped cosine matrix over *concept_ids*, one cell per pair.

        The ``(n, n)`` float64 result matches the scalar
        :meth:`similarity` semantics entry-wise: positions holding the
        *same* id are exactly ``1.0`` (the ``a == b`` shortcut), and any
        pair involving an id the store does not hold is ``0.0`` (a zero
        vector, where the scalar path would raise).

        Each cell is a pure function of its two embedding rows: the same
        pair gets the same bits whatever other ids the call holds, in
        whatever order, under any SIMD level numpy dispatches.  So the
        cells are reduced by ``np.einsum``'s own sum-of-products loop,
        which runs over the embedding dimensions in one fixed order per
        cell.  A BLAS product (``E @ E.T``) blocks its sums by the shape
        of the whole matrix, so there a pair's last bits would depend on
        the rest of the document.  Rows are gathered with one
        fancy-index call (:meth:`EmbeddingStore.rows
        <repro.embeddings.store.EmbeddingStore.rows>`).  The
        unordered-pair cache is deliberately bypassed: filling it
        pair-by-pair is the O(n^2) Python loop this path exists to
        avoid.  Every call returns a new array, which the caller owns
        and may overwrite.
        """
        ids = list(concept_ids)
        n = len(ids)
        with self._stats_lock:
            self.batch_calls += 1
            self.batch_pairs += n * (n - 1) // 2
        if n == 0:
            return np.zeros((0, 0), dtype=np.float64)
        vectors, _ = self._store.rows(ids)
        matrix = vectors.astype(np.float64)
        sims = np.einsum("ik,jk->ij", matrix, matrix)
        np.clip(sims, -1.0, 1.0, out=sims)
        # Same-id positions compared as integer codes: an object-dtype
        # comparison of the ids is a Python call per cell.
        code_of: Dict[str, int] = {}
        codes = np.fromiter(
            (code_of.setdefault(i, len(code_of)) for i in ids),
            dtype=np.int64,
            count=n,
        )
        np.putmask(sims, codes[:, None] == codes[None, :], 1.0)
        return sims

    def batch_distance(self, concept_ids: Sequence[str]) -> np.ndarray:
        """``1 - batch_similarity`` (the paper's global semantic distance)."""
        return 1.0 - self.batch_similarity(concept_ids)

    def batch_stats(self) -> dict:
        """JSON-compatible counters of the batched matrix path.

        ``batch_pairs`` sums ``n (n - 1) / 2`` over the calls, for the
        ``n`` ids each call was passed.  The coherence graph passes a
        document's distinct concepts, so it counts distinct-concept
        pairs, not candidate pairs.
        """
        with self._stats_lock:
            calls, pairs = self.batch_calls, self.batch_pairs
        return {
            "batch_calls": calls,
            "batch_pairs": pairs,
            "pair_cache_size": self.cache_size,
        }

    @property
    def cache_size(self) -> int:
        return len(self._cache)
