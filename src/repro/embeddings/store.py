"""Array-backed embedding store.

Rows live in one contiguous float32 matrix (memory-mappable to disk, as
the paper stores its PyTorch-BigGraph vectors), with a concept-id ->
row-index mapping on the side.  All vectors are L2-normalised on insertion
so cosine similarity is a plain dot product.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np


class EmbeddingStore:
    """Normalised embedding vectors keyed by concept id."""

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = dimension
        self._index: Dict[str, int] = {}
        self._ids: List[str] = []
        self._matrix = np.zeros((0, dimension), dtype=np.float32)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, ids: List[str], matrix: np.ndarray) -> "EmbeddingStore":
        """Build a store from a pre-computed (n, d) matrix."""
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(ids)} ids"
            )
        store = cls(matrix.shape[1])
        store._ids = list(ids)
        store._index = {cid: i for i, cid in enumerate(store._ids)}
        if len(store._index) != len(store._ids):
            raise ValueError("duplicate concept ids")
        store._matrix = _normalise_rows(np.asarray(matrix, dtype=np.float32))
        return store

    def add(self, concept_id: str, vector: np.ndarray) -> None:
        """Append one vector (normalised in place)."""
        if concept_id in self._index:
            raise ValueError(f"duplicate concept id {concept_id!r}")
        vector = np.asarray(vector, dtype=np.float32).reshape(1, -1)
        if vector.shape[1] != self.dimension:
            raise ValueError(
                f"vector has dimension {vector.shape[1]}, store is {self.dimension}"
            )
        self._index[concept_id] = len(self._ids)
        self._ids.append(concept_id)
        self._matrix = np.vstack([self._matrix, _normalise_rows(vector)])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._index

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> List[str]:
        return list(self._ids)

    def vector(self, concept_id: str) -> np.ndarray:
        """The (normalised) embedding row for *concept_id*.

        Returned as a read-only zero-copy view: the matrix is shared
        state (between requests, and — memory-mapped — between worker
        processes), so no writable alias may escape the store.  A write
        through a row of an ``mmap_mode="r"`` matrix raises only on some
        numpy versions; freezing the view makes it raise on all of them,
        and protects in-RAM stores the same way.
        """
        view = self._matrix[self._index[concept_id]].view()
        view.flags.writeable = False
        return view

    def rows(self, concept_ids: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
        """Batched row lookup: one fancy-index gather instead of a
        Python loop of :meth:`vector` calls.

        Returns ``(matrix, known)`` where ``matrix`` is ``(n, dim)``
        float32 with a zero row for every id the store does not hold and
        ``known`` is the matching boolean mask.  Works unchanged on a
        memory-mapped matrix (only the gathered pages are read).
        """
        index = self._index
        positions = np.fromiter(
            (index.get(cid, -1) for cid in concept_ids),
            dtype=np.int64,
            count=len(concept_ids),
        )
        known = positions >= 0
        out = np.zeros((len(concept_ids), self.dimension), dtype=np.float32)
        if known.any():
            out[known] = np.asarray(self._matrix)[positions[known]]
        return out, known

    def cosine(self, a: str, b: str) -> float:
        """Cosine similarity between two stored concepts, clipped to [-1, 1].

        Accumulated in float64 so the scalar value agrees with the
        batched matrix of :meth:`SimilarityIndex.batch_similarity
        <repro.embeddings.similarity.SimilarityIndex.batch_similarity>` to
        ~1e-15 instead of the ~1e-7 drift of float32 dot products.
        """
        value = float(
            np.dot(
                np.asarray(self.vector(a), dtype=np.float64),
                np.asarray(self.vector(b), dtype=np.float64),
            )
        )
        return max(-1.0, min(1.0, value))

    def distance(self, a: str, b: str) -> float:
        """The paper's global semantic distance 1 - cos (Eq. 3-5), in [0, 2]."""
        return 1.0 - self.cosine(a, b)

    def nearest(self, concept_id: str, k: int = 10) -> List[Tuple[str, float]]:
        """The k most cosine-similar other concepts."""
        query = self.vector(concept_id)
        scores = self._matrix @ query
        order = np.argsort(-scores)
        result: List[Tuple[str, float]] = []
        for idx in order:
            cid = self._ids[int(idx)]
            if cid == concept_id:
                continue
            result.append((cid, float(scores[int(idx)])))
            if len(result) >= k:
                break
        return result

    # ------------------------------------------------------------------
    # persistence (memory-mapped load path)
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Persist to ``embeddings.npy`` + ``ids.json`` under *directory*.

        Writes are atomic: both files land in a temp directory first and
        are published by rename, so a crash mid-save can never leave a
        half-written directory that :meth:`load` would silently accept.
        When *directory* does not exist yet the whole temp directory is
        renamed into place in one step; when it does, each file is
        atomically replaced (``ids.json`` last, so a torn state shows up
        as the id-count/row-count mismatch :meth:`load` rejects).
        """
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        tmp = directory.parent / f".{directory.name}.tmp-{uuid.uuid4().hex[:8]}"
        tmp.mkdir()
        try:
            np.save(tmp / "embeddings.npy", np.asarray(self._matrix))
            (tmp / "ids.json").write_text(json.dumps(self._ids))
            if directory.exists():
                os.replace(tmp / "embeddings.npy", directory / "embeddings.npy")
                os.replace(tmp / "ids.json", directory / "ids.json")
                tmp.rmdir()
            else:
                os.replace(tmp, directory)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    @classmethod
    def load(cls, directory: Union[str, Path], mmap: bool = True) -> "EmbeddingStore":
        """Load a store saved by :meth:`save`.

        With ``mmap=True`` the matrix is memory-mapped rather than read
        into RAM — the access pattern the paper describes for serving
        embeddings during linking.

        Raises ``ValueError`` when the directory is internally
        inconsistent (id count != matrix rows, or a malformed matrix) —
        the signature of a torn write by a pre-atomic saver.
        """
        directory = Path(directory)
        matrix = np.load(
            directory / "embeddings.npy", mmap_mode="r" if mmap else None
        )
        ids = json.loads((directory / "ids.json").read_text())
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ValueError(f"corrupt embedding store at {directory}: bad ids.json")
        if matrix.ndim != 2:
            raise ValueError(
                f"corrupt embedding store at {directory}: matrix has "
                f"{matrix.ndim} dimensions, expected 2"
            )
        if matrix.shape[0] != len(ids):
            raise ValueError(
                f"corrupt embedding store at {directory}: {len(ids)} ids "
                f"vs {matrix.shape[0]} matrix rows"
            )
        store = cls(matrix.shape[1])
        store._ids = list(ids)
        store._index = {cid: i for i, cid in enumerate(store._ids)}
        if len(store._index) != len(store._ids):
            raise ValueError(
                f"corrupt embedding store at {directory}: duplicate concept ids"
            )
        store._matrix = matrix
        return store


def _normalise_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms
