"""Reference implementations the hot paths are pinned against.

* :func:`derive_tree_cover_reference` — Algorithm 1 over object graphs:
  an eager pruned copy, an explicit contracted :class:`WeightedGraph`
  (:func:`_contract`), object-keyed Kruskal, and the decomposition of
  the major root back into mentions (:func:`_decompose`).  The
  scaffolded :func:`repro.core.tree_cover.derive_tree_cover` must
  reproduce it edge for edge.
* :func:`scalar_similarity_matrix` — the per-pair form of
  :meth:`repro.embeddings.similarity.SimilarityIndex.batch_similarity`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.coherence import CandidateNode, CoherenceGraph
from repro.core.deadline import Deadline
from repro.core.splitting import split_tree
from repro.core.tree_cover import (
    MAJOR_ROOT,
    BoundTooSmallError,
    TreeCoverResult,
    _attach_subtrees,
)
from repro.embeddings.similarity import SimilarityIndex
from repro.graph.mst import minimum_spanning_forest
from repro.graph.tree import RootedTree
from repro.graph.weighted_graph import WeightedGraph
from repro.nlp.spans import Span


def _contract(
    coherence: CoherenceGraph, pruned: WeightedGraph, bound: float
) -> Tuple[WeightedGraph, Dict[CandidateNode, Span]]:
    """Build the contracted graph G' = ({r} u C, ...).

    Each candidate node connects to the root with the weight of its own
    mention edge (if that edge survived pruning); concept-concept edges
    are carried over unchanged.  ``owner`` records which mention each
    root edge decomposes back to.
    """
    contracted = WeightedGraph()
    contracted.add_node(MAJOR_ROOT)
    owner: Dict[CandidateNode, Span] = {}
    for mention, nodes in coherence.candidates_by_mention.items():
        for node in nodes:
            contracted.add_node(node)
            weight = pruned.get_weight(mention, node)
            if weight is not None:
                contracted.add_edge(MAJOR_ROOT, node, weight)
                owner[node] = mention
    for u, v, w in pruned.edges():
        if isinstance(u, CandidateNode) and isinstance(v, CandidateNode):
            contracted.add_edge(u, v, w)
    return contracted, owner


def _decompose(
    coherence: CoherenceGraph,
    mst: WeightedGraph,
    owner: Dict[CandidateNode, Span],
) -> Dict[Span, RootedTree]:
    """Step (d): replace the major root by the mention nodes.

    Every component of MST - r hangs off r through exactly one edge
    (otherwise the MST would contain a cycle), so each component belongs
    to the mention owning that edge.  Mentions with several root edges
    adopt several components; mentions with none keep a singleton tree.
    """
    trees: Dict[Span, RootedTree] = {
        mention: RootedTree(mention) for mention in coherence.mentions
    }
    if MAJOR_ROOT not in mst:
        return trees
    root_edges = list(mst.neighbours(MAJOR_ROOT).items())
    without_root = mst.copy()
    without_root.remove_node(MAJOR_ROOT)
    for anchor, weight in root_edges:
        mention = owner[anchor]
        tree = trees[mention]
        tree.add_edge(mention, anchor, weight)
        _graft_component(tree, without_root, anchor)
    return trees


def _graft_component(
    tree: RootedTree, forest: WeightedGraph, anchor: CandidateNode
) -> None:
    """Copy the forest component reachable from *anchor* into *tree*."""
    stack = [anchor]
    visited = {anchor}
    while stack:
        node = stack.pop()
        for neighbour, weight in sorted(
            forest.neighbours(node).items(), key=lambda kv: repr(kv[0])
        ):
            if neighbour in visited or neighbour in tree:
                continue
            visited.add(neighbour)
            tree.add_edge(node, neighbour, weight)
            stack.append(neighbour)


def derive_tree_cover_reference(
    coherence: CoherenceGraph,
    bound: Optional[float] = None,
    deadline: Optional[Deadline] = None,
) -> TreeCoverResult:
    """Algorithm 1 over the object-graph reference steps.

    Same bound contract as the scaffolded derivation: ``bound=None``
    starts at B = |M| and doubles B until the cover succeeds; an
    explicit bound raises :class:`BoundTooSmallError` when infeasible.
    """
    if bound is not None:
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return _derive_reference(coherence, bound, deadline)
    bound = float(max(len(coherence.mentions), 1))
    while True:
        try:
            return _derive_reference(coherence, bound, deadline)
        except BoundTooSmallError:
            bound *= 2.0


def _derive_reference(
    coherence: CoherenceGraph, bound: float, deadline: Optional[Deadline]
) -> TreeCoverResult:
    check = None if deadline is None else (lambda: deadline.check("tree_cover"))

    pruned = coherence.graph.pruned(bound)
    contracted, owner = _contract(coherence, pruned, bound)
    mst = minimum_spanning_forest(contracted, check=check)
    if contracted.node_count > 0 and mst.edge_count != contracted.node_count - 1:
        raise BoundTooSmallError(
            f"contracted coherence graph is disconnected at B={bound}"
        )
    raw_trees = _decompose(coherence, mst, owner)

    trees: Dict[Span, RootedTree] = {}
    leftover_subtrees: List[RootedTree] = []
    for mention, tree in raw_trees.items():
        leftover, subtrees = split_tree(tree, bound)
        trees[mention] = leftover
        leftover_subtrees.extend(subtrees)

    if not leftover_subtrees:
        return TreeCoverResult(trees, bound, 0)
    _attach_subtrees(coherence, pruned, trees, leftover_subtrees, bound, check)
    return TreeCoverResult(trees, bound, len(leftover_subtrees))


def scalar_similarity_matrix(
    similarity: SimilarityIndex, concept_ids: List[str]
) -> np.ndarray:
    """Per-pair reference for :meth:`SimilarityIndex.batch_similarity`.

    The O(n^2) scalar path the batched matrix product replaced.  Matches
    the batch semantics: same-id pairs are exactly 1, pairs with an id
    missing from the store are 0.
    """
    n = len(concept_ids)
    store = similarity._store
    known = [cid in store for cid in concept_ids]
    sims = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        a = concept_ids[i]
        for j in range(i, n):
            b = concept_ids[j]
            if a == b:
                value = 1.0
            elif known[i] and known[j]:
                value = similarity.similarity(a, b)
            else:
                value = 0.0
            sims[i, j] = sims[j, i] = value
    return sims


class ScalarSimilarityIndex(SimilarityIndex):
    """A similarity index whose batched block is the per-pair oracle."""

    def batch_similarity(self, concept_ids) -> np.ndarray:
        return scalar_similarity_matrix(self, list(concept_ids))
