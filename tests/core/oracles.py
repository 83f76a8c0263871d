"""Reference implementations the hot paths are pinned against.

* :func:`materialise` — the coherence graph as the
  :class:`WeightedGraph` it used to be built as: one ``add_edge`` per
  mention edge and per concept edge, in emission order.  The object
  paths below read it.
* :func:`object_scaffold`, :func:`shared_edges_reference` and
  :func:`sorted_cover_edges_reference` — the contracted edge stream and
  Kruskal order read back out of ``graph.edges()``, the shared pool
  walked off the dict adjacency, and the scan pool deduped on ``repr``
  strings.  :class:`repro.core.tree_cover._CoverScaffold`,
  :meth:`repro.core.coherence.CoherenceGraph.shared_edges` and
  :func:`repro.core.disambiguation._scan_edges` must reproduce them
  edge for edge.
* :func:`derive_tree_cover_reference` — Algorithm 1 over object graphs:
  an eager pruned copy, an explicit contracted :class:`WeightedGraph`
  (:func:`_contract`), object-keyed Kruskal, and the decomposition of
  the major root back into mentions (:func:`_decompose`).  The
  scaffolded :func:`repro.core.tree_cover.derive_tree_cover` must
  reproduce it edge for edge.
* :func:`optimal_cover_cost` — the minimum M-rooted tree cover cost of
  a tiny graph by exhaustive search, for Lemma 4.2.
* :func:`scalar_similarity_matrix` — the per-pair form of
  :meth:`repro.embeddings.similarity.SimilarityIndex.batch_similarity`.
* :func:`object_mask_similarity` and :func:`dense_concept_edges` — the
  batched similarity over every candidate's id with an object-dtype
  same-id mask, and the concept edges built from whole n x n weight,
  mask, stable argsort and visit arrays: the definition the grouped
  selection of :func:`repro.core.coherence._concept_edges` must
  reproduce edge for edge (order, orientation, weight).
* :func:`build_mention_groups_reference`, :func:`resolve_pronouns_reference`
  and :func:`extract_relations_reference` — grouping, co-reference and
  Open IE with their all-pairs span scans: every short-text candidate
  against every other, every fallback member and canopy segment against
  the whole inventory, every leftover against every assigned span, every
  pronoun against every region, every sentence against every region.
  The :class:`repro.nlp.spans.SpanIndex` lookups replace those scans and
  must give the same groups, antecedents and relations.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.canopies import (
    _MAX_CANOPIES,
    _MAX_CHAIN_FOR_FULL_ENUMERATION,
    Canopy,
    MentionGroup,
    _chain_short_mentions,
)
from repro.core.coherence import MAJOR_ROOT, CandidateNode, CoherenceGraph
from repro.core.deadline import Deadline
from repro.core.splitting import split_tree
from repro.core.tree_cover import (
    BoundTooSmallError,
    TreeCoverResult,
    _attach_subtrees,
)
from repro.embeddings.similarity import SimilarityIndex
from repro.graph.mst import kruskal_mst, minimum_spanning_forest
from repro.graph.tree import RootedTree
from repro.graph.weighted_graph import WeightedGraph
from repro.nlp import pos
from repro.nlp.coref import _PERSON_PRONOUNS, _SUBJECT_PRONOUNS, _looks_like_person
from repro.nlp.features import contains_feature
from repro.nlp.openie import ExtractedRelation, RelationExtractor
from repro.nlp.spans import Sentence, Span, Token, spans_overlap


_Node = Union[Span, CandidateNode]


# ---------------------------------------------------------------------------
# the coherence graph as objects
# ---------------------------------------------------------------------------

def materialise(coherence: CoherenceGraph) -> WeightedGraph:
    """The coherence graph as a :class:`WeightedGraph`.

    Each mention, then an ``add_edge`` to each of its candidates with
    the candidate's local weight; then one ``add_edge`` per concept
    edge, in emission order and orientation.  Node insertion order and
    every adjacency order follow from that sequence.
    """
    graph = WeightedGraph()
    local = iter(coherence.local.tolist())
    for mention, nodes in coherence.candidates_by_mention.items():
        graph.add_node(mention)
        for node in nodes:
            graph.add_edge(mention, node, next(local))
    cands = coherence.candidates
    for i, j, w in zip(
        coherence.u.tolist(), coherence.v.tolist(), coherence.w.tolist()
    ):
        graph.add_edge(cands[i], cands[j], w)
    return graph


def concept_edge_triples(
    coherence: CoherenceGraph,
) -> List[Tuple[CandidateNode, CandidateNode, float]]:
    """The concept edge arrays as ``(node, node, weight)`` triples."""
    cands = coherence.candidates
    return [
        (cands[i], cands[j], w)
        for i, j, w in zip(
            coherence.u.tolist(), coherence.v.tolist(), coherence.w.tolist()
        )
    ]


def edge_triples(edges) -> List[Tuple[_Node, _Node, float]]:
    """:class:`repro.core.coherence.EdgeArrays` as object triples."""
    nodes = edges.graph.nodes
    return [
        (nodes[i], nodes[j], w)
        for i, j, w in zip(edges.u.tolist(), edges.v.tolist(), edges.w.tolist())
    ]


def object_scaffold(coherence: CoherenceGraph):
    """The contracted edge stream and Kruskal order, read off objects.

    Returns ``(edge_u, edge_v, weights, sorted_order)``: node ids 0 for
    the major root and 1..n for the candidates, root edges in id order,
    then the candidate-candidate edges of ``graph.edges()`` grouped by
    their lower id, and the order sorted on (weight, repr, repr).
    """
    graph = materialise(coherence)
    cand_ids: Dict[CandidateNode, int] = {}
    cands: List[CandidateNode] = []
    owners: List[Span] = []
    for mention, nodes in coherence.candidates_by_mention.items():
        for node in nodes:
            cand_ids[node] = len(cands) + 1
            cands.append(node)
            owners.append(mention)
    reprs = [repr(MAJOR_ROOT)]
    reprs.extend(repr(node) for node in cands)
    edge_u: List[int] = []
    edge_v: List[int] = []
    edge_w: List[float] = []
    for node, mention in zip(cands, owners):
        weight = graph.get_weight(mention, node)
        if weight is not None:
            edge_u.append(0)
            edge_v.append(cand_ids[node])
            edge_w.append(weight)
    stream: List[Tuple[int, int, float]] = []
    for u, v, w in graph.edges():
        iu = cand_ids.get(u)
        if iu is None:
            continue
        iv = cand_ids.get(v)
        if iv is None:
            continue
        stream.append((iu, iv, w) if iu < iv else (iv, iu, w))
    stream.sort(key=lambda e: e[0])
    for lo, hi, w in stream:
        edge_u.append(lo)
        edge_v.append(hi)
        edge_w.append(w)
    sorted_order = sorted(
        range(len(edge_w)),
        key=lambda k: (edge_w[k], reprs[edge_u[k]], reprs[edge_v[k]]),
    )
    return edge_u, edge_v, edge_w, sorted_order


def shared_edges_reference(
    coherence: CoherenceGraph, bound: float
) -> List[Tuple[_Node, _Node, float]]:
    """The shared pool, walked off the dict adjacency of the graph.

    For each mention and each of its candidates: the candidate's own
    mention edge, then for each other mention its first edge of least
    weight into that mention's candidates; edges heavier than *bound*
    are dropped.
    """
    edges = []
    graph = materialise(coherence)
    for mention, nodes in coherence.candidates_by_mention.items():
        for node in nodes:
            weight = graph.get_weight(mention, node)
            if weight is not None and weight <= bound:
                edges.append((mention, node, weight))
            best: dict = {}
            for neighbour, w in graph.neighbours(node).items():
                if not isinstance(neighbour, CandidateNode):
                    continue
                key = neighbour.mention
                current = best.get(key)
                if current is None or w < current[1]:
                    best[key] = (neighbour, w)
            for neighbour, w in best.values():
                if w <= bound:
                    edges.append((node, neighbour, w))
    return edges


def _mention_length(edge: Tuple[_Node, _Node, float]) -> int:
    u, v, _ = edge
    if isinstance(u, Span) and isinstance(v, CandidateNode):
        return -u.length
    if isinstance(v, Span) and isinstance(u, CandidateNode):
        return -v.length
    return 0


def sorted_cover_edges_reference(
    cover: TreeCoverResult,
    extra_edges: List[Tuple[_Node, _Node, float]],
) -> List[Tuple[_Node, _Node, float]]:
    """The scan's edge pool, deduped on the ``repr`` of the endpoints.

    A key keeps its first push's list position and the first push of
    least weight; the pool sorts on (weight, mention length, repr,
    repr), stable over list position.
    """
    reprs: Dict[_Node, str] = {}

    def repr_of(node: _Node) -> str:
        cached = reprs.get(node)
        if cached is None:
            cached = reprs[node] = repr(node)
        return cached

    index: Dict[Tuple[str, str], int] = {}
    edges: List[Tuple[_Node, _Node, float]] = []

    def push(u: _Node, v: _Node, weight: float) -> None:
        ru, rv = repr_of(u), repr_of(v)
        key = (ru, rv) if ru <= rv else (rv, ru)
        at = index.get(key)
        if at is None:
            index[key] = len(edges)
            edges.append((u, v, weight))
        elif weight < edges[at][2]:
            edges[at] = (u, v, weight)

    for tree in cover.trees.values():
        for edge in tree.edges():
            push(edge.parent, edge.child, edge.weight)
    for u, v, weight in extra_edges:
        push(u, v, weight)

    edges.sort(
        key=lambda e: (e[2], _mention_length(e), repr_of(e[0]), repr_of(e[1]))
    )
    return edges


# ---------------------------------------------------------------------------
# Algorithm 1 over object graphs
# ---------------------------------------------------------------------------

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

    pruned = materialise(coherence).pruned(bound)
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


def optimal_cover_cost(coherence: CoherenceGraph) -> float:
    """The minimum M-rooted tree cover cost, by exhaustive search.

    For tiny graphs (a few mentions, up to ~7 candidates).  Every
    candidate is assigned to one mention's tree; a mention's tree is the
    lightest tree over the mention, its assigned candidates and any
    further candidates (the MST of each such node set, over the
    mention's own edges and the concept edges).  The cost is the
    heaviest tree, minimised over assignments.  Trees that pass through
    another mention are not considered, so this can only over-estimate
    the optimum: a bound at this value is still at least OPT.
    """
    graph = materialise(coherence)
    cands = coherence.candidates
    n = len(cands)
    full = (1 << n) - 1
    lightest_over = []
    for mention in coherence.mentions:
        # weight[S]: the MST weight over the mention plus candidate set S.
        weight = [float("inf")] * (full + 1)
        for members in range(full + 1):
            nodes = [mention] + [cands[k] for k in range(n) if members >> k & 1]
            sub = graph.subgraph(nodes)
            if sub.is_connected():
                weight[members] = kruskal_mst(sub).total_weight()
        # best[S]: the lightest tree containing at least S.
        best = list(weight)
        for members in range(full, -1, -1):
            for k in range(n):
                if not members >> k & 1:
                    best[members] = min(best[members], best[members | 1 << k])
        lightest_over.append(best)
    optimum = float("inf")
    for owners in itertools.product(range(len(coherence.mentions)), repeat=n):
        masks = [0] * len(coherence.mentions)
        for k, owner in enumerate(owners):
            masks[owner] |= 1 << k
        cost = max(best[mask] for best, mask in zip(lightest_over, masks))
        optimum = min(optimum, cost)
    return optimum


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


def object_mask_similarity(
    similarity: SimilarityIndex, concept_ids: Sequence[str]
) -> np.ndarray:
    """The batched similarity block with an object-dtype same-id mask.

    Each cell is the per-pair ``einsum`` reduction of its two rows, so
    an n x n block over every candidate's id holds, cell for cell, the
    values of the block over the distinct ids.
    """
    ids = list(concept_ids)
    if not ids:
        return np.zeros((0, 0), dtype=np.float64)
    vectors, _ = similarity._store.rows(ids)
    matrix = vectors.astype(np.float64)
    sims = np.clip(np.einsum("ik,jk->ij", matrix, matrix), -1.0, 1.0)
    id_array = np.array(ids, dtype=object)
    sims[id_array[:, None] == id_array[None, :]] = 1.0
    return sims


def dense_concept_edges(
    all_nodes: List[CandidateNode],
    priors: Dict[CandidateNode, float],
    similarity: SimilarityIndex,
    max_concept_distance: float = 1.0,
    predicate_similarity_scale: float = 0.75,
    coherence_prior_blend: float = 0.06,
    max_neighbours: Optional[int] = 12,
) -> List[Tuple[CandidateNode, CandidateNode, float]]:
    """Concept-concept edges from whole n x n arrays, in insertion order.

    Row i visits its first ``max_neighbours`` admissible columns in the
    order of a stable argsort of its weights, that is by ``(w, j)``
    (every admissible column, in ``j`` order, when ``max_neighbours`` is
    None or at least n).  Each unordered pair keeps its first visit in
    row-major order (which fixes its position and orientation) and the
    minimum weight over the directions that visited it, read off n x n
    ``visited`` / ``final`` arrays.
    """
    n = len(all_nodes)
    if n < 2:
        return []
    sims = object_mask_similarity(
        similarity, [node.concept_id for node in all_nodes]
    )
    is_predicate = np.array([node.kind == "predicate" for node in all_nodes])
    predicate_pair = is_predicate[:, None] | is_predicate[None, :]
    sims = np.where(predicate_pair, sims * predicate_similarity_scale, sims)
    local = np.array([1.0 - priors[node] for node in all_nodes])
    blend = coherence_prior_blend * (local[:, None] + local[None, :])
    weights = np.clip(1.0 - sims + blend, 1e-9, max_concept_distance)

    mention_index: Dict[Span, int] = {}
    mention_of = np.empty(n, dtype=np.int64)
    starts = np.empty(n, dtype=np.int64)
    ends = np.empty(n, dtype=np.int64)
    sentences = np.empty(n, dtype=np.int64)
    for i, node in enumerate(all_nodes):
        mention_of[i] = mention_index.setdefault(node.mention, len(mention_index))
        starts[i] = node.mention.token_start
        ends[i] = node.mention.token_end
        sentences[i] = node.mention.sentence_index
    same_mention = mention_of[:, None] == mention_of[None, :]
    overlapping = (starts[:, None] < ends[None, :]) & (
        starts[None, :] < ends[:, None]
    )
    same_sentence = sentences[:, None] == sentences[None, :]
    entity_pair = ~is_predicate[:, None] & ~is_predicate[None, :]
    concept_index: Dict[str, int] = {}
    concept_of = np.array(
        [
            concept_index.setdefault(node.concept_id, len(concept_index))
            for node in all_nodes
        ]
    )
    same_concept = concept_of[:, None] == concept_of[None, :]
    allowed = (
        ~same_mention
        & ~overlapping
        & ~same_concept
        & (entity_pair | same_sentence)
    )
    weights = np.where(allowed, weights, np.inf)
    if max_neighbours is None or max_neighbours >= n:
        neighbour_sets = [
            np.nonzero(np.isfinite(weights[i]))[0] for i in range(n)
        ]
    else:
        order = np.argsort(weights, axis=1, kind="stable")
        neighbour_sets = [order[i, :max_neighbours] for i in range(n)]

    rows = np.repeat(np.arange(n), [len(s) for s in neighbour_sets])
    cols = np.concatenate(neighbour_sets)
    valid = (rows != cols) & np.isfinite(weights[rows, cols])
    rows, cols = rows[valid], cols[valid]
    pair_keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    _, first_visit = np.unique(pair_keys, return_index=True)
    first_visit.sort()
    visited = np.zeros((n, n), dtype=bool)
    visited[rows, cols] = True
    final = np.where(
        visited & visited.T, np.minimum(weights, weights.T), weights
    )
    sources, targets = rows[first_visit], cols[first_visit]
    edge_weights = final[sources, targets]
    return [
        (all_nodes[i], all_nodes[j], w)
        for i, j, w in zip(
            sources.tolist(), targets.tolist(), edge_weights.tolist()
        )
    ]


# ---------------------------------------------------------------------------
# grouping (Algorithm 4) with all-pairs span scans
# ---------------------------------------------------------------------------

def build_mention_groups_reference(
    tokens: List[Token],
    noun_spans: List[Span],
    relation_spans: List[Span],
    has_candidates=None,
) -> List[MentionGroup]:
    """:func:`repro.core.canopies.build_mention_groups`, scanning all pairs."""
    inventory = sorted(noun_spans, key=lambda s: (s.token_start, s.token_end))
    short_mentions = _select_short_text_mentions(tokens, inventory)
    chains = _chain_short_mentions(tokens, short_mentions)

    groups: List[MentionGroup] = []
    assigned: Set[Span] = set()
    for chain in chains:
        canopies = _generate_canopies(chain, inventory)
        if has_candidates is not None:
            canopies = _add_fallback_canopies(canopies, inventory, has_candidates)
            canopies = tuple(
                Canopy(
                    c.members,
                    all(has_candidates(m) for m in c.members),
                )
                for c in canopies
            )
        group = MentionGroup(len(groups), tuple(chain), canopies)
        groups.append(group)
        assigned |= group.spans()

    for span in inventory:
        if span in assigned:
            continue
        if any(spans_overlap(span, other) for other in assigned):
            continue
        groups.append(MentionGroup(len(groups), (span,), (Canopy((span,)),)))
        assigned.add(span)

    for span in relation_spans:
        groups.append(MentionGroup(len(groups), (span,), (Canopy((span,)),)))
    return groups


def _add_fallback_canopies(
    canopies: Tuple[Canopy, ...],
    inventory: List[Span],
    has_candidates,
) -> Tuple[Canopy, ...]:
    result: List[Canopy] = list(canopies)
    seen: Set[Tuple[Span, ...]] = {c.members for c in canopies}
    for canopy in canopies:
        replaced: List[Span] = []
        changed = False
        for member in canopy.members:
            if has_candidates(member):
                replaced.append(member)
                continue
            inner = [
                s
                for s in inventory
                if member.covers(s)
                and not s.same_range(member)
                and has_candidates(s)
            ]
            if inner:
                inner.sort(key=lambda s: (-s.length, -s.token_start))
                replaced.append(inner[0])
                changed = True
            else:
                replaced.append(member)
        if changed:
            key = tuple(replaced)
            if key not in seen:
                seen.add(key)
                result.append(Canopy(key))
    return tuple(result)


def _select_short_text_mentions(
    tokens: List[Token], inventory: List[Span]
) -> List[Span]:
    feature_free = [s for s in inventory if not contains_feature(tokens, s)]
    maximal: List[Span] = []
    for span in feature_free:
        if any(other is not span and other.covers(span) for other in feature_free):
            continue
        maximal.append(span)
    maximal.sort(key=lambda s: s.token_start)
    return maximal


def _generate_canopies(
    chain: Sequence[Span], inventory: List[Span]
) -> Tuple[Canopy, ...]:
    if len(chain) == 1:
        return (Canopy((chain[0],)),)
    if len(chain) > _MAX_CHAIN_FOR_FULL_ENUMERATION:
        canopies = [Canopy(tuple(chain))]
        full = _segment_spans(chain, 0, len(chain) - 1, inventory)
        for span in full[:1]:
            canopies.append(Canopy((span,)))
        return tuple(canopies)

    canopies: List[Canopy] = []
    seen: Set[Tuple[Span, ...]] = set()
    for members in _partitions(chain, inventory):
        key = tuple(members)
        if key not in seen:
            seen.add(key)
            canopies.append(Canopy(key))
        if len(canopies) >= _MAX_CANOPIES:
            break
    return tuple(canopies)


def _partitions(
    chain: Sequence[Span], inventory: List[Span]
) -> List[List[Span]]:
    n = len(chain)
    results: List[List[Span]] = []

    def recurse(start: int, acc: List[Span]) -> None:
        if start == n:
            results.append(list(acc))
            return
        for end in range(start, n):
            if end == start:
                acc.append(chain[start])
                recurse(start + 1, acc)
                acc.pop()
            else:
                for merged in _segment_spans(chain, start, end, inventory):
                    acc.append(merged)
                    recurse(end + 1, acc)
                    acc.pop()

    recurse(0, [])
    return results


def _segment_spans(
    chain: Sequence[Span], start: int, end: int, inventory: List[Span]
) -> List[Span]:
    left = chain[start]
    right = chain[end]
    allowed_starts = {left.token_start, left.token_start + 1, left.token_start - 1}
    matches = [
        span
        for span in inventory
        if span.token_end == right.token_end
        and span.token_start in allowed_starts
        and span.token_start < right.token_start
    ]
    matches.sort(key=lambda s: (-s.length, s.token_start))
    return matches[:2]


# ---------------------------------------------------------------------------
# co-reference and Open IE with per-pronoun / per-sentence scans
# ---------------------------------------------------------------------------

def resolve_pronouns_reference(
    tokens: List[Token], tags: List[str], regions: List[Span]
) -> Dict[int, Span]:
    """:func:`repro.nlp.coref.resolve_pronouns`, rescanning every region
    for each pronoun (the scan stops at the first region, by start, that
    ends after the pronoun)."""
    resolved: Dict[int, Span] = {}
    sorted_regions = sorted(regions, key=lambda r: r.token_start)
    for token, tag in zip(tokens, tags):
        if tag != pos.PRON or token.lower not in _SUBJECT_PRONOUNS:
            continue
        best: Optional[Span] = None
        for region in sorted_regions:
            if region.token_end > token.index:
                break
            if token.lower in _PERSON_PRONOUNS and not _looks_like_person(
                tokens, region
            ):
                continue
            best = region
        if best is not None:
            resolved[token.index] = best
    return resolved


def extract_relations_reference(
    extractor: RelationExtractor,
    text: str,
    tokens: List[Token],
    tags: List[str],
    sentences: List[Sentence],
    regions: List[Span],
) -> List[ExtractedRelation]:
    """:meth:`RelationExtractor.extract`, filtering every region once per
    sentence."""
    relations: List[ExtractedRelation] = []
    for sentence in sentences:
        in_sentence = [r for r in regions if r.sentence_index == sentence.index]
        in_sentence.sort(key=lambda r: r.token_start)
        relations.extend(
            extractor._sentence_relations(text, tokens, tags, in_sentence)
        )
    return relations
