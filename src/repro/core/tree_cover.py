"""Coherence tree cover derivation (the paper's Algorithm 1).

Given the knowledge coherence graph and a bound B, derive an M-rooted
coherence tree cover of cost at most 4B, or fail with
:class:`BoundTooSmallError` when B is infeasible:

(a) prune edges heavier than B;
(b) contract all mention nodes into a major root r (edge ``(r, c)`` takes
    the weight of c's own mention edge);
(c) Kruskal MST over the contracted graph — disconnection means B is too
    small;
(d) decompose r back into the mentions: every component of MST - r hangs
    off r through exactly one edge (the MST is acyclic), and that edge's
    candidate node identifies the owning mention;
(e) split each mention tree into a leftover (<= B, contains the mention)
    and subtrees in (B, 2B] (:mod:`repro.core.splitting`);
(f) assign subtrees to mentions by Hopcroft--Karp maximum matching, where
    a mention may adopt a subtree whose pruned-graph distance from it lies
    in (0, B]; each adopted subtree is connected through that shortest
    path.  An unmatched subtree again means B is too small.

The paper sets B = |M| for linking (Sec. 6.1).  Distances are bounded
by 1, so the contracted graph is always connected at that bound, but
step (f) can still fail: a document with fewer mentions than split-off
subtrees (one mention with several far-fetched candidates, say) has too
few mentions to adopt them all.  With the default bound the derivation
therefore doubles B until the cover succeeds, which it must once B
exceeds the heaviest mention tree (nothing is split any more).  An
explicit bound is taken as given: it raises on failure, which is what
the binary search (:func:`minimal_feasible_bound`) probes.

Steps (a)-(d) run over :class:`_CoverScaffold`, a flat integer-id edge
array built once per coherence graph: pruning is a numpy mask, the
contraction is implicit in how the arrays are laid out, and Kruskal runs
over a precomputed deterministic edge order with an integer union-find.
The scaffold reproduces the edge sequences of the object-graph
formulation (explicit contracted graph, object-keyed Kruskal) exactly —
stream order, orientation and repr tie-breaking included — so the
derived cover is byte-identical to it; the test suite keeps that
formulation as an oracle and pins the two against each other.  Step (f)
still builds the real pruned graph, but only lazily, in the rare case a
split actually produced leftover subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.coherence import CandidateNode, CoherenceGraph
from repro.core.deadline import Deadline
from repro.core.splitting import split_tree
from repro.graph.matching import hopcroft_karp
from repro.graph.mst import CHECK_EVERY as MST_CHECK_EVERY
from repro.graph.paths import dijkstra
from repro.graph.tree import RootedTree
from repro.graph.weighted_graph import WeightedGraph
from repro.nlp.spans import Span

# Sentinel for the contracted major root node of Step (b).
MAJOR_ROOT = ("__tenet_major_root__",)


class BoundTooSmallError(ValueError):
    """Raised when no tree cover of cost <= 4B exists for the given B."""


@dataclass
class TreeCoverResult:
    """An M-rooted coherence tree cover."""

    trees: Dict[Span, RootedTree]
    bound: float
    subtree_count: int = 0

    def cost(self) -> float:
        """The paper's cover cost: the maximum tree weight."""
        if not self.trees:
            return 0.0
        return max(tree.weight() for tree in self.trees.values())

    def tree_for(self, mention: Span) -> RootedTree:
        return self.trees[mention]

    @property
    def total_edges(self) -> int:
        return sum(tree.edge_count for tree in self.trees.values())

    def isolated_mentions(self) -> List[Span]:
        """Mentions whose tree is a singleton (no coherent candidates)."""
        return [m for m, tree in self.trees.items() if tree.is_singleton()]

    def statistics(self) -> "CoverStatistics":
        """Structural summary of the cover (for diagnostics/analysis)."""
        sizes = sorted(
            (tree.node_count for tree in self.trees.values()), reverse=True
        )
        return CoverStatistics(
            tree_count=len(self.trees),
            singleton_count=len(self.isolated_mentions()),
            total_edges=self.total_edges,
            max_tree_weight=self.cost(),
            largest_tree_nodes=sizes[0] if sizes else 0,
            bound=self.bound,
            subtree_count=self.subtree_count,
        )


@dataclass(frozen=True)
class CoverStatistics:
    """Structural summary of an M-rooted tree cover."""

    tree_count: int
    singleton_count: int
    total_edges: int
    max_tree_weight: float
    largest_tree_nodes: int
    bound: float
    subtree_count: int

    @property
    def isolation_rate(self) -> float:
        """Fraction of mentions standing alone — the sparse-coherence
        signature the paper's relaxation is designed for."""
        return (
            self.singleton_count / self.tree_count if self.tree_count else 0.0
        )


def derive_tree_cover(
    coherence: CoherenceGraph,
    bound: Optional[float] = None,
    deadline: Optional[Deadline] = None,
) -> TreeCoverResult:
    """Run Algorithm 1 on *coherence* with bound B.

    ``bound=None`` applies the paper's default B = |M|, doubled until
    the cover succeeds (see the module docstring); an explicit *bound*
    raises :class:`BoundTooSmallError` when it is infeasible.  With a
    *deadline*, the Kruskal edge loop and the per-mention shortest-path
    sweep of step (f) — the two loops that dominate the solve — check
    the token cooperatively and raise
    :class:`~repro.core.deadline.DeadlineExceeded` on expiry.
    """
    if bound is not None and bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    scaffold = _CoverScaffold(coherence)
    if bound is not None:
        return _derive_with_scaffold(coherence, scaffold, bound, deadline)
    bound = float(max(len(coherence.mentions), 1))
    while True:
        try:
            return _derive_with_scaffold(coherence, scaffold, bound, deadline)
        except BoundTooSmallError:
            bound *= 2.0


# ---------------------------------------------------------------------------
# the integer-id scaffold
# ---------------------------------------------------------------------------

class _CoverScaffold:
    """Flat edge arrays for steps (a)-(d), built once per coherence graph.

    Node ids: 0 is :data:`MAJOR_ROOT`, 1..n the candidate nodes in
    ``candidates_by_mention`` iteration order.  The edge arrays hold the
    contracted graph of Step (b) in the exact sequence and orientation
    its :class:`~repro.graph.weighted_graph.WeightedGraph` form would
    emit from ``edges()`` (root edges in candidate-id order, then
    candidate-candidate edges grouped by lower-id endpoint in
    edge-stream order), and ``sorted_order`` is the Kruskal ordering —
    non-decreasing weight, endpoint reprs breaking ties, stable over
    that emission sequence.  Everything here is bound-independent:
    Step (a) is a weight mask, so one scaffold serves every probe of
    the minimal-bound binary search.
    """

    def __init__(self, coherence: CoherenceGraph) -> None:
        cand_ids: Dict[CandidateNode, int] = {}
        cands: List[CandidateNode] = []
        owners: List[Span] = []
        for mention, nodes in coherence.candidates_by_mention.items():
            for node in nodes:
                cand_ids[node] = len(cands) + 1
                cands.append(node)
                owners.append(mention)
        self.cands = cands
        self.owners = owners
        reprs = [repr(MAJOR_ROOT)]
        reprs.extend(repr(node) for node in cands)
        self.reprs = reprs

        graph = coherence.graph
        edge_u: List[int] = []
        edge_v: List[int] = []
        edge_w: List[float] = []
        # Root edges of the contraction: candidate <-> major root with
        # the weight of the candidate's own mention edge, in id order.
        for node, mention in zip(cands, owners):
            weight = graph.get_weight(mention, node)
            if weight is not None:
                edge_u.append(0)
                edge_v.append(cand_ids[node])
                edge_w.append(weight)
        # Candidate-candidate edges.  The filtered edge stream of the
        # coherence graph is exactly what the pruned copy would emit;
        # the contracted graph re-emits it grouped by the lower-id
        # endpoint with stream order within each group, which a stable
        # sort on the lower id reproduces.
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
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.weights = np.asarray(edge_w, dtype=np.float64)
        # The deterministic Kruskal order, computed once.  Filtering a
        # stably sorted sequence equals sorting the filtered sequence,
        # so a bound never needs a re-sort — only the mask.
        self.sorted_order = sorted(
            range(len(edge_w)),
            key=lambda k: (edge_w[k], reprs[edge_u[k]], reprs[edge_v[k]]),
        )

    @property
    def node_count(self) -> int:
        """Contracted node count: the major root plus every candidate."""
        return len(self.cands) + 1

    def connected_within(self, bound: float) -> bool:
        """Whether the contracted graph spans under ``weight <= bound``.

        The cheap feasibility precheck of the binary search: identical
        to the Kruskal disconnection verdict, without deriving trees.
        """
        n = self.node_count
        if n == 1:
            return True
        parent = list(range(n))
        components = n
        in_bound = self.weights <= bound
        for k in np.nonzero(in_bound)[0]:
            ru = _find(parent, self.edge_u[k])
            rv = _find(parent, self.edge_v[k])
            if ru != rv:
                parent[ru] = rv
                components -= 1
                if components == 1:
                    return True
        return components == 1


def _find(parent: List[int], x: int) -> int:
    """Union-find root with path halving."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _derive_with_scaffold(
    coherence: CoherenceGraph,
    scaffold: _CoverScaffold,
    bound: float,
    deadline: Optional[Deadline],
) -> TreeCoverResult:
    check = None if deadline is None else (lambda: deadline.check("tree_cover"))

    # Step (a): edge pruning, as a mask over the scaffold's weights.
    in_bound = scaffold.weights <= bound

    # Steps (b)+(c): Kruskal over the (implicitly) contracted graph.
    # The contracted graph may legitimately be missing candidate nodes
    # whose every edge was pruned — that is a failure (the node could
    # never be covered within B), matching the paper's "B is too small"
    # warning for disconnected graphs.
    edge_u, edge_v, weights = scaffold.edge_u, scaffold.edge_v, scaffold.weights
    parent = list(range(scaffold.node_count))
    accepted: List[int] = []
    processed = 0
    for k in scaffold.sorted_order:
        if not in_bound[k]:
            continue
        if check is not None and processed % MST_CHECK_EVERY == 0:
            check()
        processed += 1
        ru = _find(parent, edge_u[k])
        rv = _find(parent, edge_v[k])
        if ru != rv:
            parent[ru] = rv
            accepted.append(k)
    if len(accepted) != scaffold.node_count - 1:
        raise BoundTooSmallError(
            f"contracted coherence graph is disconnected at B={bound}"
        )

    # Step (d): decompose the major root back into mentions.  Root edges
    # graft in Kruskal acceptance order; the forest adjacency replays
    # the edge emission of the MST copy so the repr-sorted DFS of the
    # reference implementation is reproduced tie-for-tie.
    trees: Dict[Span, RootedTree] = {
        mention: RootedTree(mention) for mention in coherence.mentions
    }
    root_accepted = [k for k in accepted if edge_u[k] == 0]
    cc_accepted = [k for k in accepted if edge_u[k] != 0]
    cc_accepted.sort(key=lambda k: edge_u[k])
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for k in cc_accepted:
        u, v, w = edge_u[k], edge_v[k], float(weights[k])
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    cands, reprs = scaffold.cands, scaffold.reprs
    for k in root_accepted:
        anchor_id = edge_v[k]
        mention = scaffold.owners[anchor_id - 1]
        tree = trees[mention]
        tree.add_edge(mention, cands[anchor_id - 1], float(weights[k]))
        stack = [anchor_id]
        visited = {anchor_id}
        while stack:
            node_id = stack.pop()
            node = cands[node_id - 1]
            for nbr_id, w in sorted(
                adjacency.get(node_id, ()), key=lambda p: reprs[p[0]]
            ):
                if nbr_id in visited or cands[nbr_id - 1] in tree:
                    continue
                visited.add(nbr_id)
                tree.add_edge(node, cands[nbr_id - 1], w)
                stack.append(nbr_id)

    # Step (e): tree splitting.
    split: Dict[Span, RootedTree] = {}
    leftover_subtrees: List[RootedTree] = []
    for mention, tree in trees.items():
        leftover, subtrees = split_tree(tree, bound)
        split[mention] = leftover
        leftover_subtrees.extend(subtrees)

    if not leftover_subtrees:
        return TreeCoverResult(split, bound, 0)

    # Step (f): maximum matching of subtrees to mentions.  Only now is
    # the real pruned graph needed (for shortest paths), so it is built
    # lazily here instead of eagerly for every derivation.
    pruned = coherence.graph.pruned(bound)
    _attach_subtrees(coherence, pruned, split, leftover_subtrees, bound, check)
    return TreeCoverResult(split, bound, len(leftover_subtrees))


# ---------------------------------------------------------------------------
# step (f)
# ---------------------------------------------------------------------------

def _attach_subtrees(
    coherence: CoherenceGraph,
    pruned: WeightedGraph,
    trees: Dict[Span, RootedTree],
    subtrees: List[RootedTree],
    bound: float,
    check: Optional[Callable[[], None]] = None,
) -> None:
    """Step (f): match subtrees to mentions and graft them via shortest paths."""
    eligibility: Dict[int, List[Span]] = {idx: [] for idx in range(len(subtrees))}
    paths: Dict[Tuple[int, Span], List] = {}
    subtree_node_sets = [subtree.node_set() for subtree in subtrees]
    for mention in coherence.mentions:
        if check is not None:
            check()
        if mention not in pruned:
            continue
        distances, predecessors = dijkstra(pruned, mention, max_distance=bound)
        for idx, subtree_nodes in enumerate(subtree_node_sets):
            best_node = None
            best_dist = None
            for node in subtree_nodes:
                dist = distances.get(node)
                if dist is None or dist <= 0.0:
                    continue
                if best_dist is None or dist < best_dist:
                    best_dist = dist
                    best_node = node
            if best_node is None:
                continue
            eligibility[idx].append(mention)
            path = [best_node]
            while path[-1] != mention:
                path.append(predecessors[path[-1]])
            path.reverse()
            paths[(idx, mention)] = path

    matching = hopcroft_karp(list(eligibility), eligibility)
    if len(matching) < len(subtrees):
        raise BoundTooSmallError(
            f"{len(subtrees) - len(matching)} subtrees cannot be matched to "
            f"any mention within B={bound}"
        )
    for idx, mention in matching.items():
        _merge_into_tree(trees[mention], subtrees[idx], paths[(idx, mention)], pruned)


def _merge_into_tree(
    tree: RootedTree,
    subtree: RootedTree,
    path: List,
    pruned: WeightedGraph,
) -> None:
    """Graft *subtree* onto *tree* through the connecting *path*.

    The merged structure may momentarily contain nodes already present in
    the leftover tree (trees can share nodes); the rebuild keeps the
    result a tree by taking the union graph's spanning structure rooted
    at the mention.
    """
    union = tree.to_graph()
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        if not union.has_edge(u, v):
            union.add_node(u)
            union.add_node(v)
            union.add_edge(u, v, pruned.weight(u, v))
    for edge in subtree.edges():
        if not union.has_edge(edge.parent, edge.child):
            union.add_node(edge.parent)
            union.add_node(edge.child)
            union.add_edge(edge.parent, edge.child, edge.weight)
    rebuilt = RootedTree.from_graph(union, tree.root)
    tree.adopt(rebuilt)


# ---------------------------------------------------------------------------
# bound search
# ---------------------------------------------------------------------------

def minimal_feasible_bound(
    coherence: CoherenceGraph,
    tolerance: float = 1e-3,
    max_bound: Optional[float] = None,
) -> float:
    """Binary-search the smallest B for which Algorithm 1 succeeds.

    The approximation guarantee then gives a cover of cost at most 4B*
    with B* <= the optimum cover cost.  Used by the ablation benchmarks;
    the production linker keeps the paper's B = |M| (doubled on failure).

    One :class:`_CoverScaffold` — the sorted edge array, cached reprs
    and union-find id space — is shared by every probe: each probe
    first runs a connectivity check over the masked edges (the common
    infeasibility), and only a probe that passes it derives the full
    cover (which can still fail in subtree matching).
    """
    if max_bound is None:
        max_bound = max(float(len(coherence.mentions)), 1.0)
    scaffold = _CoverScaffold(coherence)
    lo, hi = 0.0, max_bound
    if not _feasible(coherence, scaffold, hi):
        raise BoundTooSmallError(
            f"no feasible bound up to max_bound={max_bound}"
        )
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if mid <= 0.0:
            break
        if _feasible(coherence, scaffold, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _feasible(
    coherence: CoherenceGraph, scaffold: _CoverScaffold, bound: float
) -> bool:
    if not scaffold.connected_within(bound):
        return False
    try:
        _derive_with_scaffold(coherence, scaffold, bound, None)
        return True
    except BoundTooSmallError:
        return False
