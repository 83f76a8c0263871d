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

Steps (a)-(d) run over :class:`_CoverScaffold`, integer edge arrays
taken from the coherence graph's own arrays once per graph: pruning is
a numpy mask, the contraction is implicit in how the arrays are laid
out, and Kruskal runs over one precomputed deterministic edge order
(``np.lexsort`` on weight and endpoint repr ranks) with an integer
union-find.  The scaffold reproduces the edge sequences of the
object-graph formulation (explicit contracted graph, object-keyed
Kruskal) exactly — stream order, orientation and repr tie-breaking
included — so the derived cover is byte-identical to it; the test suite
keeps that formulation as an oracle and pins the two against each other.
Step (f) is the one step that needs an object graph (Dijkstra over the
pruned graph, in :mod:`repro.graph.paths`).  It is built from the arrays
only when a split leaves subtrees to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.coherence import CoherenceGraph
from repro.core.deadline import Deadline
from repro.core.splitting import split_tree
from repro.graph.matching import hopcroft_karp
from repro.graph.mst import CHECK_EVERY as MST_CHECK_EVERY
from repro.graph.paths import dijkstra
from repro.graph.tree import RootedTree
from repro.graph.weighted_graph import WeightedGraph
from repro.nlp.spans import Span

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
    """The contracted graph of Step (b) as edge arrays, built once per
    coherence graph.

    Node ids: 0 is :data:`~repro.core.coherence.MAJOR_ROOT`, ``k + 1``
    the coherence graph's candidate ``k``.  The edges come in the order
    the object form of the contracted graph emits them: the root edges
    ``(0, k + 1)`` with the weight of candidate k's own mention edge,
    then the concept edges oriented (low id, high id) and grouped by
    the low id, in emission order within each group.  ``sorted_order``
    is the Kruskal order: non-decreasing weight, endpoint repr ranks
    breaking ties, stable over that sequence.  Everything here is
    bound-independent: Step (a) is a weight mask, so one scaffold
    serves every probe of the minimal-bound binary search.
    """

    def __init__(self, coherence: CoherenceGraph) -> None:
        n = len(coherence.candidates)
        self.cands = coherence.candidates
        self.owners = [coherence.mentions[i] for i in coherence.owner.tolist()]
        low = np.minimum(coherence.u, coherence.v)
        high = np.maximum(coherence.u, coherence.v)
        by_low = np.argsort(low, kind="stable")
        self.edge_u = np.concatenate((np.zeros(n, dtype=np.int64), low[by_low] + 1))
        self.edge_v = np.concatenate((np.arange(1, n + 1), high[by_low] + 1))
        self.weights = np.concatenate((coherence.local, coherence.w[by_low]))
        # Filtering a stably sorted sequence equals sorting the filtered
        # sequence, so a bound never needs a re-sort, only the mask.
        rank = np.concatenate((coherence.rank[-1:], coherence.rank[:n]))
        self.rank = rank.tolist()
        self.sorted_order = np.lexsort(
            (rank[self.edge_v], rank[self.edge_u], self.weights)
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
        edges = zip(self.edge_u[in_bound].tolist(), self.edge_v[in_bound].tolist())
        for u, v in edges:
            ru = _find(parent, u)
            rv = _find(parent, v)
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

    # Step (a): edge pruning, as a mask over the scaffold's Kruskal order.
    order = scaffold.sorted_order
    order = order[scaffold.weights[order] <= bound]

    # Steps (b)+(c): Kruskal over the (implicitly) contracted graph.
    # The contracted graph may legitimately be missing candidate nodes
    # whose every edge was pruned — that is a failure (the node could
    # never be covered within B), matching the paper's "B is too small"
    # warning for disconnected graphs.  A spanning tree is complete at
    # |V| - 1 edges; no later edge could join two components.
    spanning = scaffold.node_count - 1
    parent = list(range(scaffold.node_count))
    accepted: List[int] = []
    processed = 0
    for k, u, v in zip(
        order.tolist(),
        scaffold.edge_u[order].tolist(),
        scaffold.edge_v[order].tolist(),
    ):
        if len(accepted) == spanning:
            break
        if check is not None and processed % MST_CHECK_EVERY == 0:
            check()
        processed += 1
        ru = _find(parent, u)
        rv = _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            accepted.append(k)
    if len(accepted) != spanning:
        raise BoundTooSmallError(
            f"contracted coherence graph is disconnected at B={bound}"
        )

    # Step (d): decompose the major root back into mentions.  Root edges
    # graft in Kruskal acceptance order; the forest adjacency replays
    # the edge emission of the MST copy so the repr-sorted DFS of the
    # object form is reproduced tie-for-tie.
    trees: Dict[Span, RootedTree] = {
        mention: RootedTree(mention) for mention in coherence.mentions
    }
    edge_u = scaffold.edge_u[accepted].tolist()
    edge_v = scaffold.edge_v[accepted].tolist()
    weights = scaffold.weights[accepted].tolist()
    root_accepted = [i for i, u in enumerate(edge_u) if u == 0]
    cc_accepted = [i for i, u in enumerate(edge_u) if u != 0]
    cc_accepted.sort(key=lambda i: edge_u[i])
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for i in cc_accepted:
        u, v, w = edge_u[i], edge_v[i], weights[i]
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    cands, rank = scaffold.cands, scaffold.rank
    for i in root_accepted:
        anchor_id = edge_v[i]
        mention = scaffold.owners[anchor_id - 1]
        tree = trees[mention]
        tree.add_edge(mention, cands[anchor_id - 1], weights[i])
        stack = [anchor_id]
        visited = {anchor_id}
        while stack:
            node_id = stack.pop()
            node = cands[node_id - 1]
            for nbr_id, w in sorted(
                adjacency.get(node_id, ()), key=lambda p: rank[p[0]]
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
    # an object graph needed (for shortest paths), so the pruned graph
    # is built here, in the rare case a split left subtrees.
    pruned = _pruned_graph(coherence, bound)
    _attach_subtrees(coherence, pruned, split, leftover_subtrees, bound, check)
    return TreeCoverResult(split, bound, len(leftover_subtrees))


def _pruned_graph(coherence: CoherenceGraph, bound: float) -> WeightedGraph:
    """The coherence graph without its edges heavier than *bound*.

    Nodes and edges are added in the order the object form of the
    coherence graph holds them (each mention, then its candidates; each
    mention's own edges, then each of its candidates' concept edges to
    higher ids, in emission order), because Dijkstra's tie-breaks follow
    adjacency order.
    """
    graph = WeightedGraph()
    for mention, nodes in coherence.candidates_by_mention.items():
        graph.add_node(mention)
        for node in nodes:
            graph.add_node(node)
    n = len(coherence.candidates)
    owner = coherence.owner
    low = np.minimum(coherence.u, coherence.v)
    high = np.maximum(coherence.u, coherence.v)
    # A mention's edges sort just before those of its first candidate.
    slot = np.concatenate((2 * np.searchsorted(owner, owner), 2 * low + 1))
    u = np.concatenate((n + owner, low))
    v = np.concatenate((np.arange(n), high))
    w = np.concatenate((coherence.local, coherence.w))
    kept = np.nonzero(w <= bound)[0]
    kept = kept[np.argsort(slot[kept], kind="stable")]
    nodes = coherence.nodes
    for a, b, weight in zip(u[kept].tolist(), v[kept].tolist(), w[kept].tolist()):
        graph.add_edge(nodes[a], nodes[b], weight)
    return graph


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
    Without *max_bound* the search starts from that same bound, doubled
    until feasible; an explicit *max_bound* raises
    :class:`BoundTooSmallError` when it is infeasible.

    One :class:`_CoverScaffold` — the sorted edge arrays, repr ranks
    and union-find id space — is shared by every probe: each probe
    first runs a connectivity check over the masked edges (the common
    infeasibility), and only a probe that passes it derives the full
    cover (which can still fail in subtree matching).
    """
    scaffold = _CoverScaffold(coherence)
    if max_bound is None:
        # The default ceiling is the linker's default bound, doubled
        # until feasible the way derive_tree_cover doubles it.
        hi = max(float(len(coherence.mentions)), 1.0)
        while not _feasible(coherence, scaffold, hi):
            hi *= 2.0
    else:
        hi = max_bound
        if not _feasible(coherence, scaffold, hi):
            raise BoundTooSmallError(
                f"no feasible bound up to max_bound={max_bound}"
            )
    lo = 0.0
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
