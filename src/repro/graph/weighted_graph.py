"""A weighted undirected graph container.

The knowledge coherence graph (Sec. 3 of the paper) is held as integer
edge arrays (:class:`repro.core.coherence.CoherenceGraph`), not as this
structure.  On the link path a :class:`WeightedGraph` is built only for
step (f) of Algorithm 1: the pruned graph that Dijkstra searches, built
when a split leaves subtrees to match, and the small union graphs that
graft a matched subtree onto its tree.  Edges are stored once per
unordered pair; adjacency is kept as nested dictionaries so edge lookup
is O(1).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

Node = Hashable
Edge = Tuple[Node, Node, float]


class WeightedGraph:
    """Undirected graph with float edge weights and O(1) edge lookup."""

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Ensure *node* exists (isolated nodes are permitted)."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node, weight: float) -> None:
        """Insert or overwrite the undirected edge (u, v).

        Self-loops are rejected: the coherence graph never needs them and
        silently accepting one would corrupt MST construction.
        """
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        if weight < 0:
            raise ValueError(f"negative edge weight {weight!r} on ({u!r}, {v!r})")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge (u, v); raises ``KeyError`` if absent."""
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, node: Node) -> None:
        """Delete *node* and all incident edges."""
        for neighbour in list(self._adj[node]):
            del self._adj[neighbour][node]
        del self._adj[node]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> Iterator[Node]:
        return iter(self._adj)

    def neighbours(self, node: Node) -> Dict[Node, float]:
        """Mapping neighbour -> weight for *node* (read-only by convention)."""
        return self._adj[node]

    def degree(self, node: Node) -> int:
        return len(self._adj[node])

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge (u, v); raises ``KeyError`` if absent."""
        return self._adj[u][v]

    def get_weight(self, u: Node, v: Node, default: Optional[float] = None) -> Optional[float]:
        """Weight of edge (u, v), or *default* if the edge is absent."""
        if self.has_edge(u, v):
            return self._adj[u][v]
        return default

    def edges(self) -> List[Edge]:
        """All edges once each as (u, v, weight) triples.

        Each edge is emitted at its first-reached endpoint (adjacency
        is symmetric, so skipping neighbours whose own row was already
        walked deduplicates without building per-edge canonical keys).
        """
        done: set = set()
        result: List[Edge] = []
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v in done:
                    continue
                result.append((u, v, w))
            done.add(u)
        return result

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def max_degree(self) -> int:
        """Largest node degree (0 for an empty or edgeless graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def copy(self) -> "WeightedGraph":
        clone = WeightedGraph()
        for node in self._adj:
            clone.add_node(node)
        for u, v, w in self.edges():
            clone.add_edge(u, v, w)
        return clone

    def pruned(self, max_weight: float) -> "WeightedGraph":
        """A copy with every edge of weight > *max_weight* removed.

        This is Step (a) of Algorithm 1: nodes are preserved (a node whose
        edges are all pruned becomes isolated, which is how isolated
        concepts ultimately surface).
        """
        pruned = WeightedGraph()
        for node in self._adj:
            pruned.add_node(node)
        for u, v, w in self.edges():
            if w <= max_weight:
                pruned.add_edge(u, v, w)
        return pruned

    def subgraph(self, keep: Iterable[Node]) -> "WeightedGraph":
        """Induced subgraph on the node set *keep*."""
        keep_set = set(keep)
        sub = WeightedGraph()
        for node in keep_set:
            if node in self._adj:
                sub.add_node(node)
        for u, v, w in self.edges():
            if u in keep_set and v in keep_set:
                sub.add_edge(u, v, w)
        return sub

    def connected_components(self) -> List[List[Node]]:
        """Connected components as lists of nodes (iterative DFS)."""
        seen: set = set()
        components: List[List[Node]] = []
        for start in self._adj:
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            component = []
            while stack:
                node = stack.pop()
                component.append(node)
                for neighbour in self._adj[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        return len(self.connected_components()) == 1
