"""The knowledge coherence graph (Sec. 3 of the paper).

Nodes are the mentions (noun + relational phrases) and their candidate
concepts; edges carry semantic distances:

* mention -> own candidate: ``d = 1 - P(c | m)`` (Eq. 1-2);
* entity candidate <-> entity candidate of a *different* noun phrase:
  ``1 - cos(embedding)`` (Eq. 3);
* predicate candidate <-> predicate candidate of a different relational
  phrase, only when both phrases are in the *same sentence* (Eq. 4);
* entity candidate <-> predicate candidate, only when the noun phrase and
  the relational phrase are in the same sentence (Eq. 5).

Candidate nodes are keyed per (mention, concept) pair so that the mapping
``M(v)`` used by Algorithm 5 — "the mention whose candidate v is" — is
always well defined, even when two mentions share a candidate concept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.deadline import Deadline
from repro.embeddings.similarity import SimilarityIndex
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span

# Sentinel for the contracted major root node of Algorithm 1, step (b)
# (:mod:`repro.core.tree_cover`).  It is ranked with the graph's nodes
# because Kruskal breaks weight ties on it too.
MAJOR_ROOT = ("__tenet_major_root__",)


@dataclass(frozen=True)
class CandidateNode:
    """A candidate concept attached to one specific mention."""

    mention: Span
    concept_id: str
    kind: str  # "entity" | "predicate"

    def __post_init__(self) -> None:
        # Candidate nodes key the dicts of the cover trees and the scan;
        # cache the hash like Span does (the mention's own hash is
        # cached, so this tuple hash is cheap and computed exactly once).
        object.__setattr__(
            self, "_hash", hash((self.mention, self.concept_id, self.kind))
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        # Not only a debugging aid: this string orders ties and keys the
        # scan pool's dedupe (see repr_ranks).
        return f"Cand({self.mention.text!r}->{self.concept_id})"


_Node = Union[Span, CandidateNode]


def repr_ranks(nodes: Sequence[object]) -> np.ndarray:
    """The dense rank of each node's ``repr``; equal strings share a rank.

    These strings are load-bearing.  ``CandidateNode.__repr__``
    (``Cand('<text>'-><id>)``) and the dataclass repr of :class:`Span`
    break weight ties in Kruskal (Algorithm 1, step c), order the
    neighbours of the decomposition DFS (step d) and break ties in the
    greedy scan (Algorithm 5).  The scan pool also dedupes its edges on
    the pair of endpoint reprs, so every occurrence of one surface with
    one candidate counts as one node there.  Comparing ranks instead of
    strings keeps each of those decisions exactly as the strings made
    them, until the tie-breaks move to ids in document order.
    """
    reprs = [repr(node) for node in nodes]
    dense = {text: rank for rank, text in enumerate(sorted(set(reprs)))}
    return np.array([dense[text] for text in reprs], dtype=np.int64)


class GraphSize(NamedTuple):
    """The size of a coherence graph, counted as an object graph."""

    node_count: int
    edge_count: int


@dataclass(eq=False)
class CoherenceGraph:
    """The knowledge coherence graph as integer edge arrays.

    Node ids: the candidate nodes are ``0..n-1`` in
    ``candidates_by_mention`` order (``candidates``), and the mentions
    follow as ``n..n+m-1`` in ``mentions`` order (``nodes`` lists both).
    Candidate ``k`` hangs off mention ``owner[k]`` through its own
    mention edge, of weight ``local[k]``.  The concept edges are
    ``(u[e], v[e], w[e])`` over candidate ids, in emission order: the
    order, and the orientation, in which each pair was first visited.
    Downstream tie-breaks follow that order.  ``rank`` holds the
    :func:`repr_ranks` of ``nodes`` followed by that of
    :data:`MAJOR_ROOT`.
    """

    mentions: List[Span]
    candidates_by_mention: Dict[Span, List[CandidateNode]]
    priors: Dict[CandidateNode, float]
    candidates: List[CandidateNode]
    owner: np.ndarray
    local: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    rank: np.ndarray

    @property
    def nodes(self) -> List[_Node]:
        return [*self.candidates, *self.mentions]

    def candidate_nodes(self) -> List[CandidateNode]:
        return list(self.candidates)

    def local_distance(self, node: CandidateNode) -> float:
        """d(m, c) = 1 - P(c | m) for the node's own mention edge."""
        return 1.0 - self.priors[node]

    @property
    def mention_count(self) -> int:
        return len(self.mentions)

    @property
    def concept_node_count(self) -> int:
        return len(self.candidates)

    @property
    def graph(self) -> GraphSize:
        """Node count (mentions + candidates) and edge count (mention
        edges + concept edges), read as ``graph.node_count`` and
        ``graph.edge_count`` by the stage trace and the benchmark's
        tracer."""
        return GraphSize(
            len(self.mentions) + len(self.candidates),
            len(self.candidates) + int(self.w.size),
        )

    def shared_edges(self, bound: float) -> "EdgeArrays":
        """The edges every mention's own tree adds to the scan's pool.

        Definition 6 lets trees share nodes and edges, and Sec. 4's
        intuition says each tree T_i holds "all the nodes within a small
        semantic distance" to its mention; the materialised cover keeps
        one representative tree per component.  So, for each candidate
        in id order, the pool re-adds (a) its own mention edge and then
        (b) for each other mention it has an edge into, its nearest such
        edge: the per-pair nearest relatedness T_i would retain.  Ties go
        to the edge first in the candidate's adjacency, which is emission
        order, and the mentions come in order of first appearance there.
        Only edges of weight <= *bound* are kept.
        """
        n, m = len(self.candidates), len(self.mentions)
        # Both directed copies of every concept edge, sorted into each
        # candidate's adjacency order: by candidate, then emission index.
        emitted = np.arange(self.w.size)
        source = np.concatenate((self.u, self.v))
        by_source = np.lexsort((np.concatenate((emitted, emitted)), source))
        source = source[by_source]
        target = np.concatenate((self.v, self.u))[by_source]
        weight = np.concatenate((self.w, self.w))[by_source]
        # One group per (candidate, other mention): its first edge of
        # least weight (lexsort is stable), and where it first appears.
        group = source * m + self.owner[target]
        _, first = np.unique(group, return_index=True)
        best = np.lexsort((weight, group))
        leads = np.ones(best.size, dtype=bool)
        leads[1:] = group[best[1:]] != group[best[:-1]]
        best = best[leads]
        # Each candidate's mention edge, then its groups.
        order = np.lexsort(
            (
                np.concatenate((np.full(n, -1), first)),
                np.concatenate((np.arange(n), source[best])),
            )
        )
        u = np.concatenate((n + self.owner, source[best]))[order]
        v = np.concatenate((np.arange(n), target[best]))[order]
        w = np.concatenate((self.local, weight[best]))[order]
        within = w <= bound
        return EdgeArrays(self, u[within], v[within], w[within])


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """Edges ``(u[e], v[e], w[e])`` over the node ids of *graph*."""

    graph: CoherenceGraph
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def build_coherence_graph(
    mention_candidates: Dict[Span, List[CandidateHit]],
    similarity: SimilarityIndex,
    max_concept_distance: float = 1.0,
    predicate_similarity_scale: float = 0.75,
    prior_distance_floor: float = 0.62,
    coherence_prior_blend: float = 0.06,
    prior_distance_curve: float = 0.5,
    max_neighbours: Optional[int] = 12,
    *,
    deadline: Optional[Deadline] = None,
) -> CoherenceGraph:
    """Construct the knowledge coherence graph.

    Parameters
    ----------
    mention_candidates:
        Mapping mention span -> candidate hits (possibly empty — mentions
        without candidates become isolated mention nodes, the seed of
        "new concept" detection).  One mention's hits name distinct
        concepts, as the alias index returns them: each hit is one node.
    similarity:
        The cached embedding similarity index; ``1 - cos`` values are
        clipped to ``[0, max_concept_distance]`` so unrelated concepts
        (near-orthogonal embeddings) sit at the far end of the same scale
        as local distances.
    predicate_similarity_scale:
        Similarity involving a predicate candidate is multiplied by this
        factor before conversion to distance.  Substrate calibration: the
        propagation embeddings place predicates near *every* entity they
        co-occur with (they are graph hubs), whereas the paper's
        PyTorch-BigGraph vectors keep predicates in their own region;
        shrinking predicate similarity restores the paper's property that
        entity-entity coherence is the sharpest signal.
    prior_distance_floor:
        Scale calibration between the two distance families.  Local
        distances (1 - P) and embedding distances (1 - cos) are not
        commensurable: an anchor-statistics prior of 0.9 and a cosine of
        0.9 express very different amounts of evidence.  Local distances
        are mapped to ``floor + (1 - floor) * (1 - P)`` so that *strong
        in-document coherence* (direct KB neighbours, d ~ 0.5-0.6 under
        the default trainer) sorts before even a dominant prior, while a
        dominant prior still sorts before *weak* coherence (same-domain
        strangers, d ~ 0.9).  This single knob realises the paper's
        min-max intuition: popularity may only be overridden by genuinely
        strong relatedness.
    coherence_prior_blend:
        A small fraction of both endpoints' local distances added to each
        concept-concept edge.  Near-tied coherence edges (two candidates
        equally related to the same anchor, e.g. two people of the same
        surname born in the same city) then resolve toward the candidate
        with the better prior instead of by arbitrary ordering.
    prior_distance_curve:
        Exponent applied to (1 - P) before the floor mapping; values
        below 1 push mid-confidence priors toward the weak end of the
        scale (see inline comment at the construction site).
    deadline:
        Checked after the similarity block and before each block of
        concept-edge rows; raises
        :class:`~repro.core.deadline.DeadlineExceeded` at stage
        ``"coherence"`` on expiry.
    """
    mentions = list(mention_candidates)
    candidates_by_mention: Dict[Span, List[CandidateNode]] = {}
    priors: Dict[CandidateNode, float] = {}
    candidates: List[CandidateNode] = []
    owner: List[int] = []
    local: List[float] = []
    for index, (mention, hits) in enumerate(mention_candidates.items()):
        nodes: List[CandidateNode] = []
        for hit in hits:
            node = CandidateNode(mention, hit.concept_id, hit.kind)
            nodes.append(node)
            priors[node] = hit.prior
            raw = min(max(1.0 - hit.prior, 0.0), 1.0)
            # The curve exponent (< 1) lifts mid-range priors: a 40%-
            # confident prior is much closer to "uninformative" than to
            # "half as good as certain", so ambiguous surnames must not
            # outrank tail-end genuine coherence.
            local.append(
                prior_distance_floor
                + (1.0 - prior_distance_floor) * (raw ** prior_distance_curve)
            )
            owner.append(index)
        candidates_by_mention[mention] = nodes
        candidates.extend(nodes)

    u, v, w = _concept_edges(
        candidates,
        priors,
        similarity,
        max_concept_distance,
        predicate_similarity_scale,
        coherence_prior_blend,
        max_neighbours,
        deadline,
    )
    return CoherenceGraph(
        mentions,
        candidates_by_mention,
        priors,
        candidates,
        np.array(owner, dtype=np.int64),
        np.array(local, dtype=np.float64),
        u,
        v,
        w,
        repr_ranks([*candidates, *mentions, MAJOR_ROOT]),
    )


#: Rows of the concept-edge weight matrix built at a time.  A block's
#: temporaries (masks, prior blend, per-row argsort) are this many rows
#: by n instead of n x n.
_ROW_BLOCK = 256


def _concept_edges(
    all_nodes: List[CandidateNode],
    priors: Dict[CandidateNode, float],
    similarity: SimilarityIndex,
    max_concept_distance: float,
    predicate_similarity_scale: float,
    coherence_prior_blend: float,
    max_neighbours: Optional[int],
    deadline: Optional[Deadline],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concept-concept edges ``(u, v, w)``, vectorised over all pairs.

    The pairwise weight matrix is one batched similarity block from the
    embedding store (the paper's pre-computed relatedness index; Sec. 6.2
    notes that edge retrieval is O(1) because relatedness is
    pre-computed).  When ``max_neighbours`` is set, each candidate only
    materialises its that-many lightest admissible edges — a kNN
    sparsification that keeps the edge count linear in the candidate
    count without touching the light edges any downstream algorithm would
    ever pick.

    The similarity block is the only n x n array: each block of
    :data:`_ROW_BLOCK` rows is turned into weights in place (every cell
    is read by its own row's block only), masked, and reduced to its
    edges before the next block starts.
    """
    n = len(all_nodes)
    if n < 2:
        return _NO_EDGES
    matrix = similarity.batch_similarity([node.concept_id for node in all_nodes])

    is_predicate = np.array([node.kind == "predicate" for node in all_nodes])
    local = np.array([1.0 - priors[node] for node in all_nodes])
    starts = np.array([node.mention.token_start for node in all_nodes])
    ends = np.array([node.mention.token_end for node in all_nodes])
    sentences = np.array([node.mention.sentence_index for node in all_nodes])
    # Identical concepts carry no coherence evidence: cos(c, c) = 1 would
    # be a degenerate zero-distance shortcut committing both mentions the
    # moment two phrases merely share a candidate.
    concept_index: Dict[str, int] = {}
    concept_of = np.array(
        [
            concept_index.setdefault(node.concept_id, len(concept_index))
            for node in all_nodes
        ]
    )
    keep_all = max_neighbours is None or max_neighbours >= n

    row_parts: List[np.ndarray] = []
    col_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    for lo in range(0, n, _ROW_BLOCK):
        if deadline is not None:
            deadline.check("coherence")
        hi = min(lo + _ROW_BLOCK, n)
        weights = matrix[lo:hi]
        predicate_pair = is_predicate[lo:hi, None] | is_predicate[None, :]
        np.multiply(
            weights, predicate_similarity_scale, out=weights, where=predicate_pair
        )
        np.subtract(1.0, weights, out=weights)
        weights += coherence_prior_blend * (local[lo:hi, None] + local[None, :])
        np.clip(weights, 1e-9, max_concept_distance, out=weights)

        # Candidates of overlapping mentions (a mention overlaps itself),
        # of the same concept, and predicate pairs across sentences are
        # not connected.
        blocked = (starts[lo:hi, None] < ends[None, :]) & (
            starts[None, :] < ends[lo:hi, None]
        )
        blocked |= concept_of[lo:hi, None] == concept_of[None, :]
        blocked |= predicate_pair & (sentences[lo:hi, None] != sentences[None, :])
        np.putmask(weights, blocked, np.inf)

        if keep_all:
            rows, cols = np.nonzero(np.isfinite(weights))
        else:
            # np.argsort's tie order picks the neighbours; a partial sort
            # would pick others among equal weights.
            order = np.argsort(weights, axis=1)[:, :max_neighbours]
            rows = np.repeat(np.arange(hi - lo), order.shape[1])
            cols = order.ravel()
            finite = np.isfinite(weights[rows, cols])
            rows, cols = rows[finite], cols[finite]
        row_parts.append(rows + lo)
        col_parts.append(cols)
        weight_parts.append(weights[rows, cols])

    # Reduce the visits to edges.  The visited cells in row-major order
    # are the original scan sequence; each unordered pair keeps its
    # *first* visit (which fixes the edge's emission position and
    # orientation — downstream tie-breaking depends on both) and the
    # minimum weight over however many directions visited it (which is
    # the value the scan's "overwrite if smaller" update converged to).
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    visit_weights = np.concatenate(weight_parts)
    if rows.size == 0:
        return _NO_EDGES
    pair_keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    _, first_visit, pair_of = np.unique(
        pair_keys, return_index=True, return_inverse=True
    )
    pair_weights = np.full(first_visit.size, np.inf)
    np.minimum.at(pair_weights, pair_of, visit_weights)
    sequence = np.argsort(first_visit)
    first_visit = first_visit[sequence]
    return rows[first_visit], cols[first_visit], pair_weights[sequence]


_NO_EDGES = (
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.float64),
)
