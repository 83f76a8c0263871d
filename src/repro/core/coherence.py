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
from typing import Dict, List, Optional

import numpy as np

from repro.embeddings.similarity import SimilarityIndex
from repro.graph.weighted_graph import WeightedGraph
from repro.kb.alias_index import CandidateHit
from repro.nlp.spans import Span


@dataclass(frozen=True)
class CandidateNode:
    """A candidate concept attached to one specific mention."""

    mention: Span
    concept_id: str
    kind: str  # "entity" | "predicate"

    def __post_init__(self) -> None:
        # Candidate nodes are graph keys in every adjacency dict; cache
        # the hash like Span does (the mention's own hash is cached, so
        # this tuple hash is cheap and computed exactly once).
        object.__setattr__(
            self, "_hash", hash((self.mention, self.concept_id, self.kind))
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cand({self.mention.text!r}->{self.concept_id})"


@dataclass
class CoherenceGraph:
    """The weighted graph plus the mention/candidate bookkeeping."""

    graph: WeightedGraph
    mentions: List[Span]
    candidates_by_mention: Dict[Span, List[CandidateNode]]
    priors: Dict[CandidateNode, float]

    def mention_of(self, node: CandidateNode) -> Span:
        return node.mention

    def candidate_nodes(self) -> List[CandidateNode]:
        return [
            node
            for nodes in self.candidates_by_mention.values()
            for node in nodes
        ]

    def local_distance(self, node: CandidateNode) -> float:
        """d(m, c) = 1 - P(c | m) for the node's own mention edge."""
        return 1.0 - self.priors[node]

    @property
    def mention_count(self) -> int:
        return len(self.mentions)

    @property
    def concept_node_count(self) -> int:
        return sum(len(v) for v in self.candidates_by_mention.values())


def build_coherence_graph(
    mention_candidates: Dict[Span, List[CandidateHit]],
    similarity: SimilarityIndex,
    max_concept_distance: float = 1.0,
    predicate_similarity_scale: float = 0.75,
    prior_distance_floor: float = 0.62,
    coherence_prior_blend: float = 0.06,
    prior_distance_curve: float = 0.5,
    max_neighbours: Optional[int] = 12,
) -> CoherenceGraph:
    """Construct the knowledge coherence graph.

    Parameters
    ----------
    mention_candidates:
        Mapping mention span -> candidate hits (possibly empty — mentions
        without candidates become isolated mention nodes, the seed of
        "new concept" detection).
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
    """
    graph = WeightedGraph()
    mentions = list(mention_candidates)
    candidates_by_mention: Dict[Span, List[CandidateNode]] = {}
    priors: Dict[CandidateNode, float] = {}

    for mention, hits in mention_candidates.items():
        graph.add_node(mention)
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
            local = prior_distance_floor + (1.0 - prior_distance_floor) * (
                raw ** prior_distance_curve
            )
            graph.add_edge(mention, node, local)
        candidates_by_mention[mention] = nodes

    all_nodes = [n for nodes in candidates_by_mention.values() for n in nodes]
    _add_concept_edges(
        graph,
        all_nodes,
        priors,
        similarity,
        max_concept_distance,
        predicate_similarity_scale,
        coherence_prior_blend,
        max_neighbours,
    )
    return CoherenceGraph(graph, mentions, candidates_by_mention, priors)


#: Rows of the concept-edge weight matrix built at a time.  A block's
#: temporaries (masks, prior blend, per-row argsort) are this many rows
#: by n instead of n x n.
_ROW_BLOCK = 256


def _add_concept_edges(
    graph: WeightedGraph,
    all_nodes: List[CandidateNode],
    priors: Dict[CandidateNode, float],
    similarity: SimilarityIndex,
    max_concept_distance: float,
    predicate_similarity_scale: float,
    coherence_prior_blend: float,
    max_neighbours: Optional[int],
) -> None:
    """Concept-concept edges, vectorised over all candidate pairs.

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
        return
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

    # Materialise the edges without a per-cell Python loop.  The visited
    # cells in row-major order are the original scan sequence; each
    # unordered pair keeps its *first* visit (which fixes the edge's
    # insertion position and orientation in the graph — downstream
    # tie-breaking depends on both) and the minimum weight over however
    # many directions visited it (which is the value the scan's
    # "overwrite if smaller" update converged to).
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    visit_weights = np.concatenate(weight_parts)
    if rows.size == 0:
        return
    pair_keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    _, first_visit, pair_of = np.unique(
        pair_keys, return_index=True, return_inverse=True
    )
    pair_weights = np.full(first_visit.size, np.inf)
    np.minimum.at(pair_weights, pair_of, visit_weights)
    sequence = np.argsort(first_visit)
    first_visit = first_visit[sequence]
    for i, j, w in zip(
        rows[first_visit].tolist(),
        cols[first_visit].tolist(),
        pair_weights[sequence].tolist(),
    ):
        graph.add_edge(all_nodes[i], all_nodes[j], w)
