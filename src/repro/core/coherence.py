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
    """
    n = len(all_nodes)
    if n < 2:
        return
    concept_ids = [node.concept_id for node in all_nodes]
    sims = similarity.batch_similarity(concept_ids)

    is_predicate = np.array([node.kind == "predicate" for node in all_nodes])
    predicate_pair = is_predicate[:, None] | is_predicate[None, :]
    sims = np.where(predicate_pair, sims * predicate_similarity_scale, sims)

    local = np.array([1.0 - priors[node] for node in all_nodes])
    blend = coherence_prior_blend * (local[:, None] + local[None, :])
    weights = np.clip(1.0 - sims + blend, 1e-9, max_concept_distance)
    # Both are dead n x n float64 blocks; freed here, they are not held
    # while the kNN step below allocates several more, which is the
    # peak memory of linking a long document.
    del sims, blend

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
        order = np.argsort(weights, axis=1)
        neighbour_sets = [order[i, :max_neighbours] for i in range(n)]

    # Materialise the edges without the per-cell Python loop the kNN
    # selection used to run (get_weight/add_edge per visited cell).  The
    # visited cells in row-major order are the original scan sequence;
    # each unordered pair keeps its *first* visit (which fixes the edge's
    # insertion position and orientation in the graph — downstream
    # tie-breaking depends on both) and the minimum weight over however
    # many directions visited it (which is the value the scan's
    # "overwrite if smaller" update converged to).
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
    for i, j, w in zip(
        sources.tolist(), targets.tolist(), edge_weights.tolist()
    ):
        graph.add_edge(all_nodes[i], all_nodes[j], w)
