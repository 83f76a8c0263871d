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


#: Rows of concept edges selected at a time.  A block's temporaries are
#: this many rows by the distinct concepts, by the rows' own sentences,
#: and by the few columns each row's bound admits.
_ROW_BLOCK = 256

#: Concept groups whose leading columns give each row its weight bound.
_BOUND_GROUPS = 3

#: A document of at most this many candidate pairs is one unit: every
#: pair is weighed directly, which costs less than grouping it.
_DIRECT_CELLS = 16384


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
    """Concept-concept edges ``(u, v, w)``: each candidate's lightest
    admissible neighbours, found without an n x n array.

    **Definition.**  ``S`` is one similarity block over the document's
    distinct concepts (the paper's pre-computed relatedness, Sec. 6.2),
    each cell a function of its two embedding rows only
    (:meth:`SimilarityIndex.batch_similarity`).  The weight of candidates
    ``i`` and ``j`` is ``clip(1 - s + blend * (l_i + l_j))`` with ``s =
    S[concept_i, concept_j]``, scaled when a predicate is involved, and
    ``l = 1 - prior``.  Candidates of overlapping mentions (a mention
    overlaps itself), of the same concept, and predicate pairs across
    sentences are not connected.  Row ``i`` visits its first
    ``max_neighbours`` admissible columns in ``(w, j)`` order (the order
    of a stable argsort of the dense row): a kNN sparsification that
    keeps the edge count linear in the candidates and every light edge
    a downstream algorithm would pick.  With ``max_neighbours`` None
    or ``>= n`` it visits every admissible column, in ``j`` order.  The
    visits in row order reduce to edges: each unordered pair keeps its
    first visit (which fixes its emission position and orientation;
    downstream tie-breaks depend on both) and the least weight of the
    directions that visited it.

    **Selection.**  Sentences whose mentions' token ranges intersect are
    merged into units (:func:`_units`; in practice a unit is a sentence).
    A document of at most :data:`_DIRECT_CELLS` candidate pairs is one
    unit.

    * Pairs inside a unit are weighed directly.  These are the only
      pairs a predicate candidate joins and the only ones the overlap
      mask can block.
    * Pairs across units are admissible exactly when both are entities
      of different concepts.  They come from the concept groups of
      :func:`_concept_groups`, along which a row's weight never
      decreases.
    * Each row takes an upper bound ``T`` on its ``k``-th lightest
      weight (:func:`_row_bounds`).  Every group whose head is at most
      ``T`` gives its prefix of weight ``<= T`` (:func:`_prefixes_within`),
      and the row keeps the first ``k`` of the union in ``(w, j)``
      order.  Every column of the true top ``k`` weighs at most ``T``
      and survives the groups' run cut, so the selection is exact; ``T``
      only decides how much is enumerated.

    Memory is the ``u x u`` block plus, per block of :data:`_ROW_BLOCK`
    rows, the rows by the distinct concepts and by their units' sizes;
    time is O(n u + n k) for documents of bounded sentences.  The
    deadline is checked after the similarity block and before each row
    block.
    """
    n = len(all_nodes)
    keep_all = max_neighbours is None or max_neighbours >= n
    k = n if keep_all else max_neighbours
    if n < 2 or k <= 0:
        return _NO_EDGES
    concept_index: Dict[str, int] = {}
    concept = np.array(
        [
            concept_index.setdefault(node.concept_id, len(concept_index))
            for node in all_nodes
        ],
        dtype=np.int64,
    )
    sims = similarity.batch_similarity(list(concept_index))
    is_predicate = np.array([node.kind == "predicate" for node in all_nodes])
    local = np.array([1.0 - priors[node] for node in all_nodes])
    starts = np.array([node.mention.token_start for node in all_nodes])
    ends = np.array([node.mention.token_end for node in all_nodes])
    sentences = np.array([node.mention.sentence_index for node in all_nodes])

    def weigh(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The weights of pairs ``(rows, cols)`` (broadcast), blocked or
        not."""
        s = sims[concept[rows], concept[cols]]
        predicate_pair = is_predicate[rows] | is_predicate[cols]
        s = np.where(predicate_pair, s * predicate_similarity_scale, s)
        w = (1.0 - s) + coherence_prior_blend * (local[rows] + local[cols])
        return np.clip(w, 1e-9, max_concept_distance)

    if n * n <= _DIRECT_CELLS:
        unit = np.zeros(n, dtype=np.int64)
    else:
        unit = _units(sentences, starts, ends)
    by_unit = np.argsort(unit, kind="stable")
    unit_size = np.bincount(unit)
    unit_start = np.cumsum(unit_size) - unit_size
    widest = np.arange(unit_size.max())
    groups = None
    if unit_size.size > 1:
        # The sign of the blend decides which way a row's weight moves
        # with a column's prior.
        key = local if coherence_prior_blend >= 0 else -local
        groups = _concept_groups(concept, key, is_predicate, unit, k)

    row_parts: List[np.ndarray] = []
    col_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    for lo in range(0, n, _ROW_BLOCK):
        if deadline is not None:
            deadline.check("coherence")
        rows = np.arange(lo, min(lo + _ROW_BLOCK, n))
        row = rows[:, None]

        # Pairs inside each row's unit, weighed with every mask.
        # Identical concepts carry no coherence evidence: cos(c, c) = 1
        # would be a zero-distance shortcut committing both mentions the
        # moment two phrases merely share a candidate.
        present = widest < unit_size[unit[row]]
        direct = by_unit[np.where(present, unit_start[unit[row]] + widest, 0)]
        direct_weight = weigh(row, direct)
        blocked = ~present
        blocked |= (starts[row] < ends[direct]) & (starts[direct] < ends[row])
        blocked |= concept[row] == concept[direct]
        blocked |= (is_predicate[row] | is_predicate[direct]) & (
            sentences[row] != sentences[direct]
        )
        direct_weight[blocked] = np.inf

        head_weight = None
        if groups is not None:
            # A group's head bounds the group's weights from below; only
            # entity rows reach groups, and never their own concept's.
            head_weight = weigh(row, groups.heads)
            closed = (concept[row] == groups.concept) | is_predicate[row]
            head_weight[closed] = np.inf
        if keep_all:
            bound = np.full(rows.size, np.inf)
        else:
            bound = _row_bounds(
                rows, direct_weight, head_weight, k, groups, unit, weigh
            )

        cross_rows = cross_cols = np.zeros(0, dtype=np.int64)
        cross_weights = np.zeros(0)
        if groups is not None:
            pair_row, pair_group = np.nonzero(
                (head_weight <= bound[:, None]) & ~closed
            )
            row_of = rows[pair_row]
            length = _prefixes_within(
                groups, row_of, pair_group, bound[pair_row], weigh
            )
            cross_rows = np.repeat(row_of, length)
            cross_cols = groups.columns[
                _ragged(groups.start[pair_group], length)
            ]
            other_unit = unit[cross_cols] != unit[cross_rows]
            cross_rows = cross_rows[other_unit]
            cross_cols = cross_cols[other_unit]
            cross_weights = weigh(cross_rows, cross_cols)

        within = ~blocked & (direct_weight <= bound[:, None])
        cand_rows = np.concatenate(
            (np.broadcast_to(row, direct.shape)[within], cross_rows)
        )
        cand_cols = np.concatenate((direct[within], cross_cols))
        cand_weights = np.concatenate((direct_weight[within], cross_weights))
        if keep_all:
            order = np.lexsort((cand_cols, cand_rows))
        else:
            order = np.lexsort((cand_cols, cand_weights, cand_rows))
            ranked = cand_rows[order]
            first_of_row = np.searchsorted(ranked, ranked, side="left")
            order = order[np.arange(order.size) - first_of_row < k]
        row_parts.append(cand_rows[order])
        col_parts.append(cand_cols[order])
        weight_parts.append(cand_weights[order])

    # Reduce the visits to edges.  The visits in row order are the scan
    # sequence; each unordered pair keeps its *first* visit (which fixes
    # the edge's emission position and orientation — downstream
    # tie-breaking depends on both) and the minimum weight over however
    # many directions visited it.
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


def _units(
    sentences: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Each candidate's unit: its sentence, with sentences whose mentions'
    token ranges intersect merged, so that no two candidates of
    different units have overlapping mentions."""
    sentence_ids, sentence_of = np.unique(sentences, return_inverse=True)
    first_token = np.full(sentence_ids.size, np.iinfo(np.int64).max)
    last_token = np.full(sentence_ids.size, np.iinfo(np.int64).min)
    np.minimum.at(first_token, sentence_of, starts)
    np.maximum.at(last_token, sentence_of, ends)
    by_start = np.argsort(first_token, kind="stable")
    reach = np.maximum.accumulate(last_token[by_start])
    opens = np.ones(by_start.size, dtype=bool)
    opens[1:] = first_token[by_start[1:]] >= reach[:-1]
    unit_of_sentence = np.empty(by_start.size, dtype=np.int64)
    unit_of_sentence[by_start] = np.cumsum(opens) - 1
    return unit_of_sentence[sentence_of]


class _Groups(NamedTuple):
    """The entity columns, concept group by concept group."""

    columns: np.ndarray  # candidate ids, each group ordered by (key, id)
    concept: np.ndarray  # each group's concept
    start: np.ndarray  # each group's first position in ``columns``
    size: np.ndarray

    @property
    def heads(self) -> np.ndarray:
        return self.columns[self.start]


def _concept_groups(
    concept: np.ndarray,
    key: np.ndarray,
    is_predicate: np.ndarray,
    unit: np.ndarray,
    k: int,
) -> _Groups:
    """The entity columns ordered by (concept, *key*, id), one group per
    concept, each run of equal (concept, key) cut to its first ``k + c``
    columns.

    *key* is ``l`` (``-l`` for a negative blend), so for a fixed row a
    column's weight never decreases along its group: every float step of
    the weight is monotone in ``l``.  A run of equal key shares one
    weight, in id order.  The columns of the row's own unit are weighed
    directly instead, and at most ``c`` (the most columns the concept has
    in one unit) lie there, so the first ``k + c`` columns of a run hold
    ``k`` the row can use ahead of every column cut.
    """
    entity = np.flatnonzero(~is_predicate)
    columns = entity[np.lexsort((entity, key[entity], concept[entity]))]
    new_run = np.ones(columns.size, dtype=bool)
    new_run[1:] = (concept[columns[1:]] != concept[columns[:-1]]) | (
        key[columns[1:]] != key[columns[:-1]]
    )
    run_start = np.flatnonzero(new_run)
    in_run = np.arange(columns.size) - run_start[np.cumsum(new_run) - 1]
    units = int(unit.max()) + 1
    crowded, crowd = np.unique(
        concept[entity] * units + unit[entity], return_counts=True
    )
    most_in_unit = np.zeros(int(concept.max()) + 1, dtype=np.int64)
    np.maximum.at(most_in_unit, crowded // units, crowd)
    columns = columns[in_run < k + most_in_unit[concept[columns]]]
    group_concept, start, size = np.unique(
        concept[columns], return_index=True, return_counts=True
    )
    return _Groups(columns, group_concept, start, size)


def _row_bounds(
    rows: np.ndarray,
    direct_weight: np.ndarray,
    head_weight: Optional[np.ndarray],
    k: int,
    groups: Optional[_Groups],
    unit: np.ndarray,
    weigh,
) -> np.ndarray:
    """Per row, the ``k``-th lightest weight of distinct admissible
    columns (``inf`` when fewer are found): its direct pairs and, when
    there are concept groups, the first ``k + 2`` columns of its
    :data:`_BOUND_GROUPS` groups of lightest head and the heads of its
    other groups, all outside its unit."""
    pool = [direct_weight]
    if groups is not None and groups.concept.size:
        if groups.concept.size > _BOUND_GROUPS:
            best = np.argpartition(head_weight, _BOUND_GROUPS - 1, axis=1)
            best = best[:, :_BOUND_GROUPS]
        else:
            best = np.broadcast_to(
                np.arange(groups.concept.size), head_weight.shape
            )
        sample = np.arange(k + 2)
        taken = (sample < groups.size[best][:, :, None]) & np.isfinite(
            np.take_along_axis(head_weight, best, axis=1)
        )[:, :, None]
        taken_cols = groups.columns[
            np.where(taken, groups.start[best][:, :, None] + sample, 0)
        ]
        taken &= unit[taken_cols] != unit[rows][:, None, None]
        taken_weight = weigh(rows[:, None, None], taken_cols)
        taken_weight[~taken] = np.inf
        others = np.where(
            unit[groups.heads] == unit[rows][:, None], np.inf, head_weight
        )
        np.put_along_axis(others, best, np.inf, axis=1)
        pool += [others, taken_weight.reshape(rows.size, -1)]
    pool = np.concatenate(pool, axis=1)
    if pool.shape[1] < k:
        return np.full(rows.size, np.inf)
    return np.partition(pool, k - 1, axis=1)[:, k - 1]


def _prefixes_within(
    groups: _Groups,
    rows: np.ndarray,
    group: np.ndarray,
    bound: np.ndarray,
    weigh,
) -> np.ndarray:
    """For each pair ``(rows[e], group[e])``, how many leading columns of
    the group weigh at most ``bound[e]``: a binary search, since weights
    never decrease along a group."""
    first = groups.start[group]
    high = groups.size[group]
    low = np.where(bound == np.inf, high, 0)
    while True:
        searching = np.flatnonzero(low < high)
        if not searching.size:
            return low
        mid = (low[searching] + high[searching]) // 2
        fits = (
            weigh(rows[searching], groups.columns[first[searching] + mid])
            <= bound[searching]
        )
        low[searching[fits]] = mid[fits] + 1
        high[searching[~fits]] = mid[~fits]


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[e] + 0 .. starts[e] + lengths[e] - 1``, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(
        ends[-1] if ends.size else 0
    )


_NO_EDGES = (
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.float64),
)
