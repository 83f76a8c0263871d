"""Greedy knowledge disambiguation (Sec. 5.2, Algorithm 5).

Edges of the coherence tree cover are processed in non-decreasing weight
order (the Kruskal discipline — confident decisions first) and turned
into (mention, candidate) proposals:

* a mention->candidate edge proposes that candidate for that mention;
* a candidate<->candidate edge proposes both candidates for their
  respective mentions when neither mention is linked yet, and propagates
  a proposal to the unlinked side when the other side's concept is
  already part of the result.

Proposals accumulate per (group, canopy); a canopy whose every member has
a proposal *commits*: the proposals become final links, the group closes,
all sibling canopies die.  The paper's four pruning strategies are
enforced throughout:

1. one concept per mention (a linked mention accepts no further
   proposals);
2. edges touching a candidate whose mention is already linked to a
   *different* concept are discarded;
3. once a group committed one canopy, mentions of its other canopies are
   *dead*: proposals for them are dropped and — going slightly beyond the
   pseudo-code but following the strategy's prose ("we will not consider
   any other mention in other canopies") — coherence edges incident to a
   dead mention's candidates are discarded entirely, so a doomed
   alternative reading cannot vote for its neighbours;
4. the scan stops as soon as every group is closed.

One addition beyond the paper's pseudo-code: a proposal is rejected when
its mention overlaps an already-committed mention of a different group —
this resolves noun/relation span conflicts (e.g. "sister city" inside
"is the sister city of") in the same greedy spirit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.canopies import MentionGroup
from repro.core.coherence import CandidateNode, EdgeArrays, repr_ranks
from repro.core.deadline import Deadline
from repro.core.tree_cover import TreeCoverResult
from repro.nlp.spans import Span, SpanIndex

_Node = Union[Span, CandidateNode]

# Edges of the greedy scan processed between cooperative-cancellation
# checks (same discipline as the Kruskal loop of the tree-cover solve).
CHECK_EVERY = 64


@dataclass(frozen=True)
class LinkExplanation:
    """Why a mention was linked: the committing evidence.

    ``from_coherence`` distinguishes coherence-driven decisions from
    prior fallbacks; for coherence decisions ``partner_concept`` is the
    concept on the other side of the committing edge — the anchor that
    pulled this link in.
    """

    edge_weight: float
    from_coherence: bool
    partner_concept: Optional[str] = None

    def describe(self) -> str:
        if self.from_coherence:
            partner = self.partner_concept or "?"
            return (
                f"coherence edge (d={self.edge_weight:.3f}) "
                f"with {partner}"
            )
        return f"prior edge (d={self.edge_weight:.3f})"


@dataclass
class DisambiguationResult:
    """Final mention -> candidate mapping plus the rejected mentions."""

    gamma: Dict[Span, CandidateNode]
    non_linkable: List[Span]
    committed_canopies: Dict[int, int]  # group_id -> canopy index
    edges_processed: int = 0
    demoted: int = 0  # links dropped by the weak-prior filter
    provenance: Dict[Span, LinkExplanation] = field(default_factory=dict)

    def linked_mentions(self) -> List[Span]:
        return list(self.gamma)

    def concept_for(self, mention: Span) -> Optional[str]:
        node = self.gamma.get(mention)
        return node.concept_id if node is not None else None

    def explanation_for(self, mention: Span) -> Optional[LinkExplanation]:
        return self.provenance.get(mention)


@dataclass
class _Proposal:
    mention: Span
    candidate: CandidateNode
    weight: float
    from_coherence: bool
    partner_concept: Optional[str] = None


def disambiguate(
    cover: TreeCoverResult,
    groups: List[MentionGroup],
    prior_link_threshold: float = 1.0,
    extra_edges: Union[None, EdgeArrays, List[Tuple[_Node, _Node, float]]] = None,
    deadline: Optional[Deadline] = None,
) -> DisambiguationResult:
    """Run Algorithm 5 over the tree cover and the mention groups.

    ``extra_edges`` are additional edges merged into the scan, as
    arrays over a coherence graph's node ids (the linker passes
    :meth:`~repro.core.coherence.CoherenceGraph.shared_edges`) or as
    ``(u, v, weight)`` triples.  The tree cover's trees share nodes and
    edges (Definition 6): each mention's tree is rooted through its
    *own* local edges, so the union of cover edges includes every
    surviving prior edge even when the contracted MST routed the
    component through a different mention.  The caller supplies them
    here because :class:`~repro.core.tree_cover.TreeCoverResult`
    materialises one representative tree per component.

    With a *deadline*, the greedy edge scan checks the token every
    :data:`CHECK_EVERY` edges and raises
    :class:`~repro.core.deadline.DeadlineExceeded` on expiry — the
    anytime framing of Pair-Linking: cutting collective disambiguation
    short at a budget still leaves the prior-only answer usable.
    """
    edges = _scan_edges(cover, extra_edges)
    state = _ScanState(cover.trees, groups)
    processed = 0

    for u, v, weight in edges:
        if deadline is not None and processed % CHECK_EVERY == 0:
            deadline.check("disambiguation")
        processed += 1
        if _touches_dead_mention(u, v, state.dead_mentions):
            continue  # pruning strategy 3 extended to candidate nodes
        proposals = _proposals_for_edge(
            u, v, weight, state.gamma, state.selected_concepts
        )
        for proposal in proposals:
            state.apply(proposal)
        if not state.active:
            break  # pruning strategy 4: early stop

    # Deferred split readings: commit them now for groups whose fuller
    # merged reading never completed.
    state.commit_deferred()

    non_linkable = _collect_non_linkable(groups, state)
    final_gamma, demoted = _apply_prior_threshold(
        state.gamma, prior_link_threshold
    )
    provenance = {
        mention: LinkExplanation(
            edge_weight=proposal.weight,
            from_coherence=proposal.from_coherence,
            partner_concept=proposal.partner_concept,
        )
        for mention, proposal in state.gamma.items()
        if mention in final_gamma
    }
    return DisambiguationResult(
        final_gamma,
        non_linkable,
        state.committed_canopies,
        processed,
        demoted,
        provenance,
    )


class _ScanState:
    """Mutable state of one greedy scan.

    Committed spans are indexed by token position (``claimed_tokens``)
    and all candidate spans by the tokens they cover (``span_index``), so
    the two overlap sweeps of the scan — the per-proposal cross-group
    check and the post-commit kill of contradicting readings — cost
    O(span length) instead of a linear scan over every committed/candidate
    span per edge.
    """

    def __init__(self, mentions, groups: List[MentionGroup]) -> None:
        self.span_to_group: Dict[Span, MentionGroup] = {}
        for group in groups:
            for span in group.spans():
                self.span_to_group.setdefault(span, group)
        self.group_by_id = {g.group_id: g for g in groups}
        self.span_index = SpanIndex(self.span_to_group)
        # token -> group ids whose committed mentions cover it
        self.claimed_tokens: Dict[int, Set[int]] = {}
        self.gamma: Dict[Span, _Proposal] = {}
        self.selected_concepts: Set[str] = set()
        self.committed_spans: Dict[Span, int] = {}  # span -> group_id
        # Mentions outside every group are redundant alternative readings
        # (e.g. "Wilson" inside "Nina Wilson"); they are dead on arrival
        # so their candidates cannot vote through coherence edges.
        self.dead_mentions: Set[Span] = {
            mention for mention in mentions if mention not in self.span_to_group
        }
        self.pending: Dict[Tuple[int, int], Dict[Span, _Proposal]] = {}
        self.active: Set[int] = {g.group_id for g in groups}
        self.committed_canopies: Dict[int, int] = {}
        self.deferred: Dict[int, Tuple[int, Dict[Span, _Proposal]]] = {}

    # ------------------------------------------------------------------
    # overlap queries (token-interval indexed)
    # ------------------------------------------------------------------
    def claimed_by_other(self, mention: Span, group_id: int) -> bool:
        """Whether a committed mention of *another* group overlaps."""
        claimed = self.claimed_tokens
        for token in range(mention.token_start, mention.token_end):
            owners = claimed.get(token)
            if owners and (len(owners) > 1 or group_id not in owners):
                return True
        return False

    def claimed_at_all(self, span: Span) -> bool:
        """Whether any committed mention overlaps *span*."""
        claimed = self.claimed_tokens
        return any(
            token in claimed
            for token in range(span.token_start, span.token_end)
        )

    # ------------------------------------------------------------------
    # proposal application
    # ------------------------------------------------------------------
    def apply(self, proposal: _Proposal) -> None:
        mention = proposal.mention
        if mention in self.dead_mentions:
            return
        group = self.span_to_group.get(mention)
        if group is None or group.group_id not in self.active:
            return
        # Cross-group overlap pruning: a committed mention of another
        # group claims its tokens.
        if self.claimed_by_other(mention, group.group_id):
            self.dead_mentions.add(mention)
            return
        for canopy_index, canopy in enumerate(group.canopies):
            if mention not in canopy:
                continue
            slot = self.pending.setdefault((group.group_id, canopy_index), {})
            if mention not in slot:
                slot[mention] = proposal
            if len(slot) == len(canopy):
                if _should_defer(group, canopy_index):
                    # A fuller (more merged) linkable reading is still in
                    # play: remember this completion but let the merged
                    # canopy race on (it wins immediately if it
                    # completes).  Among several deferrable completions,
                    # keep the most merged (fewest members) — that is the
                    # reading _should_defer was holding out for, and the
                    # first completion to arrive is not necessarily it.
                    current = self.deferred.get(group.group_id)
                    if current is None or len(slot) < len(current[1]):
                        self.deferred[group.group_id] = (
                            canopy_index,
                            dict(slot),
                        )
                    continue
                self.commit(group, canopy_index, slot)
                return

    def commit(
        self,
        group: MentionGroup,
        canopy_index: int,
        slot: Dict[Span, _Proposal],
    ) -> None:
        newly_committed: List[Span] = []
        for mention, proposal in slot.items():
            if mention not in self.gamma:
                self.gamma[mention] = proposal
                self.selected_concepts.add(proposal.candidate.concept_id)
                self.committed_spans[mention] = group.group_id
                for token in range(mention.token_start, mention.token_end):
                    self.claimed_tokens.setdefault(token, set()).add(
                        group.group_id
                    )
                newly_committed.append(mention)
        self.active.discard(group.group_id)
        self.committed_canopies[group.group_id] = canopy_index
        # The group's unselected mentions die (strategy 3), and so does
        # every span of any other group that overlaps a just-committed
        # mention — it can never be selected without contradicting the
        # committed reading.  The token index finds the overlapping spans
        # directly instead of scanning every candidate span.
        for span in group.spans():
            if span not in self.gamma:
                self.dead_mentions.add(span)
        for committed in newly_committed:
            for span in self.span_index.overlapping(committed):
                if span not in self.gamma:
                    self.dead_mentions.add(span)

    def commit_deferred(self) -> None:
        for group_id, (canopy_index, slot) in self.deferred.items():
            if group_id not in self.active:
                continue
            safe_slot = {
                mention: proposal
                for mention, proposal in slot.items()
                if not self.claimed_by_other(mention, group_id)
            }
            if not safe_slot:
                continue
            self.commit(self.group_by_id[group_id], canopy_index, safe_slot)


# ---------------------------------------------------------------------------
# edge handling
# ---------------------------------------------------------------------------

def _scan_edges(
    cover: TreeCoverResult,
    extra_edges: Union[None, EdgeArrays, List[Tuple[_Node, _Node, float]]],
) -> List[Tuple[_Node, _Node, float]]:
    """The scan's edge pool: deduplicated edges, non-decreasing weight.

    The pool takes the cover's tree edges, then *extra_edges*: either
    arrays over a coherence graph's node ids or ``(u, v, weight)``
    triples.  Pushes are keyed by the unordered pair of endpoint repr
    ranks (:func:`~repro.core.coherence.repr_ranks`, over mentions and
    candidates together), so recurring occurrences of one surface with
    one candidate share a key.  A key keeps the *minimum* weight: a
    tree edge and a shared-pool edge can carry different weights for
    the same pair, and the scan must see the most confident version.
    Of the pushes at that weight, the earliest one's orientation is
    kept.  Ties in weight go to longer mentions (the paper's preference
    for merged long-text readings over their fragments), then to the
    endpoint reprs, then to the pool position of the key's first push.
    """
    pushes = [
        (edge.parent, edge.child, edge.weight)
        for tree in cover.trees.values()
        for edge in tree.edges()
    ]
    if isinstance(extra_edges, EdgeArrays):
        nodes, rank = extra_edges.graph.nodes, extra_edges.graph.rank
        tail = (extra_edges.u, extra_edges.v, extra_edges.w)
    else:
        pushes.extend(extra_edges or ())
        nodes = list(dict.fromkeys(n for u, v, _ in pushes for n in (u, v)))
        rank = repr_ranks(nodes)
        no_ids = np.zeros(0, dtype=np.int64)
        tail = (no_ids, no_ids, np.zeros(0))
    index = {node: i for i, node in enumerate(nodes)}
    u = np.concatenate(
        (np.array([index[e[0]] for e in pushes], dtype=np.int64), tail[0])
    )
    v = np.concatenate(
        (np.array([index[e[1]] for e in pushes], dtype=np.int64), tail[1])
    )
    w = np.concatenate((np.array([e[2] for e in pushes], dtype=np.float64), tail[2]))
    if w.size == 0:
        return []

    rank_u, rank_v = rank[u], rank[v]
    keys = np.minimum(rank_u, rank_v) * (int(rank.max()) + 1) + np.maximum(
        rank_u, rank_v
    )
    _, first, key_of = np.unique(keys, return_index=True, return_inverse=True)
    least = np.full(first.size, np.inf)
    np.minimum.at(least, key_of, w)
    at_least = np.nonzero(w == least[key_of])[0]
    kept = np.full(first.size, w.size)
    np.minimum.at(kept, key_of[at_least], at_least)

    length = np.array(
        [node.length if isinstance(node, Span) else 0 for node in nodes],
        dtype=np.int64,
    )
    length_u, length_v = length[u[kept]], length[v[kept]]
    mention_length = np.where(
        (length_u > 0) != (length_v > 0), length_u + length_v, 0
    )
    order = kept[
        np.lexsort(
            (first, rank_v[kept], rank_u[kept], -mention_length, least)
        )
    ]
    # Object pushes come back as pushed; array pushes become triples.
    return [
        pushes[p] if p < len(pushes) else (nodes[a], nodes[b], weight)
        for p, a, b, weight in zip(
            order.tolist(), u[order].tolist(), v[order].tolist(), w[order].tolist()
        )
    ]


def _touches_dead_mention(u: _Node, v: _Node, dead: Set[Span]) -> bool:
    for node in (u, v):
        if isinstance(node, CandidateNode) and node.mention in dead:
            return True
        if isinstance(node, Span) and node in dead:
            return True
    return False


def _proposals_for_edge(
    u: _Node,
    v: _Node,
    weight: float,
    gamma: Dict[Span, "_Proposal"],
    selected_concepts: Set[str],
) -> List[_Proposal]:
    if isinstance(u, Span) and isinstance(v, CandidateNode):
        mention, candidate = u, v
        if mention in gamma:
            return []
        return [_Proposal(mention, candidate, weight, from_coherence=False)]
    if isinstance(v, Span) and isinstance(u, CandidateNode):
        mention, candidate = v, u
        if mention in gamma:
            return []
        return [_Proposal(mention, candidate, weight, from_coherence=False)]
    if isinstance(u, CandidateNode) and isinstance(v, CandidateNode):
        proposals: List[_Proposal] = []
        u_linked = u.mention in gamma
        v_linked = v.mention in gamma
        # Entity<->predicate edges carry asymmetric evidence: a predicate
        # is close to *every* participant of its relation type, so such
        # an edge discriminates between predicate senses but says nothing
        # about which entity sense is right.  Only the predicate side may
        # be proposed from a mixed edge.
        u_votable = not (u.kind == "entity" and v.kind == "predicate")
        v_votable = not (v.kind == "entity" and u.kind == "predicate")
        if not u_linked and not v_linked:
            if u_votable:
                proposals.append(
                    _Proposal(
                        u.mention, u, weight, True, partner_concept=v.concept_id
                    )
                )
            if v_votable:
                proposals.append(
                    _Proposal(
                        v.mention, v, weight, True, partner_concept=u.concept_id
                    )
                )
        elif u.concept_id in selected_concepts and not v_linked:
            if v_votable:
                proposals.append(
                    _Proposal(
                        v.mention, v, weight, True, partner_concept=u.concept_id
                    )
                )
        elif v.concept_id in selected_concepts and not u_linked:
            if u_votable:
                proposals.append(
                    _Proposal(
                        u.mention, u, weight, True, partner_concept=v.concept_id
                    )
                )
        return proposals
    # Span-Span edges never exist in the coherence graph; tolerate and skip.
    return []


def _should_defer(group: MentionGroup, canopy_index: int) -> bool:
    """Whether a completed canopy should wait for a more merged sibling."""
    size = len(group.canopies[canopy_index])
    return any(
        index != canopy_index
        and len(canopy) < size
        and canopy.all_members_linkable
        for index, canopy in enumerate(group.canopies)
    )


# ---------------------------------------------------------------------------
# output assembly
# ---------------------------------------------------------------------------

def _collect_non_linkable(
    groups: List[MentionGroup],
    state: _ScanState,
) -> List[Span]:
    """Uncommitted groups become non-linkable (new concept) reports.

    For each group that never committed a canopy, report its widest
    representative mention, unless every token of it is claimed by a
    committed mention of another group (then it lost an overlap fight and
    is noise, not a new concept).
    """
    non_linkable: List[Span] = []
    for group in groups:
        if group.group_id not in state.active:
            continue
        representative = _representative_span(group)
        if representative is None:
            continue
        if state.claimed_at_all(representative):
            continue
        non_linkable.append(representative)
    return non_linkable


def _representative_span(group: MentionGroup) -> Optional[Span]:
    best: Optional[Span] = None
    for canopy in group.canopies:
        for span in canopy.members:
            if best is None or span.length > best.length:
                best = span
    return best


def _apply_prior_threshold(
    gamma: Dict[Span, _Proposal],
    threshold: float,
) -> Tuple[Dict[Span, CandidateNode], int]:
    """Drop links committed by a weak prior alone.

    A mention committed through its own mention->candidate edge (no
    coherence evidence) with local distance above *threshold* is too
    uncertain to report: the candidate was far-fetched and nothing in the
    document supported it.  Dropping these is TENET's precision-leaning
    behaviour on ambiguous isolated phrases; genuinely new concepts (no
    candidates at all) are reported separately via uncommitted groups.
    """
    kept: Dict[Span, CandidateNode] = {}
    demoted = 0
    for mention, proposal in gamma.items():
        if not proposal.from_coherence and proposal.weight > threshold:
            demoted += 1
            continue
        kept[mention] = proposal.candidate
    return kept, demoted
