"""Mention groups and canopies (Sec. 5.1, Algorithm 4).

Overlapping mentions ("Fellow", "AAAS", "Fellow of the AAAS") must not all
enter the final linking; the paper organises them as follows:

* **short-text mentions** (Definition 7) contain no linguistic feature;
  here they are the maximal feature-free noun spans;
* a **mention group** (Definition 8) is a maximal chain of short-text
  mentions connected by linguistic features (Algorithm 4's queue scan);
* the **canopies** of a group (Definition 9) are the alternative ways of
  merging the chain into long-text mentions: every contiguous partition
  of the chain whose multi-mention segments correspond to actually
  extracted long spans yields one canopy.

Relational phrases and noun spans not reachable through the partition
semantics get singleton groups; exclusivity between overlapping mentions
of *different* groups is enforced by the disambiguation algorithm's
overlap pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.nlp.features import classify_gap, contains_feature
from repro.nlp.spans import Span, SpanIndex, Token, spans_overlap

_MAX_CHAIN_FOR_FULL_ENUMERATION = 6
_MAX_CANOPIES = 24


@dataclass(frozen=True)
class Canopy:
    """One alternative set of final mentions for a group.

    ``all_members_linkable`` records whether every member has KB
    candidates (filled in when the group builder is given a candidate
    oracle); the disambiguation algorithm prefers committing the most
    merged *achievable* reading, so a split reading completing first is
    deferred while a fuller linkable reading is still in play.
    """

    members: Tuple[Span, ...]
    all_members_linkable: bool = field(default=True, compare=False)

    def __contains__(self, span: Span) -> bool:
        return span in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class MentionGroup:
    """A group of correlated short-text mentions with its canopies."""

    group_id: int
    short_mentions: Tuple[Span, ...]
    canopies: Tuple[Canopy, ...]

    def spans(self) -> Set[Span]:
        """Every span appearing in any canopy of the group."""
        result: Set[Span] = set()
        for canopy in self.canopies:
            result |= set(canopy.members)
        return result

    @property
    def is_singleton(self) -> bool:
        return len(self.short_mentions) == 1 and len(self.canopies) == 1


def build_mention_groups(
    tokens: List[Token],
    noun_spans: List[Span],
    relation_spans: List[Span],
    has_candidates=None,
) -> List[MentionGroup]:
    """Algorithm 4: partition mentions into groups and generate canopies.

    ``has_candidates`` (optional ``Span -> bool``) enables *fallback
    canopies*: when a canopy member has no KB candidates (e.g. the OOV
    span "Mr Miller"), a variant canopy substitutes its widest contained
    span that does have candidates ("Miller"), so the group can still
    commit a reading.
    """
    inventory = sorted(noun_spans, key=lambda s: (s.token_start, s.token_end))
    index = SpanIndex(inventory)
    short_mentions = _select_short_text_mentions(tokens, inventory)
    chains = _chain_short_mentions(tokens, short_mentions)

    groups: List[MentionGroup] = []
    assigned: Set[Span] = set()
    for chain in chains:
        canopies = _generate_canopies(chain, index)
        if has_candidates is not None:
            canopies = _add_fallback_canopies(canopies, index, has_candidates)
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

    # Noun spans not reachable through the canopy semantics: spans that
    # merely repeat part of an already-grouped reading (contained in or
    # overlapping an assigned span) are redundant alternatives and stay
    # groupless — the disambiguation algorithm treats groupless mentions
    # as dead.  Genuinely disjoint leftovers get singleton groups.
    claimed = SpanIndex(assigned)
    for span in inventory:
        if span in assigned:
            continue
        if any(spans_overlap(span, other) for other in claimed.overlapping(span)):
            continue
        groups.append(MentionGroup(len(groups), (span,), (Canopy((span,)),)))
        assigned.add(span)
        claimed.add(span)

    for span in relation_spans:
        groups.append(MentionGroup(len(groups), (span,), (Canopy((span,)),)))
    return groups


def _add_fallback_canopies(
    canopies: Tuple[Canopy, ...],
    index: SpanIndex,
    has_candidates,
) -> Tuple[Canopy, ...]:
    """Variant canopies substituting candidate-less members (see above).

    The spans a member covers all start inside it, so the index's
    start-token buckets hold every one, in inventory order.
    """
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
                for s in index.starting_within(member)
                if member.covers(s)
                and not s.same_range(member)
                and has_candidates(s)
            ]
            if inner:
                # Widest first; on ties prefer the rightmost span — the
                # syntactic head of an English noun phrase ("Ms Weber"
                # falls back to "Weber", not "Ms").
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


# ---------------------------------------------------------------------------
# short-text mention selection
# ---------------------------------------------------------------------------

def _select_short_text_mentions(
    tokens: List[Token], inventory: List[Span]
) -> List[Span]:
    """Maximal feature-free noun spans, in document order.

    A span covering another contains its first token, so only the spans
    at that token are tested.  Two distinct spans over one range cover
    each other, and both drop out.
    """
    feature_free = [s for s in inventory if not contains_feature(tokens, s)]
    index = SpanIndex(feature_free)
    maximal: List[Span] = []
    for span in feature_free:
        if any(
            other is not span and other.covers(span)
            for other in index.covering(span.token_start)
        ):
            continue
        maximal.append(span)
    maximal.sort(key=lambda s: s.token_start)
    return maximal


def _chain_short_mentions(
    tokens: List[Token], short_mentions: List[Span]
) -> List[List[Span]]:
    """Group consecutive short mentions connected by a feature (same sentence)."""
    chains: List[List[Span]] = []
    current: List[Span] = []
    for mention in short_mentions:
        if not current:
            current = [mention]
            continue
        previous = current[-1]
        connected = (
            previous.sentence_index == mention.sentence_index
            and classify_gap(tokens, previous.token_end, mention.token_start)
            is not None
        )
        if connected:
            current.append(mention)
        else:
            chains.append(current)
            current = [mention]
    if current:
        chains.append(current)
    return chains


# ---------------------------------------------------------------------------
# canopy generation
# ---------------------------------------------------------------------------

def _generate_canopies(
    chain: Sequence[Span], index: SpanIndex
) -> Tuple[Canopy, ...]:
    """All contiguous-partition canopies of *chain*.

    A multi-mention segment chain[i..j] participates only when the
    document actually contains a long span covering it; minor slack at
    the left edge (a leading determiner present or absent) is allowed so
    "The Storm" + "Sea" can merge into "Storm on the Sea".
    """
    if len(chain) == 1:
        return (Canopy((chain[0],)),)
    if len(chain) > _MAX_CHAIN_FOR_FULL_ENUMERATION:
        canopies = [Canopy(tuple(chain))]
        full = _segment_spans(chain, 0, len(chain) - 1, index)
        for span in full[:1]:
            canopies.append(Canopy((span,)))
        return tuple(canopies)

    partitions = _partitions(chain, index)
    canopies: List[Canopy] = []
    seen: Set[Tuple[Span, ...]] = set()
    for members in partitions:
        key = tuple(members)
        if key not in seen:
            seen.add(key)
            canopies.append(Canopy(key))
        if len(canopies) >= _MAX_CANOPIES:
            break
    return tuple(canopies)


def _partitions(
    chain: Sequence[Span], index: SpanIndex
) -> List[List[Span]]:
    """Enumerate contiguous partitions (each as the resulting member list)."""
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
                for merged in _segment_spans(chain, start, end, index):
                    acc.append(merged)
                    recurse(end + 1, acc)
                    acc.pop()

    recurse(0, [])
    # All-singles partition first (it is always generated first by the
    # recursion order), then increasingly merged ones.
    return results


def _segment_spans(
    chain: Sequence[Span], start: int, end: int, index: SpanIndex
) -> List[Span]:
    """Inventory spans realising the merge of chain[start..end]."""
    left = chain[start]
    right = chain[end]
    allowed_starts = {left.token_start, left.token_start + 1, left.token_start - 1}
    matches = [
        span
        for span in index.ending_at(right.token_end)
        if span.token_start in allowed_starts
        and span.token_start < right.token_start
    ]
    # Prefer the widest realisation (closest to the chain's full extent).
    matches.sort(key=lambda s: (-s.length, s.token_start))
    return matches[:2]
