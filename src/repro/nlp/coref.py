"""Heuristic pronoun co-reference.

The paper canonicalises noun phrases by co-reference [13] before linking.
For the synthetic documents (news-register prose) the classic recency
heuristic is sound: a third-person subject pronoun resolves to the most
recent preceding person-like nominal region.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.nlp import pos
from repro.nlp.spans import Span, Token

_SUBJECT_PRONOUNS = {"he", "she", "they", "it"}
_PERSON_PRONOUNS = {"he", "she"}


def resolve_pronouns(
    tokens: List[Token],
    tags: List[str],
    regions: List[Span],
) -> Dict[int, Span]:
    """Map pronoun token index -> antecedent nominal region.

    Only subject pronouns are resolved.  Person pronouns ("he"/"she")
    prefer the most recent region that looks like a person name (1-3
    capitalised tokens); "it"/"they" take the most recent region of any
    shape.  Pronouns with no preceding candidate stay unresolved.
    """
    resolved: Dict[int, Span] = {}
    sorted_regions = sorted(regions, key=lambda r: r.token_start)
    # One forward sweep: pronouns come in token order, and the regions a
    # pronoun may take are those before the first region (by start)
    # ending after it, a prefix that only grows from one pronoun to the
    # next.
    position = 0
    latest: Optional[Span] = None
    latest_person: Optional[Span] = None
    for token, tag in zip(tokens, tags):
        if tag != pos.PRON or token.lower not in _SUBJECT_PRONOUNS:
            continue
        while (
            position < len(sorted_regions)
            and sorted_regions[position].token_end <= token.index
        ):
            region = sorted_regions[position]
            latest = region
            if _looks_like_person(tokens, region):
                latest_person = region
            position += 1
        antecedent = latest_person if token.lower in _PERSON_PRONOUNS else latest
        if antecedent is not None:
            resolved[token.index] = antecedent
    return resolved


def _looks_like_person(tokens: List[Token], region: Span) -> bool:
    if not 1 <= region.length <= 3:
        return False
    return all(
        tokens[i].is_capitalized
        for i in range(region.token_start, region.token_end)
    )
