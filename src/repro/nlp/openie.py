"""Verb-centric Open Information Extraction (MinIE-safe-mode stand-in).

Relational phrases are extracted from the gaps between top-level nominal
regions of a sentence:

* **adjacent pair** (R_i, R_{i+1}): if the gap contains a verbal token,
  the trimmed verbal stretch is a relational phrase connecting the two
  regions;
* **bridged pair** (R_i, R_{i+2}): when the whole stretch between R_i and
  R_{i+2} (including the middle region) matches a predicate alias in the
  gazetteer — e.g. "is the sister city of" — it becomes one relational
  phrase absorbing the middle region.

Each extraction carries *surface variants* (full phrase, phrase without
leading auxiliaries, lemmatised head) tried in order during candidate
predicate lookup, mirroring the paper's lemmatisation step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.nlp import pos
from repro.nlp.lemmatizer import lemma_variants
from repro.nlp.spans import Sentence, Span, SpanKind, Token

_VERBAL_TAGS = {pos.VERB, pos.AUX}
_TRAIL_TAGS = {pos.ADP}  # particles/prepositions may close the phrase
_AUX_WORDS_SKIPPABLE = {"is", "was", "are", "were", "has", "have", "had", "be", "been"}


@dataclass(frozen=True)
class ExtractedRelation:
    """A relational phrase with its subject/object noun regions."""

    span: Span
    subject: Span
    object: Span
    surface_variants: Tuple[str, ...]


class RelationExtractor:
    """Extracts relational phrases between nominal regions."""

    def __init__(
        self, predicate_gazetteer: Optional[Callable[[str], bool]] = None
    ) -> None:
        self._gazetteer = predicate_gazetteer

    def extract(
        self,
        text: str,
        tokens: List[Token],
        tags: List[str],
        sentences: List[Sentence],
        regions: List[Span],
    ) -> List[ExtractedRelation]:
        """All relational phrases, document order."""
        by_sentence: Dict[int, List[Span]] = {}
        for region in regions:
            by_sentence.setdefault(region.sentence_index, []).append(region)
        relations: List[ExtractedRelation] = []
        for sentence in sentences:
            in_sentence = by_sentence.get(sentence.index, [])
            in_sentence.sort(key=lambda r: r.token_start)
            relations.extend(
                self._sentence_relations(text, tokens, tags, in_sentence)
            )
        return relations

    # ------------------------------------------------------------------
    def _sentence_relations(
        self,
        text: str,
        tokens: List[Token],
        tags: List[str],
        regions: List[Span],
    ) -> List[ExtractedRelation]:
        relations: List[ExtractedRelation] = []
        for i in range(len(regions) - 1):
            subject = regions[i]
            # The adjacent extraction is the baseline reading; bridged /
            # absorbing variants recover multi-word predicate aliases
            # ("is the sister city of") that swallow nominal material.
            # All variants are emitted — span selection is the linker's
            # job (the paper's Sec. 6.2 discusses exactly this conflict).
            adjacent = self._gap_relation(
                text, tokens, tags, subject, regions[i + 1]
            )
            if adjacent is not None:
                relations.append(adjacent)
            absorbing = self._absorbing_relation(
                text, tokens, tags, subject, regions[i + 1]
            )
            if absorbing is not None:
                relations.append(absorbing)
            if i + 2 < len(regions):
                bridged = self._bridged_relation(
                    text, tokens, tags, subject, regions[i + 1], regions[i + 2]
                )
                if bridged is not None:
                    relations.append(bridged)
        return relations

    def _absorbing_relation(
        self,
        text: str,
        tokens: List[Token],
        tags: List[str],
        subject: Span,
        obj: Span,
    ) -> Optional[ExtractedRelation]:
        """Extend the relational phrase into the object region's prefix.

        "Rome is the sister city of Paris" tags "sister" verbally, so the
        object region becomes "city of Paris"; the true predicate alias
        absorbs the region's prefix.  For each nominal split point inside
        the object region, the stretch from the subject to that point is
        tested against the predicate gazetteer.
        """
        if self._gazetteer is None:
            return None
        start = subject.token_end
        for split in range(obj.token_start + 1, obj.token_end):
            if tags[split] not in ("PROPN", "NOUN", "NUM"):
                continue
            if split - start > 7:
                break
            surface = text[tokens[start].start : tokens[split - 1].end]
            if not self._gazetteer(surface):
                continue
            span = _relation_span(text, tokens, start, split, subject.sentence_index)
            new_obj = Span(
                text=text[tokens[split].start : tokens[obj.token_end - 1].end],
                token_start=split,
                token_end=obj.token_end,
                sentence_index=obj.sentence_index,
                kind=SpanKind.NOUN,
                char_start=tokens[split].start,
                char_end=tokens[obj.token_end - 1].end,
            )
            return ExtractedRelation(span, subject, new_obj, (surface,))
        return None

    def _gap_relation(
        self,
        text: str,
        tokens: List[Token],
        tags: List[str],
        subject: Span,
        obj: Span,
    ) -> Optional[ExtractedRelation]:
        gap_start, gap_end = subject.token_end, obj.token_start
        if gap_end <= gap_start:
            return None
        verb_positions = [
            i for i in range(gap_start, gap_end) if tags[i] in _VERBAL_TAGS
        ]
        if not verb_positions:
            return None
        start = verb_positions[0]
        end = verb_positions[-1] + 1
        # Extend over trailing particles/prepositions up to the object.
        while end < gap_end and tags[end] in _TRAIL_TAGS:
            end += 1
        span = _relation_span(text, tokens, start, end, subject.sentence_index)
        variants = _surface_variants(tokens, tags, start, end, span.text)
        return ExtractedRelation(span, subject, obj, variants)

    def _bridged_relation(
        self,
        text: str,
        tokens: List[Token],
        tags: List[str],
        subject: Span,
        middle: Span,
        obj: Span,
    ) -> Optional[ExtractedRelation]:
        if self._gazetteer is None:
            return None
        start, end = subject.token_end, obj.token_start
        if end <= start or end - start > 7:
            return None
        surface = text[tokens[start].start : tokens[end - 1].end]
        if not self._gazetteer(surface):
            return None
        span = _relation_span(text, tokens, start, end, subject.sentence_index)
        return ExtractedRelation(span, subject, obj, (surface,))


def _relation_span(
    text: str, tokens: List[Token], start: int, end: int, sentence_index: int
) -> Span:
    char_start = tokens[start].start
    char_end = tokens[end - 1].end
    return Span(
        text=text[char_start:char_end],
        token_start=start,
        token_end=end,
        sentence_index=sentence_index,
        kind=SpanKind.RELATION,
        char_start=char_start,
        char_end=char_end,
    )


def _surface_variants(
    tokens: List[Token], tags: List[str], start: int, end: int, full_text: str
) -> Tuple[str, ...]:
    """Lookup variants: full phrase, sans-auxiliary, lemmatised head."""
    variants: List[str] = [full_text]
    # Without leading auxiliaries: "was awarded" -> "awarded".
    core_start = start
    while (
        core_start < end - 1
        and tokens[core_start].lower in _AUX_WORDS_SKIPPABLE
    ):
        core_start += 1
    if core_start != start:
        stripped = " ".join(t.text for t in tokens[core_start:end])
        variants.append(stripped)
    # Lemmatised head: "studied at" -> "study at"; single "studies" ->
    # "study".
    words = [t.text for t in tokens[core_start:end]]
    if words:
        for lemma in lemma_variants(words[0]):
            candidate = " ".join([lemma] + [w.lower() for w in words[1:]])
            variants.append(candidate)
    deduped: List[str] = []
    for variant in variants:
        lowered = variant.lower()
        if lowered not in (v.lower() for v in deduped):
            deduped.append(variant)
    return tuple(deduped)
