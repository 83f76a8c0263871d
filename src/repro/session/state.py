"""Incremental linking state: the engine room of ``repro.session``.

:class:`IncrementalLinker` keeps one document's linking state alive
across text increments.  Each ``feed(chunk)`` re-extracts the (cheap)
surface structure over the accumulated text, resolves candidates
through a session-local memo keyed exactly like the serving layer's
candidate cache, and then re-runs the one-shot solve
(`TenetLinker._link_candidates`) over the accumulated document.  This
is byte-identical to linking the final text in one shot, by
construction: same extraction, same candidate values (the memo returns
exactly what the generator would), same solver path.  The session
amortises work through the candidate memo and the service-level caches.

State is committed only after a solve succeeds: a deadline abort or any
other exception leaves the session exactly as it was before the feed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.core.candidates import MentionCandidates
from repro.core.deadline import Deadline
from repro.core.linker import TenetLinker
from repro.core.result import LinkingResult
from repro.kb.alias_index import CandidateHit
from repro.nlp.pipeline import DocumentExtraction
from repro.nlp.spans import Span
from repro.textnorm import normalize_phrase


@dataclass
class IncrementOutcome:
    """What one ``feed``/``turn`` returned, plus its bookkeeping."""

    result: LinkingResult
    increment: int  # 1-based index of this increment within the session
    solve: str  # what this increment ran: "initial" | "full"
    new_mentions: int
    reused_mentions: int
    removed_mentions: int
    memo_hits: int
    memo_misses: int
    coref_inherited: List[Dict[str, object]]
    elapsed_seconds: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    text_length: int = 0

    def mention_counts(self) -> Dict[str, int]:
        return {
            "new": self.new_mentions,
            "reused": self.reused_mentions,
            "removed": self.removed_mentions,
        }


class IncrementalLinker:
    """One document's linking state, advanced chunk by chunk."""

    def __init__(self, linker: TenetLinker) -> None:
        self.linker = linker
        self.text = ""
        self.increment = 0
        self._memo: Dict[tuple, Tuple[CandidateHit, ...]] = {}
        self._mentions: Set[Span] = set()
        self._result: Optional[LinkingResult] = None

    # ------------------------------------------------------------------
    @property
    def result(self) -> Optional[LinkingResult]:
        return self._result

    @property
    def mention_count(self) -> int:
        return len(self._mentions)

    # ------------------------------------------------------------------
    def feed(
        self,
        chunk: str,
        separator: str = "",
        boost_concepts: Optional[Set[str]] = None,
        boost: float = 0.0,
        deadline: Optional[Deadline] = None,
        trace=None,
    ) -> IncrementOutcome:
        """Advance the session by one text increment.

        Raises whatever the underlying solve raises (notably
        :class:`~repro.core.deadline.DeadlineExceeded`); the session
        state is unchanged on any failure — commit happens last.
        """
        started = time.perf_counter()
        text = self.text + (separator if self.text else "") + chunk
        timings: Dict[str, float] = {}

        if deadline is not None:
            deadline.check("extract")
        stage = time.perf_counter()
        extraction = self.linker.pipeline.extract(text)
        timings["extract"] = time.perf_counter() - stage

        if deadline is not None:
            deadline.check("candidates")
        stage = time.perf_counter()
        candidates, memo_hits, memo_misses = self._candidates(
            extraction, boost_concepts, boost
        )
        timings["candidates"] = time.perf_counter() - stage

        current_mentions = set(candidates.by_mention)
        new_spans = current_mentions - self._mentions
        removed_spans = self._mentions - current_mentions
        reused_spans = current_mentions & self._mentions

        result = self.linker._link_candidates(
            extraction,
            candidates,
            timings=timings,
            deadline=deadline,
            trace=trace,
        ).result
        solve = "initial" if self._result is None else "full"

        coref = self._coref_inherited(extraction, result)
        elapsed = time.perf_counter() - started
        timings["total"] = elapsed
        result.stage_seconds = dict(timings)

        # Commit only now: everything above is side-effect free on the
        # session (the candidate memo is a value cache).
        self.text = text
        self.increment += 1
        self._mentions = current_mentions
        self._result = result

        return IncrementOutcome(
            result=result,
            increment=self.increment,
            solve=solve,
            new_mentions=len(new_spans),
            reused_mentions=len(reused_spans),
            removed_mentions=len(removed_spans),
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            coref_inherited=coref,
            elapsed_seconds=elapsed,
            stage_seconds=dict(timings),
            text_length=len(text),
        )

    # ------------------------------------------------------------------
    # candidates: session memo (+ conversational prior boost)
    # ------------------------------------------------------------------
    def _candidates(
        self,
        extraction: DocumentExtraction,
        boost_concepts: Optional[Set[str]],
        boost: float,
    ) -> Tuple[MentionCandidates, int, int]:
        by_mention: Dict[Span, List[CandidateHit]] = {}
        hits_count = 0
        misses = 0
        generator = self.linker.generator
        for span in extraction.noun_spans:
            key = ("entity", normalize_phrase(span.text), span.mention_type)
            cached = self._memo.get(key)
            if cached is None:
                cached = tuple(generator.entity_candidates(span))
                self._memo[key] = cached
                misses += 1
            else:
                hits_count += 1
            by_mention[span] = self._boosted(cached, boost_concepts, boost)
        for relation in extraction.relations:
            variants = relation.surface_variants or (relation.span.text,)
            key = ("predicate",) + tuple(normalize_phrase(v) for v in variants)
            cached = self._memo.get(key)
            if cached is None:
                cached = tuple(
                    generator.predicate_candidates(
                        relation.span, relation.surface_variants
                    )
                )
                self._memo[key] = cached
                misses += 1
            else:
                hits_count += 1
            by_mention[relation.span] = self._boosted(
                cached, boost_concepts, boost
            )
        return MentionCandidates(by_mention), hits_count, misses

    @staticmethod
    def _boosted(
        hits: Tuple[CandidateHit, ...],
        boost_concepts: Optional[Set[str]],
        boost: float,
    ) -> List[CandidateHit]:
        if not boost_concepts or boost <= 0.0:
            return list(hits)
        out: List[CandidateHit] = []
        changed = False
        for hit in hits:
            if hit.concept_id in boost_concepts:
                out.append(
                    replace(hit, prior=min(1.0, hit.prior + boost))
                )
                changed = True
            else:
                out.append(hit)
        if changed:
            # Stable by descending prior, like the alias index ordering.
            out.sort(key=lambda h: -h.prior)
        return out

    # ------------------------------------------------------------------
    # coref threading
    # ------------------------------------------------------------------
    @staticmethod
    def _coref_inherited(
        extraction: DocumentExtraction, result: LinkingResult
    ) -> List[Dict[str, object]]:
        """Anaphoric mentions inheriting a resolved concept.

        ``repro.nlp.coref`` maps pronoun token indices to antecedent
        nominal regions; any entity link whose span overlaps the
        antecedent region hands its concept to the pronoun.
        """
        inherited: List[Dict[str, object]] = []
        if not extraction.pronoun_antecedents:
            return inherited
        for index in sorted(extraction.pronoun_antecedents):
            antecedent = extraction.pronoun_antecedents[index]
            for link in result.entity_links:
                span = link.span
                if (
                    span.token_start < antecedent.token_end
                    and antecedent.token_start < span.token_end
                ):
                    inherited.append(
                        {
                            "pronoun_index": index,
                            "pronoun": extraction.tokens[index].text,
                            "antecedent": antecedent.text,
                            "concept_id": link.concept_id,
                        }
                    )
                    break
        return inherited
