"""The end-to-end TENET linker facade.

``TenetLinker.link(text)`` runs the full pipeline of the paper:
extraction -> candidate generation -> knowledge coherence graph ->
minimum-cost rooted tree cover -> mention groups/canopies -> greedy
disambiguation -> linked entities, linked predicates, and non-linkable
(isolated / new) concepts.

:class:`LinkingContext` bundles the shared substrate (KB, alias index,
embeddings, extraction pipeline) so that TENET and every baseline link
over identical inputs, as in the paper's experimental setup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.candidates import CandidateGenerator, MentionCandidates
from repro.core.canopies import Canopy, MentionGroup, build_mention_groups
from repro.core.coherence import CoherenceGraph, build_coherence_graph
from repro.core.config import TenetConfig
from repro.core.deadline import Deadline, DeadlineExceeded, PartialLinking
from repro.core.disambiguation import DisambiguationResult, disambiguate
from repro.core.result import Link, LinkingResult
from repro.core.tree_cover import TreeCoverResult, derive_tree_cover
from repro.embeddings.similarity import SimilarityIndex
from repro.embeddings.store import EmbeddingStore
from repro.embeddings.trainer import EmbeddingTrainer, TrainerConfig
from repro.kb.alias_index import AliasIndex
from repro.kb.store import KnowledgeBase
from repro.kb.types import DEFAULT_TAXONOMY, TypeTaxonomy
from repro.nlp.pipeline import DocumentExtraction, ExtractionPipeline
from repro.nlp.spans import Span, SpanKind
from repro.obs.trace import Trace


@dataclass
class LinkingContext:
    """Shared substrate: one per KB, reused across documents and systems."""

    kb: KnowledgeBase
    alias_index: AliasIndex
    embeddings: EmbeddingStore
    taxonomy: TypeTaxonomy = field(default_factory=lambda: DEFAULT_TAXONOMY)

    @classmethod
    def build(
        cls,
        kb: KnowledgeBase,
        taxonomy: Optional[TypeTaxonomy] = None,
        trainer_config: TrainerConfig = TrainerConfig(),
    ) -> "LinkingContext":
        """Index the KB and train embeddings (the offline preparation)."""
        taxonomy = taxonomy or DEFAULT_TAXONOMY
        alias_index = AliasIndex.from_kb(kb, taxonomy)
        embeddings = EmbeddingTrainer(kb, trainer_config).train()
        return cls(kb, alias_index, embeddings, taxonomy)

    def save(self, directory) -> None:
        """Persist the context (KB dump + embeddings) to *directory*.

        The alias index is rebuilt on load — it is derived data and
        cheaper to regenerate than to serialise.
        """
        from pathlib import Path

        from repro.kb.dump import save_dump

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_dump(self.kb, directory / "kb.json")
        self.embeddings.save(directory / "embeddings")

    @classmethod
    def load(cls, directory, taxonomy: Optional[TypeTaxonomy] = None):
        """Load a context previously written by :meth:`save`.

        Embeddings are memory-mapped, the access pattern the paper uses
        to serve PyTorch-BigGraph vectors at link time.
        """
        from pathlib import Path

        from repro.kb.dump import load_dump

        directory = Path(directory)
        kb = load_dump(directory / "kb.json")
        embeddings = EmbeddingStore.load(directory / "embeddings")
        taxonomy = taxonomy or DEFAULT_TAXONOMY
        alias_index = AliasIndex.from_kb(kb, taxonomy)
        return cls(kb, alias_index, embeddings, taxonomy)


@dataclass
class LinkingDiagnostics:
    """Intermediate artefacts of one linking run (for tests and Fig. 7)."""

    extraction: DocumentExtraction
    candidates: MentionCandidates
    coherence: CoherenceGraph
    cover: TreeCoverResult
    groups: List[MentionGroup]
    disambiguation: DisambiguationResult
    result: LinkingResult
    elapsed_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def mention_count(self) -> int:
        return len(self.candidates.by_mention)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def cover_edge_count(self) -> int:
        return self.cover.total_edges


class TenetLinker:
    """Tree-cover-based joint entity and relation linker (the paper)."""

    name = "TENET"

    def __init__(
        self,
        context: LinkingContext,
        config: TenetConfig = TenetConfig(),
    ) -> None:
        self.context = context
        self.config = config
        self.pipeline = ExtractionPipeline(
            context.alias_index,
            max_span_tokens=config.max_span_tokens,
            infer_types=config.use_type_filter,
        )
        self.generator = CandidateGenerator(
            context.alias_index,
            max_candidates=config.max_candidates,
            min_prior=config.min_prior,
            use_fuzzy=config.use_fuzzy_candidates,
        )
        self.similarity = SimilarityIndex(context.embeddings)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def link(
        self,
        text: str,
        deadline: Optional[Deadline] = None,
        trace: Optional[Trace] = None,
    ) -> LinkingResult:
        """Link one document end to end.

        With a *deadline*, each stage boundary (and the row blocks of
        the coherence build and the inner loops of the tree-cover solve
        and the greedy disambiguation) checks the token and raises
        :class:`~repro.core.deadline.DeadlineExceeded` carrying the
        salvageable partial artefacts.  With a *trace*,
        each stage records a span carrying the stage's wall clock (the
        same measurement stored in ``result.stage_seconds``) and its
        size attributes (mention/candidate counts, graph sizes).
        """
        return self.link_detailed(text, deadline=deadline, trace=trace).result

    def link_detailed(
        self,
        text: str,
        deadline: Optional[Deadline] = None,
        trace: Optional[Trace] = None,
    ) -> LinkingDiagnostics:
        """Link one document, returning every intermediate artefact.

        Per-stage wall-clock timings are recorded once here (and in
        :meth:`_link_candidates`) and attached to both the diagnostics
        and ``result.stage_seconds`` — the single source of truth that
        ``eval/timing.py``, the serving layer's metrics, and the trace
        spans read; a span's duration IS the stage timing, so the two
        can never drift apart.
        """
        timings: Dict[str, float] = {}
        started = time.perf_counter()
        extraction: Optional[DocumentExtraction] = None
        candidates: Optional[MentionCandidates] = None
        try:
            if deadline is not None:
                deadline.check("extract")
            extraction = self.pipeline.extract(text)
            timings["extract"] = time.perf_counter() - started
            if trace is not None:
                trace.record(
                    "extract",
                    timings["extract"],
                    words=extraction.word_count,
                    noun_spans=len(extraction.noun_spans),
                    relation_spans=len(extraction.relation_spans),
                )
            if deadline is not None:
                deadline.check("candidates")
            stage = time.perf_counter()
            candidates = self.generator.generate(extraction)
            timings["candidates"] = time.perf_counter() - stage
            if trace is not None:
                trace.record(
                    "candidates",
                    timings["candidates"],
                    mentions=len(candidates.by_mention),
                    total_candidates=candidates.total_candidates,
                )
            diagnostics = self._link_candidates(
                extraction,
                candidates,
                timings=timings,
                deadline=deadline,
                trace=trace,
            )
        except DeadlineExceeded as exc:
            # Attach whatever is salvageable so the caller can build a
            # degraded answer without recomputing the finished stages.
            if exc.partial is None:
                exc.partial = PartialLinking(extraction, candidates, dict(timings))
            if trace is not None:
                trace.mark_aborted(exc.stage)
            raise
        diagnostics.elapsed_seconds = time.perf_counter() - started
        timings["total"] = diagnostics.elapsed_seconds
        diagnostics.stage_seconds = timings
        diagnostics.result.stage_seconds = dict(timings)
        if trace is not None:
            trace.record("total", timings["total"])
        return diagnostics

    def link_prior_only(
        self, text: str, trace: Optional[Trace] = None
    ) -> LinkingResult:
        """Fast degraded linking: extraction + top-prior candidate only.

        Skips the coherence graph, tree cover, and greedy disambiguation
        entirely — each mention commits to its highest-prior candidate
        unless that candidate's local distance exceeds the non-linkable
        threshold.  The serving layer uses this as the graceful
        fallback when a request exceeds its deadline.
        """
        timings: Dict[str, float] = {}
        started = time.perf_counter()
        extraction = self.pipeline.extract(text)
        timings["extract"] = time.perf_counter() - started
        if trace is not None:
            trace.record("extract", timings["extract"],
                         words=extraction.word_count)
        stage = time.perf_counter()
        candidates = self.generator.generate(extraction)
        timings["candidates"] = time.perf_counter() - stage
        if trace is not None:
            trace.record("candidates", timings["candidates"],
                         mentions=len(candidates.by_mention))
        result = self.prior_only_from_candidates(
            candidates, timings=timings, trace=trace
        )
        result.stage_seconds["total"] = time.perf_counter() - started
        return result

    def prior_only_from_candidates(
        self,
        candidates: MentionCandidates,
        timings: Optional[Dict[str, float]] = None,
        trace: Optional[Trace] = None,
    ) -> LinkingResult:
        """The prior-only answer for already-generated *candidates*.

        This is the tail of :meth:`link_prior_only` split out so a
        cancelled full run can be degraded from its partial state — the
        extraction and candidate generation it already paid for are
        reused instead of recomputed.  Given the same candidates, the
        links are identical to :meth:`link_prior_only`'s.
        """
        timings = {} if timings is None else dict(timings)
        stage = time.perf_counter()
        result = LinkingResult()
        for mention, hits in candidates.by_mention.items():
            best = hits[0] if hits else None
            if best is None or best.local_distance > self.config.prior_link_threshold:
                result.non_linkable.append(mention)
                continue
            link = Link(mention, best.concept_id, score=best.prior)
            if mention.kind is SpanKind.NOUN and best.kind == "entity":
                result.entity_links.append(link)
            elif mention.kind is SpanKind.RELATION and best.kind == "predicate":
                result.relation_links.append(link)
            else:
                result.non_linkable.append(mention)
        result.entity_links.sort(key=lambda l: l.span.token_start)
        result.relation_links.sort(key=lambda l: l.span.token_start)
        result.non_linkable.sort(key=lambda s: s.token_start)
        timings["prior_only"] = time.perf_counter() - stage
        if trace is not None:
            trace.record(
                "prior_only",
                timings["prior_only"],
                entity_links=len(result.entity_links),
                relation_links=len(result.relation_links),
                non_linkable=len(result.non_linkable),
            )
        result.stage_seconds = timings
        return result

    def explain(self, text: str):
        """Link *text* and return (result, explanations).

        ``explanations`` maps each linked mention span to a
        :class:`~repro.core.disambiguation.LinkExplanation` describing
        the committing evidence — whether the decision came from a
        coherence edge (and with which anchor concept) or from the
        mention's own prior.
        """
        diagnostics = self.link_detailed(text)
        return diagnostics.result, diagnostics.disambiguation.provenance

    def disambiguate_mentions(
        self, text: str, mentions: Sequence[Span]
    ) -> LinkingResult:
        """Entity/predicate disambiguation with mentions given as input.

        This is the Fig. 6(b) evaluation mode: mention detection is
        bypassed, each provided span forms its own singleton group, and
        only the coherence machinery decides the links.
        """
        by_mention = {}
        for span in mentions:
            if span.kind is SpanKind.NOUN:
                by_mention[span] = self.generator.entity_candidates(span)
            else:
                by_mention[span] = self.generator.predicate_candidates(span)
        candidates = MentionCandidates(by_mention)
        coherence = build_coherence_graph(
            by_mention,
            self.similarity,
            predicate_similarity_scale=self.config.predicate_similarity_scale,
            prior_distance_floor=self.config.prior_distance_floor,
            coherence_prior_blend=self.config.coherence_prior_blend,
            prior_distance_curve=self.config.prior_distance_curve,
            max_neighbours=self.config.coherence_max_neighbours,
        )
        cover = derive_tree_cover(coherence, self.config.tree_weight_bound)
        # In disambiguation-only mode every provided mention is its own
        # singleton group: mention selection is out of scope by design.
        groups = [
            MentionGroup(i, (span,), (Canopy((span,)),))
            for i, span in enumerate(by_mention)
        ]
        disambiguation = disambiguate(
            cover,
            groups,
            self.config.prior_link_threshold,
            extra_edges=coherence.shared_edges(cover.bound),
        )
        return self._to_result(disambiguation, candidates)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _link_candidates(
        self,
        extraction: DocumentExtraction,
        candidates: MentionCandidates,
        timings: Optional[Dict[str, float]] = None,
        deadline: Optional[Deadline] = None,
        trace: Optional[Trace] = None,
    ) -> LinkingDiagnostics:
        if timings is None:
            timings = {}
        if deadline is not None:
            deadline.check("coherence")
        stage = time.perf_counter()
        coherence = build_coherence_graph(
            candidates.by_mention,
            self.similarity,
            predicate_similarity_scale=self.config.predicate_similarity_scale,
            prior_distance_floor=self.config.prior_distance_floor,
            coherence_prior_blend=self.config.coherence_prior_blend,
            prior_distance_curve=self.config.prior_distance_curve,
            max_neighbours=self.config.coherence_max_neighbours,
            deadline=deadline,
        )
        timings["coherence"] = time.perf_counter() - stage
        if trace is not None:
            trace.record(
                "coherence",
                timings["coherence"],
                nodes=coherence.graph.node_count,
                edges=coherence.graph.edge_count,
                mentions=coherence.mention_count,
            )
        if deadline is not None:
            deadline.check("grouping")
        stage = time.perf_counter()
        if self.config.use_canopies:
            groups = build_mention_groups(
                extraction.tokens,
                extraction.noun_spans,
                extraction.relation_spans,
                has_candidates=lambda span: bool(candidates.by_mention.get(span)),
            )
        else:
            # Ablation: no mention groups/canopies — every span competes
            # as its own singleton group; only the greedy overlap pruning
            # arbitrates between overlapping readings.
            groups = [
                MentionGroup(i, (span,), (Canopy((span,)),))
                for i, span in enumerate(
                    extraction.noun_spans + extraction.relation_spans
                )
            ]
        timings["grouping"] = time.perf_counter() - stage
        if trace is not None:
            trace.record("grouping", timings["grouping"], groups=len(groups))
        if deadline is not None:
            deadline.check("tree_cover")
        stage = time.perf_counter()
        cover = derive_tree_cover(
            coherence, self.config.tree_weight_bound, deadline=deadline
        )
        timings["tree_cover"] = time.perf_counter() - stage
        if trace is not None:
            trace.record(
                "tree_cover", timings["tree_cover"],
                cover_edges=cover.total_edges,
            )
        if deadline is not None:
            deadline.check("disambiguation")
        stage = time.perf_counter()
        disambiguation = disambiguate(
            cover,
            groups,
            self.config.prior_link_threshold,
            extra_edges=coherence.shared_edges(cover.bound),
            deadline=deadline,
        )
        timings["disambiguation"] = time.perf_counter() - stage
        result = self._to_result(disambiguation, candidates)
        if trace is not None:
            trace.record(
                "disambiguation",
                timings["disambiguation"],
                entity_links=len(result.entity_links),
                relation_links=len(result.relation_links),
                non_linkable=len(result.non_linkable),
            )
        return LinkingDiagnostics(
            extraction=extraction,
            candidates=candidates,
            coherence=coherence,
            cover=cover,
            groups=groups,
            disambiguation=disambiguation,
            result=result,
        )

    def _to_result(
        self,
        disambiguation: DisambiguationResult,
        candidates: MentionCandidates,
    ) -> LinkingResult:
        result = LinkingResult(non_linkable=list(disambiguation.non_linkable))
        for mention, node in disambiguation.gamma.items():
            prior = _prior_of(candidates, mention, node.concept_id)
            link = Link(mention, node.concept_id, score=prior)
            if mention.kind is SpanKind.NOUN and node.kind == "entity":
                result.entity_links.append(link)
            elif mention.kind is SpanKind.RELATION and node.kind == "predicate":
                result.relation_links.append(link)
        result.entity_links.sort(key=lambda l: l.span.token_start)
        result.relation_links.sort(key=lambda l: l.span.token_start)
        return result


def _prior_of(
    candidates: MentionCandidates, mention: Span, concept_id: str
) -> float:
    for hit in candidates.candidates(mention):
        if hit.concept_id == concept_id:
            return hit.prior
    return 0.0
