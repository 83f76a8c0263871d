"""Linking results shared by TENET and all baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.nlp.spans import Span, SpanKind


@dataclass(frozen=True)
class Link:
    """One linked mention: a span mapped to a KB concept id."""

    span: Span
    concept_id: str
    score: float = field(default=0.0, compare=False)

    @property
    def kind(self) -> SpanKind:
        return self.span.kind

    @property
    def surface(self) -> str:
        return self.span.text


@dataclass
class LinkingResult:
    """Output of one linker on one document.

    ``entity_links`` / ``relation_links`` are the committed linkings
    (Problem 1's N* and R*); ``non_linkable`` are mentions the system
    explicitly reports as new/isolated concepts (scored in Fig. 6(c)).
    """

    entity_links: List[Link] = field(default_factory=list)
    relation_links: List[Link] = field(default_factory=list)
    non_linkable: List[Span] = field(default_factory=list)
    # Wall-clock seconds per pipeline stage (plus a "total" key), filled
    # by the linker so that eval/timing.py and the serving layer's
    # /metrics endpoint report from one source of truth.  Excluded from
    # equality: two runs of the same document are the same result.
    stage_seconds: Dict[str, float] = field(default_factory=dict, compare=False)
    # For a degraded (prior-only) result built after a cooperative
    # cancellation: the pipeline stage whose checkpoint tripped.  Like
    # the timings it is run metadata, not part of the linking answer, so
    # it is excluded from equality and from the deterministic payload.
    aborted_stage: Optional[str] = field(default=None, compare=False)

    @property
    def links(self) -> List[Link]:
        return self.entity_links + self.relation_links

    def entity_mentions(self) -> List[Span]:
        return [link.span for link in self.entity_links]

    def relation_mentions(self) -> List[Span]:
        return [link.span for link in self.relation_links]

    def find_entity(self, surface: str) -> Optional[Link]:
        """First entity link whose surface matches (case-insensitive)."""
        lowered = surface.lower()
        for link in self.entity_links:
            if link.surface.lower() == lowered:
                return link
        return None

    def find_relation(self, surface: str) -> Optional[Link]:
        lowered = surface.lower()
        for link in self.relation_links:
            if link.surface.lower() == lowered:
                return link
        return None

    def entity_clusters(self) -> Dict[str, List[Link]]:
        """Entity links grouped by concept id — the document-level
        co-reference clusters the linking induces (all mentions of the
        same entity, in document order)."""
        clusters: Dict[str, List[Link]] = {}
        for link in self.entity_links:
            clusters.setdefault(link.concept_id, []).append(link)
        for links in clusters.values():
            links.sort(key=lambda l: l.span.token_start)
        return clusters

    def to_json(self, include_timings: bool = True) -> Dict[str, object]:
        """JSON-compatible representation of the result.

        ``include_timings=False`` omits the wall-clock ``timings`` block,
        which is the deterministic form the serving layer uses so that
        identical documents produce byte-identical response bodies.
        """
        def link_payload(link: Link) -> Dict[str, object]:
            return {
                "surface": link.surface,
                "char_start": link.span.char_start,
                "char_end": link.span.char_end,
                "concept_id": link.concept_id,
                "score": link.score,
            }

        payload: Dict[str, object] = {
            "entities": [link_payload(l) for l in self.entity_links],
            "relations": [link_payload(l) for l in self.relation_links],
            "non_linkable": [
                {
                    "surface": span.text,
                    "char_start": span.char_start,
                    "char_end": span.char_end,
                }
                for span in self.non_linkable
            ],
        }
        if include_timings and self.stage_seconds:
            payload["timings"] = dict(self.stage_seconds)
        if include_timings and self.aborted_stage is not None:
            payload["aborted_stage"] = self.aborted_stage
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkingResult(entities={len(self.entity_links)}, "
            f"relations={len(self.relation_links)}, "
            f"non_linkable={len(self.non_linkable)})"
        )
