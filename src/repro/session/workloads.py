"""Deterministic session workloads: stream chunkings + conversation scripts.

Synthetic but gold-bearing workloads for the two session front doors,
in the repo's frozen-dataclass gold-set idiom: every entry is a frozen
record, generation is a deterministic index loop over a seeded RNG, and
the whole set serialises to one JSON payload that the snapshot store
persists as a versioned artifact (``sessions/<scale>/workloads.json``).

* **Stream workloads** cut existing scale documents into K chunks at
  whitespace boundaries chosen by the seeded RNG.  The chunks
  concatenate back to the document byte-for-byte, so the one-shot
  linking of the document is the parity reference for feeding the
  chunks through a :class:`~repro.session.sessions.StreamingSession`.
  The document's gold mentions ride along for F1 scoring.
* **Conversation scripts** are short dialogs synthesised from a
  document's linkable gold entities: an opening turn quoting the
  document, a pronoun turn exercising anaphora (the pronoun's concept
  must be inherited from the previous turn's entity via coref), and a
  topic re-mention turn repeating an earlier entity (exercising the
  context-prior boost).  Each turn lists the concept ids it expects in
  the session's accumulated linking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets.schema import AnnotatedDocument, GoldMention
from repro.nlp.spans import SpanKind

# Version of the generated payload; folded into the snapshot content
# key so a generator change produces a different snapshot id.
SESSION_WORKLOAD_FORMAT_VERSION = 2


@dataclass(frozen=True)
class StreamWorkload:
    """One document as a deterministic K-chunk stream, with its gold."""

    workload_id: str
    doc_id: str
    chunks: Tuple[str, ...]
    gold: Tuple[GoldMention, ...]

    @property
    def text(self) -> str:
        return "".join(self.chunks)


@dataclass(frozen=True)
class ConversationTurn:
    """One utterance plus the concepts it expects in the session state."""

    utterance: str
    expected_concepts: Tuple[str, ...]
    exercises: str  # "opening" | "anaphora" | "re-mention"


@dataclass(frozen=True)
class ConversationScript:
    """A scripted multi-turn dialog with per-turn expectations."""

    script_id: str
    turns: Tuple[ConversationTurn, ...]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def stream_chunkings(
    documents: Sequence[AnnotatedDocument],
    chunks: int = 3,
    seed: int = 7,
    limit: Optional[int] = 8,
    sentence_aligned: bool = True,
) -> List[StreamWorkload]:
    """Cut *documents* into deterministic K-chunk streams."""
    if chunks < 2:
        raise ValueError("chunks must be >= 2")
    workloads: List[StreamWorkload] = []
    for index, document in enumerate(documents):
        if limit is not None and len(workloads) >= limit:
            break
        rng = random.Random(seed * 1000 + index)
        parts = split_text(
            document.text, chunks, rng, sentence_aligned=sentence_aligned
        )
        if len(parts) < 2:
            continue
        workloads.append(
            StreamWorkload(
                workload_id=f"stream-{index:03d}",
                doc_id=document.doc_id,
                chunks=tuple(parts),
                gold=tuple(document.gold),
            )
        )
    return workloads


def split_text(
    text: str,
    chunks: int,
    rng: random.Random,
    sentence_aligned: bool = False,
) -> List[str]:
    """Split *text* into up to *chunks* pieces at token boundaries.

    The pieces concatenate back to *text* exactly; boundaries are drawn
    without replacement from eligible cut positions, so every chunk is
    non-empty and no byte is lost.  With ``sentence_aligned`` the cuts
    land just after a ``". "`` sentence break (falling back to word
    boundaries when the text has too few sentences), which keeps earlier
    increments' tokenisation stable.  Without it, cuts land just after
    any space, including mid-sentence.
    """
    boundaries: List[int] = []
    if sentence_aligned:
        boundaries = [
            i + 2
            for i in range(len(text) - 2)
            if text[i : i + 2] == ". "
        ]
    if not boundaries:
        boundaries = [
            i + 1 for i, ch in enumerate(text[:-1]) if ch == " "
        ]
    if not boundaries or chunks < 2:
        return [text]
    cuts = sorted(rng.sample(boundaries, min(chunks - 1, len(boundaries))))
    parts: List[str] = []
    previous = 0
    for cut in cuts:
        parts.append(text[previous:cut])
        previous = cut
    parts.append(text[previous:])
    return parts


def _is_person_surface(surface: str) -> bool:
    tokens = surface.split()
    return 1 <= len(tokens) <= 3 and all(
        token[0].isupper() and token.isalpha() for token in tokens
    )


def _linkable_entities(document: AnnotatedDocument) -> List[GoldMention]:
    return [
        gold
        for gold in document.gold
        if gold.kind is SpanKind.NOUN and gold.is_linkable
    ]


def conversation_scripts(
    documents: Sequence[AnnotatedDocument],
    seed: int = 7,
    limit: Optional[int] = 6,
) -> List[ConversationScript]:
    """Synthesise dialog scripts with anaphora and topic re-mention."""
    scripts: List[ConversationScript] = []
    for index, document in enumerate(documents):
        if limit is not None and len(scripts) >= limit:
            break
        entities = _linkable_entities(document)
        persons = [g for g in entities if _is_person_surface(g.surface)]
        if not persons or len(entities) < 2:
            continue
        rng = random.Random(seed * 2000 + index)
        anchor = persons[0]
        others = [g for g in entities if g.concept_id != anchor.concept_id]
        if not others:
            continue
        other = others[rng.randrange(len(others))]
        # Opening turn: the document prefix up to the first sentence end
        # past both mentions, so the anchor is on the table.
        stop = max(anchor.char_end, other.char_end)
        period = document.text.find(". ", stop)
        opening = (
            document.text[: period + 1]
            if period != -1
            else document.text
        )
        turns = (
            ConversationTurn(
                utterance=opening,
                expected_concepts=tuple(
                    sorted(
                        {
                            g.concept_id
                            for g in entities
                            if g.char_end <= len(opening) and g.concept_id
                        }
                    )
                ),
                exercises="opening",
            ),
            ConversationTurn(
                utterance=f"He discussed {other.surface} at length.",
                expected_concepts=(other.concept_id,),
                exercises="anaphora",
            ),
            ConversationTurn(
                utterance=f"Later {anchor.surface} returned to the topic.",
                expected_concepts=(anchor.concept_id,),
                exercises="re-mention",
            ),
        )
        scripts.append(
            ConversationScript(
                script_id=f"conversation-{index:03d}", turns=turns
            )
        )
    return scripts


# ---------------------------------------------------------------------------
# payload (snapshot artifact) serialisation
# ---------------------------------------------------------------------------

def build_session_workloads(
    documents: Sequence[AnnotatedDocument],
    seed: int = 7,
    chunks: int = 3,
    stream_limit: Optional[int] = 8,
    script_limit: Optional[int] = 6,
) -> Dict[str, object]:
    """The JSON payload persisted by the snapshot store."""
    streams = stream_chunkings(
        documents, chunks=chunks, seed=seed, limit=stream_limit
    )
    scripts = conversation_scripts(documents, seed=seed, limit=script_limit)
    return {
        "format_version": SESSION_WORKLOAD_FORMAT_VERSION,
        "seed": seed,
        "chunks": chunks,
        "sentence_aligned": True,
        "streams": [
            {
                "workload_id": w.workload_id,
                "doc_id": w.doc_id,
                "chunks": list(w.chunks),
                "gold": [
                    {
                        "surface": g.surface,
                        "char_start": g.char_start,
                        "char_end": g.char_end,
                        "kind": g.kind.name,
                        "concept_id": g.concept_id,
                    }
                    for g in w.gold
                ],
            }
            for w in streams
        ],
        "conversations": [
            {
                "script_id": s.script_id,
                "turns": [
                    {
                        "utterance": t.utterance,
                        "expected_concepts": list(t.expected_concepts),
                        "exercises": t.exercises,
                    }
                    for t in s.turns
                ],
            }
            for s in scripts
        ],
    }


def workloads_from_payload(
    payload: Dict[str, object],
) -> Tuple[List[StreamWorkload], List[ConversationScript]]:
    """Rehydrate the frozen records from a persisted payload."""
    version = payload.get("format_version")
    if version != SESSION_WORKLOAD_FORMAT_VERSION:
        raise ValueError(
            f"unsupported session workload format {version!r} "
            f"(expected {SESSION_WORKLOAD_FORMAT_VERSION})"
        )
    streams = [
        StreamWorkload(
            workload_id=entry["workload_id"],
            doc_id=entry["doc_id"],
            chunks=tuple(entry["chunks"]),
            gold=tuple(
                GoldMention(
                    surface=g["surface"],
                    char_start=g["char_start"],
                    char_end=g["char_end"],
                    kind=SpanKind[g["kind"]],
                    concept_id=g["concept_id"],
                )
                for g in entry["gold"]
            ),
        )
        for entry in payload.get("streams", [])
    ]
    scripts = [
        ConversationScript(
            script_id=entry["script_id"],
            turns=tuple(
                ConversationTurn(
                    utterance=t["utterance"],
                    expected_concepts=tuple(t["expected_concepts"]),
                    exercises=t["exercises"],
                )
                for t in entry["turns"]
            ),
        )
        for entry in payload.get("conversations", [])
    ]
    return streams, scripts
