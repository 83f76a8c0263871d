"""Deterministic inputs of the workloads.

Every document and session script is a pure function of the workload
seed and of the world the server serves (world seed 7), generated with
the repository's own generators.  The server only ever sees what these
functions produce.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.datasets.benchmarks import (
    build_kore50,
    build_msnbc19,
    build_news,
    build_trex42,
)
from repro.datasets.generator import DocumentGenerator, DocumentSpec
from repro.datasets.schema import AnnotatedDocument, GoldMention
from repro.kb.synthetic import SyntheticWorld
from repro.nlp.spans import SpanKind
from repro.session.workloads import conversation_scripts, split_text

#: The world every server in the benchmark serves (the snapshot seed).
WORLD_SEED = 7

#: Workload seed of the recorded input digests (``--seed`` default).
DEFAULT_SEED = 1

#: The paper's dataset analogs, in batch rotation order.
DATASETS = {
    "News": build_news,
    "T-REx42": build_trex42,
    "KORE50": build_kore50,
    "MSNBC19": build_msnbc19,
}

#: Fig. 7 document sizes in facts (~250 to ~3600 words).
FIG7_SIZES = (16, 32, 64, 128, 256)

#: Session lengths of the stream sessions, in increments.
STREAM_CHUNKS = (3, 12)


@dataclass(frozen=True)
class Doc:
    """One generated document with its gold (never sent to the server)."""

    doc_id: str
    text: str
    gold: Tuple[GoldMention, ...]
    relation_gold: bool

    @property
    def words(self) -> int:
        return len(self.text.split())


@dataclass(frozen=True)
class SessionScript:
    """One session: the increments to feed, and the final text's gold."""

    session_id: str
    kind: str  # "stream" | "conversation"
    chunks: Tuple[str, ...]
    gold: Tuple[GoldMention, ...]
    relation_gold: bool


def derive(seed: int, *parts: object) -> int:
    """A sub-seed for one generator, stable across processes and runs."""
    key = json.dumps([seed, *parts]).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _docs_of(name: str, world: SyntheticWorld, seed: int) -> List[Doc]:
    dataset = DATASETS[name](world, seed=seed)
    return [
        Doc(f"{name}-{seed % 10**6}-{d.doc_id}", d.text, tuple(d.gold), dataset.has_relation_gold)
        for d in dataset.documents
    ]


def dataset_documents(world: SyntheticWorld, seed: int, name: str) -> Iterator[Doc]:
    """Endless fresh documents of one dataset analog, in dataset order."""
    block = 0
    while True:
        yield from _docs_of(name, world, derive(seed, name, block))
        block += 1


def fig7_spec(facts: int) -> DocumentSpec:
    """The Fig. 7 runtime-vs-length generator spec at *facts* facts."""
    return DocumentSpec(
        domain="computer_science",
        facts=facts,
        isolated_facts=max(1, facts // 8),
        non_linkable_noun_sentences=1,
        non_linkable_relation_sentences=1,
        filler_sentences=facts,
        pronoun_prob=0.2,
        title_facts=1,
    )


def fig7_documents(world: SyntheticWorld, seed: int) -> Iterator[Doc]:
    """Endless rotations over :data:`FIG7_SIZES`, a fresh document each."""
    rotation = 0
    while True:
        generator = DocumentGenerator(world, derive(seed, "fig7", rotation))
        for facts in FIG7_SIZES:
            document = generator.generate(f"fig7-{rotation}-{facts}", fig7_spec(facts))
            yield Doc(document.doc_id, document.text, tuple(document.gold), True)
        rotation += 1


def _conversation(doc: Doc, seed: int, session_id: str):
    """A scripted dialog from *doc*, with gold offsets in the joined text."""
    annotated = AnnotatedDocument(doc.doc_id, doc.text, list(doc.gold))
    scripts = conversation_scripts([annotated], seed=seed, limit=1)
    if not scripts:
        return None
    turns = [turn.utterance for turn in scripts[0].turns]
    text = "\n".join(turns)
    opening = turns[0]
    gold = [
        g
        for g in doc.gold
        if g.kind is SpanKind.NOUN and g.concept_id and g.char_end <= len(opening)
    ]
    offset = len(opening) + 1
    surfaces = {
        g.concept_id: g.surface for g in doc.gold if g.kind is SpanKind.NOUN and g.concept_id
    }
    for turn in scripts[0].turns[1:]:
        for concept in turn.expected_concepts:
            surface = surfaces.get(concept)
            at = turn.utterance.find(surface) if surface else -1
            if at >= 0:
                start = offset + at
                gold.append(GoldMention(surface, start, start + len(surface), SpanKind.NOUN, concept))
        offset += len(turn.utterance) + 1
    for g in gold:
        if text[g.char_start:g.char_end] != g.surface:
            raise RuntimeError(f"conversation gold {g} does not match its text")
    return SessionScript(session_id, "conversation", tuple(turns), tuple(gold), False)


def session_scripts(world: SyntheticWorld, seed: int) -> Iterator[SessionScript]:
    """Endless sessions: two streams, then one conversation, repeating.

    Stream sessions feed a fresh News or T-REx document in
    sentence-aligned chunks; every ten stream sessions take each length
    from 3 to 12 increments once, in a seeded order.  Conversation
    sessions are the repository's scripted dialogs (opening, anaphora
    and re-mention turns) over a fresh document.
    """
    news = dataset_documents(world, seed, "News")
    trex = dataset_documents(world, seed, "T-REx42")
    lengths: List[int] = []
    streams = 0
    for index in itertools.count():
        doc = next(news if index % 2 else trex)
        session_id = f"s{seed % 10**6}-{index:04d}"
        script = None
        if index % 3 == 2:
            script = _conversation(doc, derive(seed, "dialog", index) % 10**6, session_id)
        if script is None:
            if not lengths:
                lengths = list(range(STREAM_CHUNKS[0], STREAM_CHUNKS[1] + 1))
                random.Random(derive(seed, "lengths", streams)).shuffle(lengths)
            rng = random.Random(derive(seed, "session", index))
            chunks = split_text(doc.text, lengths.pop(), rng, sentence_aligned=True)
            script = SessionScript(session_id, "stream", tuple(chunks), doc.gold, doc.relation_gold)
            streams += 1
        yield script


def dataset_batches(world: SyntheticWorld, seed: int) -> Iterator[Tuple[str, List[Doc]]]:
    """Endless rotations News, T-REx, KORE50, MSNBC: one fresh dataset each."""
    rotation = 0
    while True:
        for name in DATASETS:
            yield name, _docs_of(name, world, derive(seed, "batch", name, rotation))
        rotation += 1


def digest(items: Sequence[object]) -> str:
    """Short SHA-256 of the canonical JSON of *items*."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def doc_item(doc: Doc) -> Dict[str, object]:
    """The digestable form of a document: id, text and gold."""
    return {
        "id": doc.doc_id,
        "text": doc.text,
        "gold": [[g.char_start, g.char_end, g.kind.name, g.concept_id] for g in doc.gold],
    }


def script_item(script: SessionScript) -> Dict[str, object]:
    return {
        "id": script.session_id,
        "kind": script.kind,
        "chunks": list(script.chunks),
        "gold": [[g.char_start, g.char_end, g.kind.name, g.concept_id] for g in script.gold],
    }
