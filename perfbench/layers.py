"""Per-layer metrics from a traced run's spans and the client's timings.

Spans come from ``tracer/benchtrace.py``; their names are
``<layer>:<function>``.  A span's self time is its duration minus the
union of its children (:func:`stats.self_time`); the waits of a request
are the gaps between its spans, across threads and processes (the span
clock is ``CLOCK_MONOTONIC``).  Spans join the client's records by the
request id the benchmark put on each request (a batch document's id is
``<batch id>/<index>``).

The stage times (``nlp.extract_ms``, ``core.candidates.ms``, ...) and
the ``growth_exp`` fits come instead from the ``timings`` block of the
untraced pass's answers (:func:`stage_metrics`): the wrappers, the
per-call counters above all, slow the stages they time.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import stats

#: Stage name in a response's ``timings`` block -> the span timing it.
STAGE_SPANS = {
    "extract": "nlp:extract",
    "candidates": "core.candidates:generate",
    "coherence": "core.coherence:build_coherence_graph",
    "grouping": "core.canopies:build_mention_groups",
    "tree_cover": "core.tree_cover:derive_tree_cover",
    "disambiguation": "core.disambiguation:disambiguate",
}

#: A wrapper's span and the linker's own stopwatch agree when they
#: differ by at most this many ms plus this share of the stage time.
PARITY_ABS_MS = 0.5
PARITY_REL = 0.02

#: Stage name in a response's ``timings`` block -> its per-layer metric.
STAGE_METRICS = {
    "extract": "nlp.extract_ms",
    "candidates": "core.candidates.ms",
    "coherence": "core.coherence.ms",
    "grouping": "core.canopies.ms",
    "tree_cover": "core.tree_cover.ms",
    "disambiguation": "core.disambiguation.ms",
}

#: Stages with a ``<layer>.growth_exp`` fit.
_GROWTH_STAGES = {
    "coherence": "core.coherence",
    "grouping": "core.canopies",
    "tree_cover": "core.tree_cover",
    "disambiguation": "core.disambiguation",
}

_NLP_STEPS = ("tokenize", "tag", "chunk", "openie", "coref")


def load_spans(directory: Path) -> List[dict]:
    spans = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle)
    return spans


def op_of(rid: Optional[str]) -> Optional[str]:
    return rid.split("/", 1)[0] if rid else None


class Trace:
    """Indexes over one traced run's spans."""

    def __init__(self, spans: Sequence[dict], op_ids: Iterable[str]) -> None:
        wanted = set(op_ids)
        self.all = list(spans)
        self.spans = [s for s in spans if op_of(s["rid"]) in wanted]
        self.children: Dict[str, List[dict]] = defaultdict(list)
        for span in self.all:
            if span["parent"]:
                self.children[span["parent"]].append(span)
        self.by_name: Dict[str, List[dict]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span["name"]].append(span)

    def named(self, name: str) -> List[dict]:
        return self.by_name.get(name, [])

    def self_s(self, span: dict) -> float:
        kids = [(c["start"], c["end"]) for c in self.children.get(span["id"], ())]
        return stats.self_time((span["start"], span["end"]), kids)

    def descendants(self, span: dict, name: str) -> List[dict]:
        """Outermost descendants called *name* (not nested in another)."""
        found, queue = [], list(self.children.get(span["id"], ()))
        while queue:
            child = queue.pop()
            if child["name"] == name:
                found.append(child)
            else:
                queue.extend(self.children.get(child["id"], ()))
        return found


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _ms(values: Sequence[float]) -> float:
    return 1000.0 * stats.median(values) if values else 0.0


def _sum_attr(spans: Iterable[dict], key: str) -> float:
    return sum(s["attrs"].get(key, 0) for s in spans)


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


def _layer(metrics: dict, trace: Trace, prefix: str, spans: List[dict],
           self_key: Optional[str] = None) -> None:
    """Calls and busy seconds of one layer; with *self_key*, the median
    self time per call in ms too.  Stage layers (no *self_key*) count
    whole calls as busy time and take their ms from :func:`stage_metrics`.
    """
    times = [trace.self_s(s) if self_key else _dur(s) for s in spans]
    metrics[f"{prefix}.calls"] = len(spans)
    metrics[f"{prefix}.busy_s"] = sum(times)
    if self_key:
        metrics[self_key] = _ms(times)


def stage_metrics(answers: Sequence) -> Dict[str, float]:
    """Stage ms and ``growth_exp`` fits from the answers' own ``timings``.

    Over every full (not degraded) answer that carries timings; a stage
    time is the median over those answers.  ``growth_exp`` is the slope
    of log(stage ms) against log(words linked): the words of the text a
    ``/link`` or ``/batch`` document sent, or of a stream's accumulated
    prefix (conversation turns are left out).
    """
    full = [a for a in answers if not a.degraded and a.timings]
    metrics = {
        name: _ms([a.timings[stage] for a in full if stage in a.timings])
        for stage, name in STAGE_METRICS.items()
    }
    linked = [a for a in full if a.expect.ref[0] == "link"]
    for stage, layer in _GROWTH_STAGES.items():
        timed = [a for a in linked if stage in a.timings]
        exponent = stats.growth_exponent(
            [len(a.expect.ref[1].split()) for a in timed],
            [1000.0 * a.timings[stage] for a in timed],
        )
        metrics[f"{layer}.growth_exp"] = 0.0 if math.isnan(exponent) else exponent
    return metrics


def analyse(
    spans: Sequence[dict], records: Sequence, server_pid: int, setup_s: float
) -> Dict[str, float]:
    """Every span-derived per-layer metric of one traced pass.

    *records* are the pass's timed client records.
    """
    trace = Trace(spans, (r.op_id for r in records))
    metrics: Dict[str, float] = {}
    record_of = {r.op_id: r for r in records}

    # client
    metrics["client.requests"] = len(records)

    # service.server
    handlers = trace.named("service.server:do_POST")
    _layer(metrics, trace, "service.server", handlers, "service.server.handler_self_ms")
    parse, encode, wire = [], [], []
    for span in handlers:
        kids = sorted(trace.children.get(span["id"], ()), key=lambda c: c["start"])
        if kids:
            parse.append(kids[0]["start"] - span["start"])
            encode.append(span["end"] - max(k["end"] for k in kids))
        record = record_of.get(span["rid"])
        if record is not None:
            wire.append((record.done - record.sent) - _dur(span))
    metrics["service.server.parse_ms"] = _ms(parse)
    metrics["service.server.encode_ms"] = _ms(encode)
    metrics["service.server.wire_ms"] = _ms(wire)

    # service.overload
    admits = trace.named("service.overload:admit")
    dispatches = trace.named("service.overload:dispatch")
    metrics["service.overload.calls"] = len(admits)
    metrics["service.overload.busy_s"] = sum(trace.self_s(s) for s in admits + dispatches)
    metrics["service.overload.queue_wait_ms"] = _ms(
        [s["start"] - s["attrs"]["admitted_at"] for s in dispatches]
    )
    metrics["service.overload.admitted"] = sum(1 for s in admits if "error" not in s["attrs"])
    metrics["service.overload.rejected"] = sum(1 for s in admits if "error" in s["attrs"])
    metrics["service.overload.degraded"] = len(trace.named("core.linker:link_prior_only"))

    # service.engine
    handles = trace.named("service.engine:handle")
    _layer(metrics, trace, "service.engine", handles, "service.engine.handle_self_ms")
    last_dispatch: Dict[str, float] = {}
    for span in dispatches:
        op = op_of(span["rid"])
        last_dispatch[op] = max(last_dispatch.get(op, 0.0), span["end"])
    waits = [s for name, group in trace.by_name.items() if name.startswith("wait.engine:") for s in group]
    metrics["service.engine.await_ms"] = _ms(
        [s["end"] - last_dispatch[op_of(s["rid"])] for s in waits if op_of(s["rid"]) in last_dispatch]
    )

    # service.cluster
    sends = trace.named("service.cluster:dispatch")
    metrics["service.cluster.calls"] = len(sends)
    metrics["service.cluster.busy_s"] = sum(_dur(s) for s in sends)
    worker_handles = {s["rid"]: s for s in handles if s["pid"] != server_pid}
    out, back = [], []
    per_worker: Dict[str, int] = defaultdict(int)
    for span in sends:
        per_worker[span["attrs"].get("worker")] += 1
        remote = worker_handles.get(span["rid"])
        if remote is not None:
            out.append(remote["start"] - span["start"])
            if "replied_at" in span["attrs"]:
                back.append(span["attrs"]["replied_at"] - remote["end"])
    metrics["service.cluster.pipe_out_ms"] = _ms(out)
    metrics["service.cluster.pipe_back_ms"] = _ms(back)
    metrics["service.cluster.dispatch_share_max"] = (
        max(per_worker.values()) / len(sends) if sends else 0.0
    )
    boots = [_dur(s) for s in trace.all if s["name"] == "service.cluster:worker_boot"]
    metrics["service.cluster.worker_boot_s"] = max(boots) if boots else 0.0

    # session
    feeds = trace.named("session:feed")
    _layer(metrics, trace, "session", feeds, "session.feed_self_ms")
    metrics["session.relinked_words"] = _sum_attr(feeds, "words")
    metrics["session.memo_hit_ratio"] = _ratio(
        _sum_attr(feeds, "memo_hits"), _sum_attr(feeds, "memo_misses")
    )
    for solve in ("initial", "full", "scoped"):
        metrics[f"session.solves.{solve}"] = sum(1 for s in feeds if s["attrs"].get("solve") == solve)

    # core.linker
    links = trace.named("core.linker:link_detailed")
    _layer(metrics, trace, "core.linker", links, "core.linker.self_ms")

    # nlp
    extracts = trace.named("nlp:extract")
    _layer(metrics, trace, "nlp", extracts)
    for step in _NLP_STEPS:
        metrics[f"nlp.{step}_ms"] = _ms(
            [sum(_dur(d) for d in trace.descendants(s, f"nlp:{step}")) for s in extracts]
        )
    metrics["nlp.words"] = _sum_attr(extracts, "words")
    metrics["nlp.spans"] = _sum_attr(extracts, "spans")

    # core.candidates (+ caching, kb.alias_index): counters summed over
    # the roots of each request's span trees, so nothing counts twice.
    generates = trace.named("core.candidates:generate")
    _layer(metrics, trace, "core.candidates", generates)
    metrics["core.candidates.mentions"] = _sum_attr(generates, "mentions")
    metrics["core.candidates.candidates"] = _sum_attr(generates, "candidates")
    counts: Dict[str, int] = defaultdict(int)
    for span in trace.spans:
        if span["parent"] is None:
            for key, value in span["attrs"].get("counts", {}).items():
                counts[key] += value
    metrics["caching.candidates.hit_ratio"] = _ratio(counts["cand_hit"], counts["cand_miss"])
    metrics["kb.alias_index.fuzzy_lookups"] = counts["fuzzy_hit"] + counts["fuzzy_miss"]
    metrics["kb.alias_index.fuzzy_hit_ratio"] = _ratio(counts["fuzzy_hit"], counts["fuzzy_miss"])

    # core.coherence (+ embeddings.similarity)
    graphs = trace.named("core.coherence:build_coherence_graph")
    _layer(metrics, trace, "core.coherence", graphs)
    batches = trace.named("core.coherence:batch_similarity")
    metrics["embeddings.similarity.batch_ms"] = _ms(
        [sum(_dur(d) for d in trace.descendants(s, "core.coherence:batch_similarity")) for s in graphs]
    )
    metrics["core.coherence.pairs"] = _sum_attr(batches, "pairs")
    metrics["core.coherence.edges"] = _sum_attr(graphs, "edges")

    # core.canopies (+ nlp.spans)
    groupings = trace.named("core.canopies:build_mention_groups")
    _layer(metrics, trace, "core.canopies", groupings)
    metrics["nlp.spans.covers_calls"] = sum(s["attrs"].get("counts", {}).get("covers", 0) for s in groupings)
    metrics["nlp.spans.overlap_calls"] = sum(s["attrs"].get("counts", {}).get("overlap", 0) for s in groupings)
    metrics["core.canopies.groups"] = _sum_attr(groupings, "groups")
    metrics["core.canopies.canopies"] = _sum_attr(groupings, "canopies")

    # core.tree_cover
    covers = trace.named("core.tree_cover:derive_tree_cover")
    _layer(metrics, trace, "core.tree_cover", covers)
    for key, function in (("split", "split_tree"), ("matching", "hopcroft_karp"), ("paths", "dijkstra")):
        metrics[f"core.tree_cover.{key}_ms"] = _ms(
            [sum(_dur(d) for d in trace.descendants(s, f"core.tree_cover:{function}")) for s in covers]
        )
    metrics["core.tree_cover.cover_edges"] = _sum_attr(covers, "cover_edges")
    metrics["core.tree_cover.isolated"] = _sum_attr(covers, "isolated")

    # core.disambiguation
    decisions = trace.named("core.disambiguation:disambiguate")
    _layer(metrics, trace, "core.disambiguation", decisions)
    metrics["core.disambiguation.links"] = _sum_attr(decisions, "links")
    metrics["core.disambiguation.non_linkable"] = _sum_attr(decisions, "non_linkable")


    # set-up of the traced server process
    own = [s for s in trace.all if s["pid"] == server_pid and s["parent"] is None]
    load = sum(_dur(s) for s in own if s["name"] == "snapshot:load_snapshot")
    init = sum(_dur(s) for s in own if s["name"].startswith("service.init:"))
    metrics["snapshot.load_s"] = load
    metrics["service.init_s"] = init
    metrics["setup.other_s"] = setup_s - load - init
    return metrics


def stage_parity(spans: Sequence[dict], answers: Sequence) -> Dict[str, float]:
    """Wrapper span times against each answer's own ``timings`` block.

    Covers every full (not degraded) answer that carries timings: for
    each stage with a wrapper span under the answer's linker call, the
    two times must agree within ``PARITY_ABS_MS + PARITY_REL * stage``.
    """
    roots: Dict[str, dict] = {}
    children: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["name"] in ("core.linker:link_detailed", "session:feed"):
            roots[span["rid"]] = span
        if span["parent"]:
            children[span["parent"]].append(span)
    result = dict.fromkeys(("compared", "outside"), 0)
    worst = 0.0
    for answer in answers:
        root = roots.get(answer.expect.answer_id)
        if root is None or answer.degraded or not answer.timings:
            continue
        stages = {c["name"]: c for c in children.get(root["id"], ())}
        pairs: List[Tuple[float, float]] = []
        for stage, name in STAGE_SPANS.items():
            if stage in answer.timings and name in stages:
                pairs.append((answer.timings[stage], _dur(stages[name])))
        # The linker's disambiguation stopwatch also covers the shared-edge
        # pool it builds (in core.linker) right before calling disambiguate.
        cover, decide = (stages.get(STAGE_SPANS[k]) for k in ("tree_cover", "disambiguation"))
        if "disambiguation" in answer.timings and cover and decide:
            pairs[-1] = (answer.timings["disambiguation"], decide["end"] - cover["end"])
        if "total" in answer.timings:
            pairs.append((answer.timings["total"], _dur(root)))
        for own, wrapped in pairs:
            delta_ms = abs(wrapped - own) * 1000.0
            worst = max(worst, delta_ms)
            result["compared"] += 1
            result["outside"] += delta_ms > PARITY_ABS_MS + PARITY_REL * own * 1000.0
    result["max_delta_ms"] = worst
    return result
