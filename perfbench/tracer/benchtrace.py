"""Span recording around the program's public functions, for traced runs.

:func:`install` replaces functions of the server's modules with wrappers
that record one span per call: name, parent span, start and end
(``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across processes), thread, the ``request_id`` the benchmark
put on the request, and a few size attributes read from the arguments
or the result.  Each wrapper is installed where the caller looks the
name up (``repro.core.linker.build_mention_groups``, not
``repro.core.canopies.build_mention_groups``).  Spans stay in memory
and are written to ``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl`` when the
process exits.

Span names are ``<layer>:<function>``; the layer names follow the
repository's modules.  Call counters that are too hot for a span
(``Span.covers``, ``spans_overlap``, cache lookups) are kept per thread
and stored on every span as the change over its lifetime.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import threading
import time
from collections import deque

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
REQUEST_HEADER = "X-Bench-Id"

#: Per-thread call counters, stored on each span as their change.
COUNTERS = ("covers", "overlap", "cand_hit", "cand_miss", "fuzzy_hit", "fuzzy_miss")
_COVERS, _OVERLAP, _CAND, _FUZZY = 0, 1, 2, 4

_clock = time.perf_counter
_ident = threading.get_ident
_ids = itertools.count(1)
_SPANS: list = []
_installed = False

# Span record fields (a list, for speed).
_ID, _PARENT, _NAME, _RID, _START, _END, _TID, _ATTRS, _COUNTS = range(9)


class _Local(threading.local):
    def __init__(self) -> None:
        self.stack: list = []
        self.counts = [0] * len(COUNTERS)


_LOCAL = _Local()


def _finish(span: list) -> None:
    """Close *span*: counter changes, end time, then out of the stack."""
    delta = [now - then for now, then in zip(_LOCAL.counts, span[_COUNTS])]
    span[_COUNTS] = delta if any(delta) else None
    span[_END] = _clock()
    _LOCAL.stack.pop()
    _SPANS.append(span)


def _open(name: str, rid) -> list:
    stack = _LOCAL.stack
    parent = stack[-1] if stack else None
    if rid is None and parent is not None:
        rid = parent[_RID]
    span = [
        next(_ids),
        parent[_ID] if parent is not None else None,
        name,
        rid,
        0.0,
        0.0,
        _ident(),
        None,
        tuple(_LOCAL.counts),
    ]
    stack.append(span)
    return span


def _set(span: list, **attrs) -> None:
    if span[_ATTRS] is None:
        span[_ATTRS] = {}
    span[_ATTRS].update(attrs)


def traced(name, fn, rid_of=None, before=None, after=None):
    """Wrap *fn* so that every call records a span called *name*.

    ``rid_of(args)`` gives the request id (else the parent span's);
    ``before(span, args)`` and ``after(span, args, result)`` attach
    attributes.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _open(name, rid_of(args) if rid_of is not None else None)
        if before is not None:
            before(span, args)
        span[_START] = _clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            _set(span, error=type(exc).__name__)
            _finish(span)
            raise
        # Attributes are read before the span ends: a caller's own
        # stopwatch around this call sees that time too.
        if after is not None:
            after(span, args, result)
        _finish(span)
        return result

    return wrapper


def counting(index: int, fn):
    """Wrap *fn* to bump one per-thread counter per call."""

    @functools.wraps(fn)
    def wrapper(*args):
        _LOCAL.counts[index] += 1
        return fn(*args)

    return wrapper


def _cache_get(fn):
    """``LRUCache.get`` that counts hits and misses by cache.

    The candidate cache's keys start with ``"entity"`` / ``"predicate"``;
    the alias index's fuzzy memo is keyed by the bare phrase.
    """
    missing = object()

    @functools.wraps(fn)
    def get(self, key, default=None):
        value = fn(self, key, missing)
        if isinstance(key, str):
            _LOCAL.counts[_FUZZY + (value is missing)] += 1
        elif isinstance(key, tuple) and key and key[0] in ("entity", "predicate"):
            _LOCAL.counts[_CAND + (value is missing)] += 1
        return default if value is missing else value

    return get


def _admit(fn):
    """``AdmissionController.admit`` recording admission and dispatch.

    The admission span takes the request id of the enclosing engine
    call; inside a batch, the k-th admission is the batch's k-th
    document.  The admitted ``work`` is wrapped so that, when a pool
    thread picks it up, it runs under a ``service.overload:dispatch``
    span that carries the admission time, whose gap to the dispatch
    start is the queue wait.
    """

    @functools.wraps(fn)
    def admit(self, work, future, lane, *args, **kwargs):
        stack = _LOCAL.stack
        parent = stack[-1] if stack else None
        rid = None
        if parent is not None:
            pending = (parent[_ATTRS] or {}).get("pending")
            rid = pending.popleft() if pending else parent[_RID]
        span = _open("service.overload:admit", rid)
        admitted_at = span[_START] = _clock()

        def dispatched():
            inner = _open("service.overload:dispatch", rid)
            _set(inner, admitted_at=admitted_at)
            inner[_START] = _clock()
            try:
                return work()
            finally:
                _finish(inner)

        try:
            return fn(self, dispatched, future, lane, *args, **kwargs)
        except BaseException as exc:
            _set(span, error=type(exc).__name__)
            raise
        finally:
            _finish(span)

    return admit


def _request_id(index: int):
    def rid_of(args):
        return getattr(args[index], "request_id", None)

    return rid_of


def _header_id(args):
    return args[0].headers.get(REQUEST_HEADER)


def _batch_ids(span, args):
    _set(span, pending=deque(r.request_id for r in args[1].requests))


def _reply_time(span, args, future):
    _set(span, worker=args[0].worker_id)
    future.add_done_callback(lambda _f: _set(span, replied_at=_clock()))


def _worker_init(fn):
    @functools.wraps(fn)
    def init(self, *args, **kwargs):
        self._bench_spawned_at = _clock()
        return fn(self, *args, **kwargs)

    return init


def _worker_ready(fn):
    """``WorkerHandle.wait_ready`` recording a boot span from spawn."""

    @functools.wraps(fn)
    def wait_ready(self, *args, **kwargs):
        result = fn(self, *args, **kwargs)
        span = _open("service.cluster:worker_boot", None)
        span[_START] = getattr(self, "_bench_spawned_at", _clock())
        _set(span, worker=self.worker_id)
        _finish(span)
        return result

    return wait_ready


def _attrs(**getters):
    def after(span, args, result):
        _set(span, **{key: get(args, result) for key, get in getters.items()})

    return after


def install() -> None:
    """Patch the server's modules (idempotent) and write spans at exit."""
    global _installed
    if _installed:
        return
    _installed = True

    from repro import caching
    from repro.core import linker, canopies, tree_cover
    from repro.core.candidates import CandidateGenerator
    from repro.embeddings.similarity import SimilarityIndex
    from repro.nlp import pipeline
    from repro.nlp.chunker import NounPhraseChunker
    from repro.nlp.openie import RelationExtractor
    from repro.nlp.pos import PosTagger
    from repro.nlp.spans import Span
    from repro.service import cluster, engine, overload, server
    from repro.session.state import IncrementalLinker
    from repro.snapshot import store

    def patch(owner, attr, wrapper_factory):
        setattr(owner, attr, wrapper_factory(getattr(owner, attr)))

    def span(owner, attr, name, **options):
        patch(owner, attr, lambda fn: traced(name, fn, **options))

    # service.server: one span per POST, named by the benchmark's id.
    span(server._Handler, "do_POST", "service.server:do_POST", rid_of=_header_id)
    # service.engine: the HTTP thread's wait, and the worker's handle.
    span(engine.LinkingService, "link_admitted", "wait.engine:link_admitted",
         rid_of=_request_id(1))
    span(engine.LinkingService, "link_batch_admitted",
         "wait.engine:link_batch_admitted", before=_batch_ids)
    span(engine.LinkingService, "session_feed_admitted",
         "wait.engine:session_feed_admitted", rid_of=_request_id(2))
    span(engine.LinkingService, "handle", "service.engine:handle",
         rid_of=_request_id(1))
    # service.overload
    patch(overload.AdmissionController, "admit", _admit)
    # service.cluster
    span(cluster.ClusterService, "handle", "service.cluster:handle",
         rid_of=_request_id(1))
    span(cluster.WorkerHandle, "dispatch", "service.cluster:dispatch",
         rid_of=_request_id(1), after=_reply_time)
    patch(cluster.WorkerHandle, "__init__", _worker_init)
    patch(cluster.WorkerHandle, "wait_ready", _worker_ready)
    # session
    span(IncrementalLinker, "feed", "session:feed", after=_attrs(
        solve=lambda a, r: r.solve,
        memo_hits=lambda a, r: r.memo_hits,
        memo_misses=lambda a, r: r.memo_misses,
        words=lambda a, r: len(a[0].text.split()),
    ))
    # core.linker
    span(linker.TenetLinker, "link_detailed", "core.linker:link_detailed")
    span(linker.TenetLinker, "link_prior_only", "core.linker:link_prior_only")
    # nlp
    span(pipeline.ExtractionPipeline, "extract", "nlp:extract", after=_attrs(
        words=lambda a, r: r.word_count,
        spans=lambda a, r: len(r.noun_spans) + len(r.relations),
    ))
    span(pipeline, "tokenize", "nlp:tokenize")
    span(PosTagger, "tag", "nlp:tag")
    span(NounPhraseChunker, "regions", "nlp:chunk")
    span(NounPhraseChunker, "chunk", "nlp:chunk")
    span(RelationExtractor, "extract", "nlp:openie")
    span(pipeline, "resolve_pronouns", "nlp:coref")
    # core.candidates (+ caching, kb.alias_index counters)
    span(CandidateGenerator, "generate", "core.candidates:generate", after=_attrs(
        mentions=lambda a, r: len(r.by_mention),
        candidates=lambda a, r: r.total_candidates,
    ))
    patch(caching.LRUCache, "get", _cache_get)
    # core.coherence (+ embeddings.similarity)
    span(linker, "build_coherence_graph", "core.coherence:build_coherence_graph",
         after=_attrs(
             edges=lambda a, r: r.graph.edge_count,
             nodes=lambda a, r: r.graph.node_count,
         ))
    span(SimilarityIndex, "batch_similarity", "core.coherence:batch_similarity",
         after=_attrs(pairs=lambda a, r: len(a[1]) * (len(a[1]) - 1) // 2))
    # core.canopies (+ nlp.spans counters)
    span(linker, "build_mention_groups", "core.canopies:build_mention_groups",
         after=_attrs(
             groups=lambda a, r: len(r),
             canopies=lambda a, r: sum(len(g.canopies) for g in r),
         ))
    patch(Span, "covers", lambda fn: counting(_COVERS, fn))
    patch(canopies, "spans_overlap", lambda fn: counting(_OVERLAP, fn))
    # core.tree_cover
    span(linker, "derive_tree_cover", "core.tree_cover:derive_tree_cover",
         after=_attrs(
             cover_edges=lambda a, r: r.total_edges,
             isolated=lambda a, r: len(r.isolated_mentions()),
         ))
    span(tree_cover, "split_tree", "core.tree_cover:split_tree")
    span(tree_cover, "hopcroft_karp", "core.tree_cover:hopcroft_karp")
    span(tree_cover, "dijkstra", "core.tree_cover:dijkstra")
    # core.disambiguation
    span(linker, "disambiguate", "core.disambiguation:disambiguate",
         after=_attrs(
             links=lambda a, r: len(r.gamma),
             non_linkable=lambda a, r: len(r.non_linkable),
         ))
    # set-up
    span(store, "load_snapshot", "snapshot:load_snapshot")
    span(cluster, "load_snapshot", "snapshot:load_snapshot")
    span(engine.LinkingService, "__init__", "service.init:LinkingService")
    span(cluster.ClusterService, "__init__", "service.init:ClusterService")

    atexit.register(write)


def write() -> None:
    """Write this process's spans to the trace directory, once."""
    directory = os.environ.get(TRACE_DIR_ENV)
    spans, _SPANS[:] = list(_SPANS), []
    if not directory or not spans:
        return
    pid = os.getpid()
    path = os.path.join(directory, f"spans-{pid}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            attrs = dict(record[_ATTRS] or {})
            attrs.pop("pending", None)
            counts = record[_COUNTS]
            if counts:
                attrs["counts"] = dict(zip(COUNTERS, counts))
            handle.write(
                json.dumps(
                    {
                        "id": f"{pid}.{record[_ID]}",
                        "parent": f"{pid}.{record[_PARENT]}" if record[_PARENT] else None,
                        "name": record[_NAME],
                        "rid": record[_RID],
                        "start": record[_START],
                        "end": record[_END],
                        "pid": pid,
                        "tid": record[_TID],
                        "attrs": attrs,
                    }
                )
                + "\n"
            )
