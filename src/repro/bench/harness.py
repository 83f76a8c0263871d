"""The benchmark runner behind ``python -m repro.cli bench``.

One run builds the synthetic world once, then for each dataset scale
links the full four-dataset corpus (warmup passes first, then the timed
repeats), aggregating the per-stage wall-clock record every
``LinkingResult`` already carries — candidate generation, coherence
graph, tree-cover solve, grouping, disambiguation.  On top of the
per-stage view it measures:

* **service throughput** — documents/second through a warm
  :class:`repro.service.LinkingService` worker pool, with the
  cross-request cache counters (candidate memo, alias fuzzy memo,
  batched-similarity calls) captured into the record;
* **peak RSS** and an environment fingerprint, so records from
  different machines are never silently compared as equals.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.bench.load import LoadConfig
from repro.bench.schema import REPORT_KIND, SCHEMA_VERSION, summarize
from repro.core.config import TenetConfig
from repro.core.linker import LinkingContext, TenetLinker
from repro.datasets.benchmarks import build_benchmark_suite
from repro.eval.timing import aggregate_stage_seconds

Echo = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class BenchConfig:
    """Knobs of one benchmark run."""

    scales: Tuple[float, ...] = (0.25, 0.5, 1.0)
    repeats: int = 3
    warmup: int = 1
    seed: int = 7
    service_workers: int = 4
    # When set, add a deadline-mode pass: every document is linked with
    # this per-request deadline through a warm service, measuring the
    # degraded-path latency and the cooperative-cancellation counters.
    deadline_seconds: Optional[float] = None
    # When set, add a traced pass: every document is linked with a
    # request-scoped trace attached and the per-stage span statistics
    # (plus the span-vs-stage_seconds parity delta) land in the record.
    trace: bool = False
    # When set, add a load pass: boot the HTTP server in-process on a
    # free port and drive the closed- or open-loop generator against it,
    # recording goodput vs. shed rate and the latency percentiles (the
    # `load` block; see repro.bench.load).
    load: Optional["LoadConfig"] = None
    # Cluster pass: shard linking across worker *processes* sharing one
    # snapshot artifact, measuring docs/s at 1 worker and at
    # ``service_workers`` workers plus byte-parity of every result
    # payload against the single-process engine (the `cluster` block).
    cluster: bool = False
    # Session pass: feed the largest-scale documents through streaming
    # sessions in deterministic K-chunk splits, measuring per-increment
    # latency against a full relink of the accumulated prefix, and gate
    # on final-state byte parity with one-shot linking.  The `session`
    # block.
    session: bool = False
    session_chunks: int = 4
    label: str = ""

    def __post_init__(self) -> None:
        if not self.scales:
            raise ValueError("scales must be non-empty")
        if any(s <= 0 for s in self.scales):
            raise ValueError(f"scales must be positive, got {self.scales}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.service_workers < 1:
            raise ValueError("service_workers must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be > 0")
        if self.session_chunks < 2:
            raise ValueError(
                f"session_chunks must be >= 2, got {self.session_chunks}"
            )

    @classmethod
    def quick(cls) -> "BenchConfig":
        """The CI smoke profile: small scales, one repeat, no warmup."""
        return cls(scales=(0.1, 0.3), repeats=1, warmup=0, service_workers=2)


def git_rev(default: str = "local") -> str:
    """Short git revision of the working tree (env/``default`` fallback)."""
    env_rev = os.environ.get("BENCH_REV")
    if env_rev:
        return env_rev
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


def default_report_name(rev: Optional[str] = None) -> str:
    return f"BENCH_{rev or git_rev()}.json"


def _env_fingerprint() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size in KiB (None where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes
        peak //= 1024
    return int(peak)


def _measure_scale(
    linker: TenetLinker,
    scale: float,
    texts: List[str],
    repeats: int,
    warmup: int,
) -> Dict[str, object]:
    for _ in range(warmup):
        for text in texts:
            linker.link(text)

    records: List[Dict[str, float]] = []
    graph = {
        "mentions": 0,
        "candidate_nodes": 0,
        "nodes": 0,
        "edges": 0,
        "total_weight": 0.0,
        "max_degree": 0,
        "cover_edges": 0,
    }
    words = 0
    started = time.perf_counter()
    for run in range(repeats):
        for text in texts:
            diagnostics = linker.link_detailed(text)
            records.append(dict(diagnostics.stage_seconds))
            if run == 0:
                coherence = diagnostics.coherence
                graph["mentions"] += coherence.mention_count
                graph["candidate_nodes"] += coherence.concept_node_count
                graph["nodes"] += coherence.graph.node_count
                graph["edges"] += coherence.graph.edge_count
                graph["total_weight"] += float(
                    coherence.local.sum() + coherence.w.sum()
                )
                # Every endpoint of every mention edge and concept edge.
                n = len(coherence.candidates)
                ends = np.concatenate(
                    (n + coherence.owner, np.arange(n), coherence.u, coherence.v)
                )
                graph["max_degree"] = max(
                    graph["max_degree"], int(np.bincount(ends).max(initial=0))
                )
                graph["cover_edges"] += diagnostics.cover_edge_count
                words += diagnostics.extraction.word_count
    wall = time.perf_counter() - started
    graph["total_weight"] = round(graph["total_weight"], 6)

    stages = {
        name: summarize(values)
        for name, values in sorted(aggregate_stage_seconds(records).items())
    }
    return {
        "scale": scale,
        "documents": len(texts),
        "words": words,
        "runs": repeats,
        "wall_seconds": wall,
        "documents_per_second": (len(texts) * repeats) / wall if wall else None,
        "stages": stages,
        "graph": graph,
    }


def _service_throughput(
    context: LinkingContext,
    linker_config: TenetConfig,
    scale: float,
    texts: List[str],
    workers: int,
) -> Dict[str, object]:
    from repro.service import LinkingService, ServiceConfig
    from repro.service.schema import BatchLinkRequest, LinkRequest

    requests = tuple(
        LinkRequest(text=text, request_id=f"bench-{i}")
        for i, text in enumerate(texts)
    )
    with LinkingService(
        context, ServiceConfig(workers=workers), linker_config
    ) as service:
        started = time.perf_counter()
        responses = service.link_batch(BatchLinkRequest(requests))
        wall = time.perf_counter() - started
        errors = sum(1 for r in responses.responses if r.error is not None)
        snapshot = service.snapshot()
    latency = snapshot.get("latencies", {}).get("latency.link", {})
    return {
        "scale": scale,
        "documents": len(texts),
        "workers": workers,
        "wall_seconds": wall,
        "documents_per_second": len(texts) / wall if wall else None,
        "errors": errors,
        "latency": {
            key: latency.get(key)
            for key in (
                "count",
                "mean_seconds",
                "p50_seconds",
                "p90_seconds",
                "p99_seconds",
                "max_seconds",
            )
        },
        "caches": snapshot.get("caches", {}),
    }


def _cluster_mode(
    context: LinkingContext,
    linker_config: TenetConfig,
    scale: float,
    texts: List[str],
    processes: int,
    seed: int,
    snapshot_path: Optional[Union[str, Path]],
    say: Callable[[str], None],
) -> Dict[str, object]:
    """The ``cluster`` bench block: docs/s per worker-process count plus
    byte-parity of the result payloads against the single-process engine.

    Runs the corpus through a :class:`~repro.service.cluster.ClusterService`
    at 1 worker and at *processes* workers, both booted from one shared
    snapshot store (*snapshot_path* when the bench run has one, else an
    ephemeral store reused across both boots).  ``scaling.speedup`` is
    the 1-to-N docs/s ratio CI gates on; on a single-core runner it will
    hover near 1.0 — the near-linear expectation only holds with at
    least one core per worker.
    """
    import shutil
    import tempfile

    from repro.service import (
        LinkingService,
        ServiceConfig,
        create_cluster_service,
    )
    from repro.service.schema import BatchLinkRequest, LinkRequest

    requests = tuple(
        LinkRequest(text=text, request_id=f"bench-{i}")
        for i, text in enumerate(texts)
    )

    def canonical(responses) -> List[str]:
        return [
            json.dumps(response.result, sort_keys=True)
            for response in responses.responses
        ]

    say("cluster pass: single-process reference ...")
    with LinkingService(
        context, ServiceConfig(workers=1), linker_config
    ) as single:
        reference = canonical(single.link_batch(BatchLinkRequest(requests)))

    owned: Optional[str] = None
    root: Union[str, Path, None] = snapshot_path
    if root is None:
        owned = tempfile.mkdtemp(prefix="tenet-bench-cluster-")
        root = owned
    runs: List[Dict[str, object]] = []
    total_mismatches = 0
    try:
        for workers in sorted({1, processes}):
            say(f"cluster pass: {workers} worker process(es) ...")
            service = create_cluster_service(
                processes=workers,
                snapshot_path=root,
                seed=seed,
                linker_config=linker_config,
            )
            try:
                started = time.perf_counter()
                responses = service.link_batch(BatchLinkRequest(requests))
                wall = time.perf_counter() - started
                stats = service.cluster_stats()
            finally:
                service.close()
            mismatches = sum(
                1 for got, want in zip(canonical(responses), reference)
                if got != want
            )
            total_mismatches += mismatches
            runs.append({
                "workers": workers,
                "wall_seconds": wall,
                "documents_per_second": len(texts) / wall if wall else None,
                "errors": sum(
                    1 for r in responses.responses if r.error is not None
                ),
                "parity_mismatches": mismatches,
                "deaths": stats["deaths"],
                "respawns": stats["respawns"],
                "dispatch": stats["dispatch"],
            })
    finally:
        if owned is not None:
            shutil.rmtree(owned, ignore_errors=True)

    baseline = runs[0]
    scaled = runs[-1]
    speedup = None
    if baseline["documents_per_second"] and scaled["documents_per_second"]:
        speedup = (
            scaled["documents_per_second"] / baseline["documents_per_second"]
        )
    return {
        "scale": scale,
        "documents": len(texts),
        "processes": processes,
        "runs": runs,
        "scaling": {
            "baseline_workers": baseline["workers"],
            "workers": scaled["workers"],
            "speedup": speedup,
        },
        "parity": {
            "reference": "single-process",
            "mismatches": total_mismatches,
            "ok": total_mismatches == 0,
        },
    }


def _deadline_mode(
    context: LinkingContext,
    linker_config: TenetConfig,
    scale: float,
    texts: List[str],
    workers: int,
    deadline_seconds: float,
) -> Dict[str, object]:
    """Degraded-path latency under a per-request deadline.

    Every document is linked through a warm service whose default
    timeout is *deadline_seconds*; requests that blow the budget abort
    cooperatively at the next stage checkpoint and fall back to the
    prior-only answer.  The block records how many requests degraded,
    which stage they aborted in, and the latency of the degraded path
    (wall clock from submission to the salvaged response).
    """
    from repro.service import LinkingService, ServiceConfig
    from repro.service.schema import LinkRequest

    service_config = ServiceConfig(
        workers=workers, default_timeout_seconds=deadline_seconds
    )
    degraded_latencies: List[float] = []
    completed_latencies: List[float] = []
    errors = 0
    started = time.perf_counter()
    with LinkingService(context, service_config, linker_config) as service:
        for i, text in enumerate(texts):
            request_started = time.perf_counter()
            response = service.link(
                LinkRequest(text=text, request_id=f"deadline-{i}")
            )
            elapsed = time.perf_counter() - request_started
            if response.error is not None:
                errors += 1
            elif response.degraded:
                degraded_latencies.append(elapsed)
            else:
                completed_latencies.append(elapsed)
        snapshot = service.snapshot()
    wall = time.perf_counter() - started
    counters = snapshot.get("counters", {})
    aborted_stages = {
        name[len("stage."):-len(".aborted")]: count
        for name, count in counters.items()
        if name.startswith("stage.") and name.endswith(".aborted")
    }
    return {
        "scale": scale,
        "documents": len(texts),
        "workers": workers,
        "deadline_seconds": deadline_seconds,
        "wall_seconds": wall,
        "completed": len(completed_latencies),
        "degraded": len(degraded_latencies),
        "errors": errors,
        "cancelled": counters.get("requests.cancelled", 0),
        "timeouts": counters.get("requests.timeouts", 0),
        "abandoned": counters.get("requests.abandoned", 0),
        "aborted_stages": aborted_stages,
        "degraded_latency": (
            summarize(degraded_latencies) if degraded_latencies else None
        ),
        "completed_latency": (
            summarize(completed_latencies) if completed_latencies else None
        ),
    }


def _load_mode(
    context: LinkingContext,
    linker_config: TenetConfig,
    scale: float,
    texts: List[str],
    workers: int,
    load_config: LoadConfig,
) -> Dict[str, object]:
    """Load-generator pass against an in-process HTTP server.

    Boots the real serving stack — admission queue, rate limiter,
    degraded-mode switch, ThreadingHTTPServer — on a free local port,
    drives it with :func:`repro.bench.load.run_load`, and folds the
    server's own overload counters into the block so client-observed
    shedding can be reconciled against what the engine reports.
    """
    import threading

    from repro.bench.load import run_load
    from repro.service import LinkingService, ServiceConfig
    from repro.service.server import create_server

    service = LinkingService(context, ServiceConfig(workers=workers), linker_config)
    server = create_server(service, "127.0.0.1", 0)
    host, port = server.server_address[:2]
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    try:
        block = run_load(f"http://{host}:{port}", texts, load_config)
    finally:
        server.shutdown()
        server_thread.join(timeout=10)
        server.server_close()
        snapshot = service.snapshot()
        service.close()
    counters = snapshot.get("counters", {})
    block["scale"] = scale
    block["workers"] = workers
    block["server"] = {
        "rejected": counters.get("requests.rejected", 0),
        "rejected_rate_limited": counters.get(
            "requests.rejected.rate_limited", 0
        ),
        "rejected_queue_full": counters.get("requests.rejected.queue_full", 0),
        "degraded_mode_requests": counters.get("degraded_mode.requests", 0),
        "overload": snapshot.get("overload", {}),
    }
    return block


def _trace_mode(
    linker: TenetLinker,
    scale: float,
    texts: List[str],
) -> Dict[str, object]:
    """Per-stage span statistics from one traced pass over the corpus.

    Every document is linked with a request-scoped trace attached; the
    block aggregates the recorded span durations per stage and records
    the largest absolute disagreement between any span and the matching
    ``LinkingResult.stage_seconds`` entry.  Spans reuse the stage
    stopwatch rather than re-timing, so that delta should be exactly
    zero — the record keeps it as a falsifiable parity check.
    """
    from repro.obs import Tracer

    tracer = Tracer(enabled=True, ring_size=max(len(texts), 1))
    per_stage: Dict[str, List[float]] = {}
    max_delta = 0.0
    started = time.perf_counter()
    for i, text in enumerate(texts):
        trace = tracer.start(f"bench-trace-{i}")
        result = linker.link(text, trace=trace)
        tracer.finish(trace)
        durations = trace.stage_durations()
        for name, duration in durations.items():
            per_stage.setdefault(name, []).append(duration)
        for stage, seconds in result.stage_seconds.items():
            if stage in durations:
                max_delta = max(max_delta, abs(durations[stage] - seconds))
    wall = time.perf_counter() - started
    return {
        "scale": scale,
        "documents": len(texts),
        "wall_seconds": wall,
        "recorded": tracer.stats()["recorded_total"],
        "span_stage_max_delta_seconds": max_delta,
        "stages": {
            name: summarize(values)
            for name, values in sorted(per_stage.items())
        },
    }


def _session_pass(
    context: LinkingContext,
    linker_config: TenetConfig,
    scale: float,
    documents,
    chunks: int,
    seed: int,
) -> Dict[str, object]:
    """Incremental sessions vs. full relink-per-chunk, with a parity gate.

    Each document becomes a deterministic K-chunk stream (the same
    generator whose output the snapshot store persists).  The stream is
    fed through a :class:`~repro.session.sessions.StreamingSession`
    (timing every increment), then the same prefixes are linked from
    scratch — the cost a stateless server pays per chunk.

    Each workload's relink pass runs immediately after its feed pass, so
    slow drift (thermal scaling, allocator state) hits both sides of a
    ratio roughly equally.  ``amortized_speedup`` is the aggregate
    sum(full relink) / sum(incremental) across all increments;
    ``workload_speedups`` summarises the per-workload ratios (the median
    is the drift-robust headline number).  The parity gate compares the
    session's final state against a one-shot link of the whole document:
    the deterministic payloads must be **byte-identical**, and the
    entity/relation F1 of both against gold ride along.  ``parity.ok`` is
    the flag the CLI exits 1 on — drift here means incremental reuse
    changed answers.
    """
    from repro.eval.metrics import (
        aggregate,
        score_entity_linking,
        score_relation_linking,
    )
    from repro.session import StreamingSession
    from repro.session.workloads import stream_chunkings

    linker = TenetLinker(context, linker_config)
    by_doc_id = {document.doc_id: document for document in documents}
    workloads = stream_chunkings(documents, chunks=chunks, seed=seed, limit=8)

    def canonical(result) -> str:
        return json.dumps(
            result.to_json(include_timings=False), sort_keys=True
        )

    incremental_latencies: List[float] = []
    full_relink_latencies: List[float] = []
    workload_ratios: List[float] = []
    solves: Dict[str, int] = {}
    memo_hits = memo_misses = 0
    byte_identical = True
    one_shot_entity, one_shot_relation = [], []
    incremental_entity, incremental_relation = [], []
    for workload in workloads:
        session = StreamingSession(linker)
        inc_seconds = 0.0
        for chunk in workload.chunks:
            started = time.perf_counter()
            outcome = session.feed(chunk)
            elapsed = time.perf_counter() - started
            incremental_latencies.append(elapsed)
            inc_seconds += elapsed
            solves[outcome.solve] = solves.get(outcome.solve, 0) + 1
            memo_hits += outcome.memo_hits
            memo_misses += outcome.memo_misses
        # The stateless cost of the same stream: relink the accumulated
        # prefix from scratch after every chunk, measured right after
        # this workload's feeds so drift cancels in the ratio.  The
        # final relink sees the full document, so it doubles as the
        # one-shot reference.
        relink_seconds = 0.0
        text = ""
        for chunk in workload.chunks:
            text += chunk
            started = time.perf_counter()
            one_shot = linker.link(text)
            elapsed = time.perf_counter() - started
            full_relink_latencies.append(elapsed)
            relink_seconds += elapsed
        if inc_seconds > 0:
            workload_ratios.append(relink_seconds / inc_seconds)
        final = session.result
        if canonical(final) != canonical(one_shot):
            byte_identical = False
        document = by_doc_id[workload.doc_id]
        one_shot_entity.append(score_entity_linking(one_shot, document))
        one_shot_relation.append(score_relation_linking(one_shot, document))
        incremental_entity.append(score_entity_linking(final, document))
        incremental_relation.append(score_relation_linking(final, document))

    entity_one_shot = aggregate(one_shot_entity).f1
    entity_incremental = aggregate(incremental_entity).f1
    relation_one_shot = aggregate(one_shot_relation).f1
    relation_incremental = aggregate(incremental_relation).f1
    max_abs_delta = max(
        abs(entity_one_shot - entity_incremental),
        abs(relation_one_shot - relation_incremental),
    )
    incremental_stats = summarize(incremental_latencies)
    full_relink_stats = summarize(full_relink_latencies)
    speedup = (
        full_relink_stats["total"] / incremental_stats["total"]
        if incremental_stats["total"] > 0
        else None
    )
    return {
        "scale": scale,
        "documents": len(workloads),
        "chunks": chunks,
        "increments": len(incremental_latencies),
        "incremental_latency": incremental_stats,
        "full_relink_latency": full_relink_stats,
        "amortized_speedup": speedup,
        "workload_speedups": (
            summarize(workload_ratios) if workload_ratios else None
        ),
        "memo": {"hits": memo_hits, "misses": memo_misses},
        "solves": solves,
        "parity": {
            "byte_identical": byte_identical,
            "entity_f1_one_shot": entity_one_shot,
            "entity_f1_incremental": entity_incremental,
            "relation_f1_one_shot": relation_one_shot,
            "relation_f1_incremental": relation_incremental,
            "max_abs_delta": max_abs_delta,
            "ok": byte_identical,
        },
    }


def run_benchmark(
    config: BenchConfig = BenchConfig(),
    linker_config: TenetConfig = TenetConfig(),
    echo: Echo = None,
    snapshot_path: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Run the full harness and return the bench record as a dict.

    With *snapshot_path*, the linking context and the gold-set corpora
    are warm-started from the :mod:`repro.snapshot` store instead of
    rebuilt (``load_or_build`` semantics: a store root builds-and-saves
    on first use).  The record's ``context_build_seconds`` then measures
    the snapshot load — the cold-vs-warm startup comparison the snapshot
    tier exists to win — and ``context_source``/``snapshot`` identify
    what was served.  Warm-started linking output is byte-identical to a
    cold build, so every other number stays comparable.
    """
    def say(message: str) -> None:
        if echo is not None:
            echo(message)

    overall = time.perf_counter()
    started = time.perf_counter()
    warm = None
    if snapshot_path is not None:
        from repro.snapshot import SnapshotSpec, load_or_build

        say(f"warm-starting context from snapshot store {snapshot_path} ...")
        spec = SnapshotSpec(
            seed=config.seed, scales=tuple(sorted(set(config.scales)))
        )
        warm = load_or_build(snapshot_path, spec, echo=say)
        warm.seed_fuzzy_cache()
        context = warm.context
    else:
        say(f"building synthetic world (seed {config.seed}) ...")
        suite = build_benchmark_suite(seed=config.seed, scale=max(config.scales))
        context = LinkingContext.build(suite.world.kb, suite.world.taxonomy)
    context_build = time.perf_counter() - started
    linker = TenetLinker(context, linker_config)

    scales: List[Dict[str, object]] = []
    corpus_by_scale: Dict[float, List[str]] = {}
    documents_by_scale: Dict[float, List[object]] = {}
    for scale in sorted(set(config.scales)):
        if warm is not None:
            datasets = warm.datasets_for_scale(scale)
        elif scale == max(config.scales):
            datasets = suite.datasets()
        else:
            datasets = build_benchmark_suite(
                seed=config.seed, scale=scale
            ).datasets()
        documents = [
            document for dataset in datasets for document in dataset.documents
        ]
        texts = [document.text for document in documents]
        corpus_by_scale[scale] = texts
        documents_by_scale[scale] = documents
        say(
            f"scale {scale:g}: {len(texts)} documents x "
            f"{config.repeats} repeats (+{config.warmup} warmup) ..."
        )
        scales.append(
            _measure_scale(linker, scale, texts, config.repeats, config.warmup)
        )

    largest = max(corpus_by_scale)

    say(
        f"service throughput at scale {largest:g} "
        f"({config.service_workers} workers) ..."
    )
    service = _service_throughput(
        context,
        linker_config,
        largest,
        corpus_by_scale[largest],
        config.service_workers,
    )

    deadline = None
    if config.deadline_seconds is not None:
        say(
            f"deadline mode at scale {largest:g} "
            f"(deadline {config.deadline_seconds:g}s) ..."
        )
        deadline = _deadline_mode(
            context,
            linker_config,
            largest,
            corpus_by_scale[largest],
            config.service_workers,
            config.deadline_seconds,
        )

    cluster = None
    if config.cluster:
        say(
            f"cluster mode at scale {largest:g} "
            f"({config.service_workers} worker processes) ..."
        )
        cluster = _cluster_mode(
            context,
            linker_config,
            largest,
            corpus_by_scale[largest],
            config.service_workers,
            config.seed,
            snapshot_path,
            say,
        )

    trace = None
    if config.trace:
        say(f"trace mode at scale {largest:g} ...")
        trace = _trace_mode(linker, largest, corpus_by_scale[largest])

    session = None
    if config.session:
        say(
            f"session pass at scale {largest:g} "
            f"({config.session_chunks} chunks) ..."
        )
        session = _session_pass(
            context,
            linker_config,
            largest,
            documents_by_scale[largest],
            config.session_chunks,
            config.seed,
        )

    load = None
    if config.load is not None:
        say(
            f"load mode at scale {largest:g} "
            f"({config.load.mode} loop, {config.load.duration_seconds:g}s) ..."
        )
        load = _load_mode(
            context,
            linker_config,
            largest,
            corpus_by_scale[largest],
            config.service_workers,
            config.load,
        )

    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "rev": git_rev(),
        "label": config.label,
        "generated_unix": time.time(),
        "config": {
            "scales": list(config.scales),
            "repeats": config.repeats,
            "warmup": config.warmup,
            "seed": config.seed,
            "service_workers": config.service_workers,
            "cluster": config.cluster,
            "deadline_seconds": config.deadline_seconds,
            "trace": config.trace,
            "load": config.load.to_json() if config.load is not None else None,
            "session": config.session,
            "session_chunks": config.session_chunks,
        },
        "env": _env_fingerprint(),
        "context_build_seconds": context_build,
        "context_source": "snapshot" if warm is not None else "cold",
        "snapshot": warm.info() if warm is not None else None,
        "peak_rss_kb": _peak_rss_kb(),
        "total_seconds": time.perf_counter() - overall,
        "scales": scales,
        "service": service,
        "cluster": cluster,
        "deadline": deadline,
        "trace": trace,
        "load": load,
        "session": session,
    }
    return report


def write_report(
    report: Dict[str, object], path: Union[str, Path]
) -> Path:
    """Write one bench record as pretty JSON, returning the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=1, sort_keys=False) + "\n")
    return path


def format_report_summary(report: Dict[str, object]) -> str:
    """Short human-readable digest of one bench record."""
    lines: List[str] = []
    env = report.get("env", {})
    lines.append(
        f"rev {report.get('rev')} | python {env.get('python')} | "
        f"numpy {env.get('numpy')} | peak RSS "
        f"{report.get('peak_rss_kb')} KiB"
    )
    snapshot = report.get("snapshot")
    build_seconds = report.get("context_build_seconds")
    if snapshot:
        lines.append(
            f"context: {snapshot.get('id')} ({snapshot.get('source')}) "
            f"loaded in {build_seconds:.3f}s"
        )
    elif build_seconds is not None:
        lines.append(f"context: cold build in {build_seconds:.3f}s")
    for entry in report.get("scales", []):
        stages = entry.get("stages", {})
        parts = []
        for stage in ("candidates", "coherence", "tree_cover", "disambiguation"):
            block = stages.get(stage)
            if block:
                parts.append(f"{stage}={1000 * block['mean']:.2f}ms")
        dps = entry.get("documents_per_second")
        lines.append(
            f"scale {entry.get('scale'):g}: {entry.get('documents')} docs, "
            f"{dps:.1f} docs/s | " + " ".join(parts)
        )
    service = report.get("service")
    if service:
        lines.append(
            f"service: {service['documents_per_second']:.1f} docs/s over "
            f"{service['workers']} workers"
        )
    cluster = report.get("cluster")
    if cluster:
        scaling = cluster.get("scaling", {})
        parity = cluster.get("parity", {})
        speedup = scaling.get("speedup")
        lines.append(
            f"cluster: {scaling.get('baseline_workers')}→"
            f"{scaling.get('workers')} workers "
            + (f"{speedup:.2f}x docs/s" if speedup else "speedup n/a")
            + f" (parity={'ok' if parity.get('ok') else 'MISMATCH'})"
        )
    deadline = report.get("deadline")
    if deadline:
        degraded = deadline.get("degraded_latency") or {}
        mean = degraded.get("mean")
        lines.append(
            f"deadline {deadline['deadline_seconds']:g}s: "
            f"{deadline['degraded']}/{deadline['documents']} degraded, "
            f"{deadline['cancelled']} cancelled"
            + (f", degraded-path mean {1000 * mean:.2f}ms" if mean else "")
        )
    trace = report.get("trace")
    if trace:
        lines.append(
            f"trace: {trace['recorded']} traces over "
            f"{trace['documents']} docs, span/stage max delta "
            f"{trace['span_stage_max_delta_seconds']:.2e}s"
        )
    load = report.get("load")
    if load:
        from repro.bench.load import format_load_summary

        lines.append(format_load_summary(load))
    session = report.get("session")
    if session:
        parity = session.get("parity", {})
        speedup = session.get("amortized_speedup")
        incremental = session.get("incremental_latency", {})
        relink = session.get("full_relink_latency", {})
        gate = "byte-identical" if parity.get("byte_identical") else (
            f"F1 delta {parity.get('max_abs_delta', 0.0):.4f}"
        )
        ratios = session.get("workload_speedups") or {}
        median = ratios.get("p50")
        lines.append(
            f"session ({session.get('chunks')} chunks): "
            f"{session.get('increments')} increments over "
            f"{session.get('documents')} docs | "
            f"incremental {1000 * incremental.get('mean', 0.0):.2f}ms vs "
            f"relink {1000 * relink.get('mean', 0.0):.2f}ms"
            + (f" ({speedup:.2f}x amortized)" if speedup else "")
            + (f", median workload {median:.2f}x" if median else "")
            + f" | {gate} (parity={'ok' if parity.get('ok') else 'FAIL'})"
        )
    return "\n".join(lines)
