"""Command-line interface for the TENET reproduction.

Installed as ``tenet-repro`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.  Sub-commands:

* ``world``     — build the synthetic world and save its JSON dump;
* ``datasets``  — generate the four benchmark dataset analogs as JSON;
* ``link``      — link a document (text argument, file, or stdin) and
  print the result as JSON; ``--jsonl`` switches to batch mode (one
  document per input line, one result JSON per output line) over a
  single warm context; ``--stream`` feeds the document through an
  incremental session chunk by chunk, printing one progress line per
  increment before the final result (see ``docs/sessions.md``);
* ``evaluate``  — run the end-to-end evaluation (Tables 3-4) for a
  chosen set of systems and print P/R/F rows;
* ``stats``     — print the Table 2 dataset statistics;
* ``serve``     — run the JSON-over-HTTP linking service, with
  admission-control flags (``--max-queue``, ``--rate-limit``,
  ``--degrade-queue``/``--degrade-p95``; see ``docs/serving.md``) and
  stateful session endpoints behind ``--sessions`` (``--session-max``,
  ``--session-ttl``, ``--session-mode``; see ``docs/sessions.md``);
* ``bench``     — run the benchmark harness and write a schema-versioned
  ``BENCH_<rev>.json`` (``--load`` adds a load-generator pass against an
  in-process server); ``bench compare A.json B.json`` diffs two such
  records and exits non-zero past the regression threshold;
  ``bench load --url`` drives a live server and asserts the overload
  SLOs (no 5xx, Retry-After on every 429, bounded p99; see
  ``docs/benchmarking.md``); ``--session`` adds the incremental-session
  pass with its amortized-speedup numbers and final-state parity gate;
* ``snapshot``  — manage the versioned artifact store
  (``build``/``verify``/``list``/``gc``, see ``docs/snapshots.md``).

``link``, ``serve``, and ``bench`` accept ``--snapshot DIR`` to
warm-start the linking context from the store instead of rebuilding the
world, alias index, and embeddings (load-or-build: the first run against
an empty store pays the cold build once and persists it).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.baselines import (
    EarlLinker,
    FalconLinker,
    KBPearlLinker,
    MinTreeLinker,
    QKBflyLinker,
)
from repro.core.config import TenetConfig
from repro.core.linker import LinkingContext, TenetLinker
from repro.datasets.benchmarks import build_benchmark_suite
from repro.datasets.loaders import save_dataset
from repro.eval.runner import EvaluationRunner
from repro.eval.statistics import dataset_statistics
from repro.kb.dump import save_dump
from repro.kb.synthetic import SyntheticKBConfig, build_synthetic_world

SYSTEM_FACTORIES = {
    "falcon": FalconLinker,
    "qkbfly": QKBflyLinker,
    "kbpearl": KBPearlLinker,
    "earl": EarlLinker,
    "mintree": MinTreeLinker,
    "tenet": TenetLinker,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenet-repro",
        description="TENET joint entity and relation linking (SIGMOD 2021 reproduction)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="world seed (default: 7)"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    world_parser = subparsers.add_parser(
        "world", help="build the synthetic world and save its JSON dump"
    )
    world_parser.add_argument("output", type=Path, help="dump file path")

    ds_parser = subparsers.add_parser(
        "datasets", help="generate the benchmark dataset analogs"
    )
    ds_parser.add_argument("output_dir", type=Path)
    ds_parser.add_argument("--scale", type=float, default=1.0)

    link_parser = subparsers.add_parser("link", help="link one document")
    link_parser.add_argument(
        "text", nargs="?", help="document text (omit to read stdin)"
    )
    link_parser.add_argument(
        "--file", type=Path, help="read the document from a file"
    )
    link_parser.add_argument(
        "--system",
        choices=sorted(SYSTEM_FACTORIES),
        default="tenet",
    )
    link_parser.add_argument(
        "--max-candidates", type=int, default=4, metavar="K"
    )
    link_parser.add_argument(
        "--jsonl",
        action="store_true",
        help="batch mode: one document per input line, one result JSON "
        "per output line, all linked over a single warm context",
    )
    link_parser.add_argument(
        "--stream",
        action="store_true",
        help="feed the document through an incremental session in "
        "--chunks sentence-aligned pieces, printing one progress line "
        "per increment before the final result (tenet only)",
    )
    link_parser.add_argument(
        "--chunks",
        type=int,
        default=4,
        metavar="K",
        help="chunks per streamed document (with --stream; default 4)",
    )
    link_parser.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="DIR",
        help="warm-start the context from this snapshot store (or a "
        "specific snapshot directory) instead of rebuilding",
    )

    eval_parser = subparsers.add_parser(
        "evaluate", help="run the Tables 3-4 evaluation"
    )
    eval_parser.add_argument("--scale", type=float, default=1.0)
    eval_parser.add_argument(
        "--systems",
        default="falcon,qkbfly,kbpearl,earl,mintree,tenet",
        help="comma-separated subset of systems",
    )
    eval_parser.add_argument(
        "--datasets",
        default="news,t-rex42,kore50,msnbc19",
        help="comma-separated subset of datasets",
    )

    stats_parser = subparsers.add_parser(
        "stats", help="print the Table 2 dataset statistics"
    )
    stats_parser.add_argument("--scale", type=float, default=1.0)

    validate_parser = subparsers.add_parser(
        "validate", help="validate a dataset JSON against a KB dump"
    )
    validate_parser.add_argument("dataset", type=Path)
    validate_parser.add_argument(
        "--kb", type=Path, help="KB dump to check concept ids against"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the JSON-over-HTTP linking service"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080)
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="linker worker threads (with --cluster: worker processes)",
    )
    serve_parser.add_argument(
        "--cluster",
        action="store_true",
        help="shard linking across --workers processes, each warm-started "
        "from one shared snapshot artifact (built ephemerally when "
        "--snapshot is not given)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (on expiry the request is "
        "answered by the prior-only fallback)",
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cross-request candidate cache",
    )
    serve_parser.add_argument(
        "--trace",
        action="store_true",
        help="enable request-scoped tracing (X-Trace-Id header and "
        "GET /debug/traces) regardless of TENET_TRACE",
    )
    serve_parser.add_argument(
        "--max-candidates", type=int, default=4, metavar="K"
    )
    serve_parser.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="DIR",
        help="warm-start the context from this snapshot store (or a "
        "specific snapshot directory); the snapshot identity is "
        "surfaced on /metrics",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="interactive admission queue bound (beyond it: 429 queue_full)",
    )
    serve_parser.add_argument(
        "--batch-max-queue",
        type=int,
        default=None,
        metavar="N",
        help="batch-lane admission queue bound",
    )
    serve_parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help="per-client token-bucket refill rate (keyed on X-Client-Id; "
        "off by default)",
    )
    serve_parser.add_argument(
        "--rate-limit-burst",
        type=int,
        default=None,
        metavar="N",
        help="per-client token-bucket capacity (default 8)",
    )
    serve_parser.add_argument(
        "--degrade-queue",
        type=int,
        default=None,
        metavar="N",
        help="queue depth at which the service enters degraded mode "
        "(prior-only answers; exits at a quarter of this depth)",
    )
    serve_parser.add_argument(
        "--degrade-p95",
        type=float,
        default=None,
        metavar="SECONDS",
        help="observed p95 latency that triggers degraded mode "
        "(exits at half this value)",
    )
    serve_parser.add_argument(
        "--sessions",
        action="store_true",
        help="enable stateful streaming/conversation sessions "
        "(POST /session/{id}/feed, GET/DELETE /session/{id}; "
        "see docs/sessions.md)",
    )
    serve_parser.add_argument(
        "--session-max",
        type=int,
        default=None,
        metavar="N",
        help="live sessions before LRU eviction (default 64)",
    )
    serve_parser.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="idle seconds before a session is evicted (default 600)",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the benchmark harness (or `bench compare A.json B.json`)",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke profile: small scales, one repeat, no warmup",
    )
    bench_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="bench JSON path (default: BENCH_<git rev>.json)",
    )
    bench_parser.add_argument(
        "--scales",
        default=None,
        metavar="S1,S2,...",
        help="comma-separated dataset scale factors (overrides the profile)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=None, help="timed passes per scale"
    )
    bench_parser.add_argument(
        "--warmup", type=int, default=None, help="untimed warmup passes"
    )
    bench_parser.add_argument(
        "--workers", type=int, default=None, help="service throughput workers"
    )
    bench_parser.add_argument(
        "--cluster",
        action="store_true",
        help="also run the multi-process cluster pass: docs/s at 1 and at "
        "--workers worker processes over one shared snapshot, plus the "
        "byte-parity check against the single-process engine (the "
        "record's `cluster` block)",
    )
    bench_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also measure the degraded path: link the corpus through a "
        "service whose per-request deadline is SECONDS and record the "
        "cancellation counters and degraded-path latency",
    )
    bench_parser.add_argument(
        "--trace",
        action="store_true",
        help="also run a traced pass: per-stage span statistics and the "
        "span-vs-stage_seconds parity delta land in the record",
    )
    bench_parser.add_argument(
        "--load",
        action="store_true",
        help="also run the load generator against an in-process HTTP "
        "server; goodput/shed/latency land in the record's `load` block",
    )
    bench_parser.add_argument(
        "--load-mode",
        choices=("closed", "open"),
        default="closed",
        help="closed = fixed concurrency, open = fixed-QPS arrivals "
        "(default: closed)",
    )
    bench_parser.add_argument(
        "--load-duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="load-generation window (default 5s)",
    )
    bench_parser.add_argument(
        "--load-concurrency",
        type=int,
        default=4,
        metavar="N",
        help="closed-loop clients / open-loop in-flight floor (default 4)",
    )
    bench_parser.add_argument(
        "--load-qps",
        type=float,
        default=20.0,
        metavar="RPS",
        help="open-loop arrival rate (default 20)",
    )
    bench_parser.add_argument("--label", default="", help="freeform run label")
    bench_parser.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="DIR",
        help="warm-start the context and gold sets from this snapshot "
        "store; context_build_seconds then measures the snapshot load",
    )
    bench_parser.add_argument(
        "--session",
        action="store_true",
        help="also run the incremental-session pass: stream each "
        "largest-scale document through a session in deterministic "
        "chunks, recording per-increment latency vs a full relink per "
        "chunk and the final-state parity gate (the record's `session` "
        "block; parity failure exits 1)",
    )
    bench_parser.add_argument(
        "--session-chunks",
        type=int,
        default=None,
        metavar="K",
        help="chunks per streamed document (default 4)",
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command")
    bench_compare = bench_sub.add_parser(
        "compare", help="diff two bench JSON files; exit 1 on regression"
    )
    bench_compare.add_argument("baseline", type=Path)
    bench_compare.add_argument("current", type=Path)
    bench_compare.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fail when any stage regresses past this fraction (default 0.25)",
    )
    bench_compare.add_argument(
        "--min-seconds",
        type=float,
        default=0.001,
        metavar="SECONDS",
        help="noise floor: stages faster than this in both records are skipped",
    )
    bench_compare.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (PR mode)",
    )
    bench_load = bench_sub.add_parser(
        "load",
        help="drive the load generator against a live server and assert "
        "overload SLOs (exit 1 on any 5xx, a 429 without Retry-After, "
        "or a blown --max-p99)",
    )
    bench_load.add_argument(
        "--url",
        required=True,
        metavar="URL",
        help="base URL of a running tenet-repro server",
    )
    bench_load.add_argument(
        "--mode", choices=("closed", "open"), default="closed"
    )
    bench_load.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS"
    )
    bench_load.add_argument("--concurrency", type=int, default=4, metavar="N")
    bench_load.add_argument("--qps", type=float, default=20.0, metavar="RPS")
    bench_load.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="distinct X-Client-Id values to rotate through",
    )
    bench_load.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS"
    )
    bench_load.add_argument(
        "--corpus-scale",
        type=float,
        default=0.1,
        metavar="S",
        help="dataset scale of the generated request corpus (default 0.1)",
    )
    bench_load.add_argument(
        "--max-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail when the completed-request p99 exceeds this",
    )
    bench_load.add_argument(
        "--allow-5xx",
        action="store_true",
        help="do not fail on 5xx responses (default: any 5xx fails)",
    )
    bench_load.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the load block as JSON",
    )

    snapshot_parser = subparsers.add_parser(
        "snapshot",
        help="manage the versioned artifact store (build/verify/list/gc)",
    )
    snapshot_sub = snapshot_parser.add_subparsers(
        dest="snapshot_command", required=True
    )
    snap_build = snapshot_sub.add_parser(
        "build", help="build all artifacts and publish one snapshot"
    )
    snap_build.add_argument("store", type=Path, help="snapshot store root")
    snap_build.add_argument(
        "--scales",
        default="1.0",
        metavar="S1,S2,...",
        help="dataset scales to persist (default: 1.0)",
    )
    snap_build.add_argument(
        "--force",
        action="store_true",
        help="rebuild even if the spec's snapshot already exists",
    )
    snap_verify = snapshot_sub.add_parser(
        "verify", help="re-hash artifacts against the manifest; exit 1 on mismatch"
    )
    snap_verify.add_argument(
        "path", type=Path, help="snapshot directory, or a store root to verify all"
    )
    snap_list = snapshot_sub.add_parser(
        "list", help="list snapshots in a store, newest first"
    )
    snap_list.add_argument("store", type=Path)
    snap_list.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    snap_gc = snapshot_sub.add_parser(
        "gc", help="remove temp leftovers, broken snapshots, and old snapshots"
    )
    snap_gc.add_argument("store", type=Path)
    snap_gc.add_argument(
        "--keep", type=int, default=2, help="newest snapshots to keep (default 2)"
    )
    snap_gc.add_argument(
        "--dry-run", action="store_true", help="print removals without deleting"
    )

    report_parser = subparsers.add_parser(
        "report",
        help="run the full evaluation and write a markdown report",
    )
    report_parser.add_argument("output", type=Path, help="markdown file")
    report_parser.add_argument("--scale", type=float, default=0.3)
    report_parser.add_argument(
        "--systems",
        default="falcon,qkbfly,kbpearl,earl,mintree,tenet",
    )

    return parser


# ---------------------------------------------------------------------------
# sub-command implementations
# ---------------------------------------------------------------------------

def _cmd_world(args: argparse.Namespace) -> int:
    world = build_synthetic_world(SyntheticKBConfig(seed=args.seed))
    save_dump(world.kb, args.output)
    print(
        f"wrote {args.output}: {world.kb.entity_count} entities, "
        f"{world.kb.predicate_count} predicates, "
        f"{world.kb.triple_count} triples"
    )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    suite = build_benchmark_suite(seed=args.seed, scale=args.scale)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    save_dump(suite.world.kb, args.output_dir / "kb.json")
    for dataset in suite.datasets():
        path = args.output_dir / f"{dataset.name.lower()}.json"
        save_dataset(dataset, path)
        print(f"wrote {path}: {len(dataset)} documents")
    return 0


def _read_text(args: argparse.Namespace) -> str:
    if args.file is not None:
        return args.file.read_text()
    if args.text is not None:
        return args.text
    return sys.stdin.read()


def _result_payload(result, kb, system: str) -> Dict:
    """Label one LinkingResult's JSON payload with KB surface names."""
    payload = result.to_json()
    payload["system"] = system
    for entry in payload["entities"]:
        entry["label"] = kb.get_entity(entry["concept_id"]).label
    for entry in payload["relations"]:
        entry["label"] = kb.get_predicate(entry["concept_id"]).label
    return payload


def _link_payload(linker, kb, text: str) -> Dict:
    """Link one document and return the labelled JSON payload."""
    return _result_payload(linker.link(text), kb, linker.name)


def _link_stream(linker, kb, text: str, chunks: int) -> int:
    """``link --stream``: chunk the document through a session.

    Progress lines (one JSON object per increment: solve kind, mention
    churn, latency) go to stderr so stdout stays exactly one result
    payload, same shape as a one-shot ``link``.
    """
    import random

    from repro.session import StreamingSession
    from repro.session.workloads import split_text

    parts = split_text(text, chunks, random.Random(0), sentence_aligned=True)
    session = StreamingSession(linker)
    for part in parts:
        outcome = session.feed(part)
        print(
            json.dumps(
                {
                    "increment": outcome.increment,
                    "chunk_chars": len(part),
                    "solve": outcome.solve,
                    "new_mentions": outcome.new_mentions,
                    "reused_mentions": outcome.reused_mentions,
                    "elapsed_ms": round(1000 * outcome.elapsed_seconds, 3),
                }
            ),
            file=sys.stderr,
        )
    print(json.dumps(_result_payload(session.result, kb, linker.name), indent=1))
    return 0


def _parse_scales(raw: str) -> Tuple[float, ...]:
    """Parse a ``--scales`` comma list; raises ValueError on bad input."""
    scales = tuple(float(s) for s in raw.split(",") if s.strip())
    if not scales:
        raise ValueError(f"no scales in {raw!r}")
    return scales


def _resolve_context(args: argparse.Namespace):
    """``(context, snapshot_info)`` honouring an optional ``--snapshot``.

    With ``--snapshot`` the context is warm-started from the store
    (load-or-build; progress goes to stderr so JSON output stays clean)
    and the snapshot's identity block is returned for surfacing; without
    it the world is built cold and the info is ``None``.
    """
    if getattr(args, "snapshot", None) is not None:
        from repro.snapshot import SnapshotSpec, load_or_build

        warm = load_or_build(
            args.snapshot,
            SnapshotSpec(seed=args.seed),
            echo=lambda message: print(f"# {message}", file=sys.stderr),
        )
        warm.seed_fuzzy_cache()
        return warm.context, warm.info()
    world = build_synthetic_world(SyntheticKBConfig(seed=args.seed))
    return LinkingContext.build(world.kb, world.taxonomy), None


def _cmd_link(args: argparse.Namespace) -> int:
    text = _read_text(args)
    if not text.strip():
        print("error: empty document", file=sys.stderr)
        return 2
    context, _snapshot_info = _resolve_context(args)
    if args.system == "tenet":
        linker = TenetLinker(
            context, TenetConfig(max_candidates=args.max_candidates)
        )
    else:
        linker = SYSTEM_FACTORIES[args.system](
            context, max_candidates=args.max_candidates
        )
    if args.stream:
        if args.system != "tenet":
            print("error: --stream requires --system tenet", file=sys.stderr)
            return 2
        if args.jsonl:
            print("error: --stream and --jsonl are exclusive", file=sys.stderr)
            return 2
        return _link_stream(linker, context.kb, text.strip(), args.chunks)
    if args.jsonl:
        # Batch mode: every non-empty input line is one document, linked
        # over the warm context built above, streamed as one JSON line.
        for line in text.splitlines():
            document = line.strip()
            if not document:
                continue
            print(json.dumps(_link_payload(linker, context.kb, document)))
        return 0
    print(json.dumps(_link_payload(linker, context.kb, text.strip()), indent=1))
    return 0


def _overload_config(args: argparse.Namespace):
    """Map the ``serve`` overload flags onto an :class:`OverloadConfig`."""
    from repro.service import OverloadConfig

    overrides = {}
    if args.max_queue is not None:
        overrides["max_queue_interactive"] = args.max_queue
    if args.batch_max_queue is not None:
        overrides["max_queue_batch"] = args.batch_max_queue
    if args.rate_limit is not None:
        overrides["rate_limit_per_second"] = args.rate_limit
    if args.rate_limit_burst is not None:
        overrides["rate_limit_burst"] = args.rate_limit_burst
    if args.degrade_queue is not None:
        overrides["degraded_enter_queue_depth"] = args.degrade_queue
        overrides["degraded_exit_queue_depth"] = max(0, args.degrade_queue // 4)
    if args.degrade_p95 is not None:
        overrides["degraded_enter_p95_seconds"] = args.degrade_p95
        overrides["degraded_exit_p95_seconds"] = args.degrade_p95 / 2.0
    return replace(OverloadConfig(), **overrides) if overrides else OverloadConfig()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import LinkerCacheConfig, LinkingService, ServiceConfig
    from repro.service.server import create_server

    if args.sessions and args.cluster:
        # Session state lives in one process; the cluster shards
        # requests across workers, which would scatter a session's
        # increments.
        print("error: --sessions is not supported with --cluster",
              file=sys.stderr)
        return 2
    session_overrides = {}
    if args.sessions:
        session_overrides["sessions_enabled"] = True
    if args.session_max is not None:
        session_overrides["session_max_sessions"] = args.session_max
    if args.session_ttl is not None:
        session_overrides["session_ttl_seconds"] = args.session_ttl
    service_config = ServiceConfig(
        workers=args.workers,
        default_timeout_seconds=args.timeout,
        cache=LinkerCacheConfig(enabled=not args.no_cache),
        # --trace forces tracing on; otherwise defer to TENET_TRACE.
        trace_enabled=True if args.trace else None,
        overload=_overload_config(args),
        **session_overrides,
    )
    linker_config = TenetConfig(max_candidates=args.max_candidates)
    if args.cluster:
        from repro.service import create_cluster_service

        service = create_cluster_service(
            processes=args.workers,
            snapshot_path=args.snapshot,
            seed=args.seed,
            config=service_config,
            linker_config=linker_config,
            echo=lambda message: print(f"# {message}", file=sys.stderr),
        )
        snapshot_info = service.snapshot_info
    else:
        context, snapshot_info = _resolve_context(args)
        service = LinkingService(
            context,
            service_config,
            linker_config,
            snapshot_info=snapshot_info,
        )
    server = create_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    mode = f"cluster of {args.workers} worker processes" if args.cluster else (
        f"{args.workers} worker threads"
    )
    endpoints = "/link /batch /metrics /debug/traces /healthz"
    if args.sessions:
        endpoints += " /session/{id}/feed"
    print(f"tenet-repro serving on http://{host}:{port}  ({mode}; "
          f"endpoints: {endpoints}; Ctrl-C to stop)")
    if snapshot_info is not None:
        print(
            f"context warm-started from snapshot {snapshot_info['id']} "
            f"({snapshot_info['source']}, "
            f"loaded in {snapshot_info['load_seconds']:.3f}s)"
        )
    service.logger.info(
        "service.started",
        host=host,
        port=port,
        workers=args.workers,
        tracing=service.tracer.enabled,
        snapshot=snapshot_info["id"] if snapshot_info else None,
    )
    # Startup objects (the KB, alias index, caches' scaffolding) live as
    # long as the server; moved out of the collector's generations, they
    # are no longer re-scanned by every full collection inside a request.
    gc.freeze()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        BenchConfig,
        BenchSchemaError,
        compare_reports,
        default_report_name,
        format_comparison,
        load_report,
        run_benchmark,
        validate_report,
    )
    from repro.bench.harness import format_report_summary, write_report

    if args.bench_command == "load":
        return _cmd_bench_load(args)

    if args.bench_command == "compare":
        try:
            baseline = load_report(args.baseline)
            current = load_report(args.current)
        except BenchSchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = compare_reports(
            baseline,
            current,
            threshold=args.threshold,
            min_seconds=args.min_seconds,
        )
        print(format_comparison(result, str(args.baseline), str(args.current)))
        if result.ok or args.warn_only:
            return 0
        return 1

    config = BenchConfig.quick() if args.quick else BenchConfig()
    overrides = {}
    if args.scales is not None:
        try:
            scales = _parse_scales(args.scales)
        except ValueError:
            print(f"error: bad --scales {args.scales!r}", file=sys.stderr)
            return 2
        overrides["scales"] = scales
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.warmup is not None:
        overrides["warmup"] = args.warmup
    if args.workers is not None:
        overrides["service_workers"] = args.workers
    if args.cluster:
        overrides["cluster"] = True
    if args.deadline is not None:
        overrides["deadline_seconds"] = args.deadline
    if args.trace:
        overrides["trace"] = True
    if args.load:
        from repro.bench import LoadConfig

        overrides["load"] = LoadConfig(
            mode=args.load_mode,
            duration_seconds=args.load_duration,
            concurrency=args.load_concurrency,
            qps=args.load_qps,
        )
    if args.session:
        overrides["session"] = True
    if args.session_chunks is not None:
        overrides["session_chunks"] = args.session_chunks
    if args.label:
        overrides["label"] = args.label
    overrides["seed"] = args.seed
    config = replace(config, **overrides)

    report = run_benchmark(
        config,
        echo=lambda line: print(f"# {line}"),
        snapshot_path=args.snapshot,
    )
    problems = validate_report(report)
    if problems:  # pragma: no cover - harness/schema drift guard
        print(f"error: generated record is invalid: {problems}", file=sys.stderr)
        return 2
    output = args.output or Path(default_report_name(report["rev"]))
    write_report(report, output)
    print(format_report_summary(report))
    print(f"wrote {output}")
    cluster = report.get("cluster")
    if cluster is not None and not cluster.get("parity", {}).get("ok", True):
        print(
            "error: cluster output diverged from the single-process engine",
            file=sys.stderr,
        )
        return 1
    session = report.get("session")
    if session is not None and not session.get("parity", {}).get("ok", True):
        print(
            "error: session final state drifted from one-shot linking",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_load(args: argparse.Namespace) -> int:
    """``bench load --url``: drive a live server, assert overload SLOs."""
    from repro.bench import LoadConfig, format_load_summary, run_load

    try:
        load_config = LoadConfig(
            mode=args.mode,
            duration_seconds=args.duration,
            concurrency=args.concurrency,
            qps=args.qps,
            clients=args.clients,
            timeout_seconds=args.timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    suite = build_benchmark_suite(seed=args.seed, scale=args.corpus_scale)
    texts = [
        document.text
        for dataset in suite.datasets()
        for document in dataset.documents
    ]
    print(
        f"# driving {args.url} ({args.mode} loop, {args.duration:g}s, "
        f"{len(texts)} distinct documents) ..."
    )
    block = run_load(args.url, texts, load_config)
    if args.output is not None:
        args.output.write_text(json.dumps(block, indent=1) + "\n")
        print(f"# wrote {args.output}")
    print(format_load_summary(block))

    failures = []
    if block["offered"] == 0 or block["status_counts"].get(
        "transport_error", 0
    ) == block["offered"]:
        failures.append("no request ever reached the server")
    if block["errors_5xx"] and not args.allow_5xx:
        failures.append(f"{block['errors_5xx']} responses were 5xx")
    if block["retry_after_missing"]:
        failures.append(
            f"{block['retry_after_missing']} 429 responses lacked Retry-After"
        )
    latency = block.get("latency") or {}
    p99 = latency.get("p99_seconds")
    if args.max_p99 is not None:
        if p99 is None:
            failures.append("no completed requests, cannot check --max-p99")
        elif p99 > args.max_p99:
            failures.append(
                f"p99 {p99:.3f}s exceeds --max-p99 {args.max_p99:g}s"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: load SLOs held")
    return 1 if failures else 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    wanted_systems = [s.strip().lower() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in wanted_systems if s not in SYSTEM_FACTORIES]
    if unknown:
        print(f"error: unknown systems {unknown}", file=sys.stderr)
        return 2
    suite = build_benchmark_suite(seed=args.seed, scale=args.scale)
    context = LinkingContext.build(suite.world.kb, suite.world.taxonomy)
    linkers = [SYSTEM_FACTORIES[s](context) for s in wanted_systems]
    runner = EvaluationRunner(linkers)
    wanted_datasets = {
        d.strip().lower() for d in args.datasets.split(",") if d.strip()
    }
    for dataset in suite.datasets():
        if dataset.name.lower() not in wanted_datasets:
            continue
        scores = runner.evaluate(dataset)
        print(f"=== {dataset.name}")
        for name, system in scores.items():
            entity = system.entity
            line = (
                f"  {name:8s} EL P={entity.precision:.3f} "
                f"R={entity.recall:.3f} F={entity.f1:.3f}"
            )
            if dataset.has_relation_gold and system.relation.predicted:
                relation = system.relation
                line += (
                    f"  RL P={relation.precision:.3f} "
                    f"R={relation.recall:.3f} F={relation.f1:.3f}"
                )
            print(line)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    suite = build_benchmark_suite(seed=args.seed, scale=args.scale)
    for dataset in suite.datasets():
        stats = dataset_statistics(dataset)
        relation_part = (
            f"re/doc={stats.relations_per_document:.2f} "
            f"nlR={100 * stats.non_linkable_relation_fraction:.1f}%"
            if stats.non_linkable_relation_fraction is not None
            else "re=N.A."
        )
        print(
            f"{stats.name:9s} docs={len(dataset):3d} "
            f"w/doc={stats.words_per_document:6.1f} "
            f"n/doc={stats.nouns_per_document:5.2f} "
            f"nlN={100 * stats.non_linkable_noun_fraction:4.1f}% "
            f"{relation_part}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import ErrorAnalyzer
    from repro.eval.report import render_report

    wanted = [s.strip().lower() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in wanted if s not in SYSTEM_FACTORIES]
    if unknown:
        print(f"error: unknown systems {unknown}", file=sys.stderr)
        return 2
    suite = build_benchmark_suite(seed=args.seed, scale=args.scale)
    context = LinkingContext.build(suite.world.kb, suite.world.taxonomy)
    linkers = [SYSTEM_FACTORIES[s](context) for s in wanted]
    runner = EvaluationRunner(linkers)
    scores = {ds.name: runner.evaluate(ds) for ds in suite.datasets()}
    statistics = [dataset_statistics(ds) for ds in suite.datasets()]
    analyzer = ErrorAnalyzer(context)
    error_reports = [
        analyzer.analyze(linker, suite.news) for linker in linkers
    ]
    from repro.analysis import PerformanceBreakdown

    breakdown = PerformanceBreakdown(context)
    breakdowns = [
        breakdown.by_ambiguity(linker, suite.kore50) for linker in linkers
    ]
    document = render_report(
        scores,
        statistics=statistics,
        error_reports=error_reports,
        breakdowns=breakdowns,
    )
    args.output.write_text(document)
    print(f"wrote {args.output} ({len(document.splitlines())} lines)")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.snapshot import (
        MANIFEST_NAME,
        SnapshotSpec,
        build_snapshot,
        gc_snapshots,
        list_snapshots,
        verify_snapshot,
    )

    if args.snapshot_command == "build":
        try:
            scales = _parse_scales(args.scales)
        except ValueError:
            print(f"error: bad --scales {args.scales!r}", file=sys.stderr)
            return 2
        spec = SnapshotSpec(seed=args.seed, scales=scales)
        path = build_snapshot(
            spec,
            args.store,
            echo=lambda message: print(f"# {message}"),
            force=args.force,
        )
        print(path)
        return 0

    if args.snapshot_command == "verify":
        # A specific snapshot directory, or a store root (verify all).
        if (args.path / MANIFEST_NAME).is_file():
            targets = [args.path]
        else:
            targets = [
                Path(entry["path"]) for entry in list_snapshots(args.path)
            ]
            if not targets:
                print(f"error: no snapshots under {args.path}", file=sys.stderr)
                return 2
        failed = 0
        for target in targets:
            problems = verify_snapshot(target)
            if problems:
                failed += 1
                print(f"FAIL {target}")
                for problem in problems:
                    print(f"  - {problem}")
            else:
                print(f"ok   {target}")
        return 1 if failed else 0

    if args.snapshot_command == "list":
        entries = list_snapshots(args.store)
        if args.json:
            print(json.dumps(entries, indent=1))
            return 0
        if not entries:
            print(f"no snapshots under {args.store}")
            return 0
        for entry in entries:
            if "error" in entry:
                print(f"{entry['id']}  BROKEN: {entry['error']}")
                continue
            megabytes = entry["bytes"] / 1e6
            print(
                f"{entry['id']}  seed={entry['seed']} "
                f"scales={','.join(f'{s:g}' for s in entry['scales'])} "
                f"artifacts={entry['artifacts']} size={megabytes:.1f}MB "
                f"digest={entry['content_digest'][:12]}"
            )
        return 0

    # gc
    removed = gc_snapshots(args.store, keep=args.keep, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for path in removed:
        print(f"{verb} {path}")
    print(f"{verb} {len(removed)} entries (keep={args.keep})")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.datasets.loaders import load_dataset
    from repro.datasets.validation import validate_dataset
    from repro.kb.dump import load_dump

    dataset = load_dataset(args.dataset)
    kb = load_dump(args.kb) if args.kb is not None else None
    result = validate_dataset(dataset, kb)
    for problem in result.problems:
        print(f"[{problem.severity}] {problem.doc_id}: {problem.message}")
    print(
        f"{dataset.name}: {len(result.errors)} errors, "
        f"{len(result.warnings)} warnings"
    )
    return 0 if result.ok else 1


_COMMANDS = {
    "bench": _cmd_bench,
    "world": _cmd_world,
    "datasets": _cmd_datasets,
    "link": _cmd_link,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "snapshot": _cmd_snapshot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
