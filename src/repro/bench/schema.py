"""The ``BENCH_*.json`` record schema.

One benchmark run produces one JSON document::

    {
      "schema_version": 5,
      "kind": "tenet-bench",
      "rev": "<git short rev or label>",
      "label": "<freeform run label>",
      "generated_unix": 1754000000.0,
      "config": {"scales": [...], "repeats": N, "warmup": N, "seed": N,
                 "service_workers": N},
      "env": {"python": ..., "implementation": ..., "platform": ...,
              "machine": ..., "cpu_count": ..., "numpy": ...},
      "context_build_seconds": ...,
      "context_source": "cold" | "snapshot",        # optional (older records)
      "snapshot": {"id": ..., "path": ..., "schema_version": N,
                   "content_digest": ..., "source": "warm" | "built",
                   "load_seconds": ..., "artifacts": {...}} | null,
      "peak_rss_kb": ...,
      "total_seconds": ...,
      "scales": [
        {"scale": 1.0, "documents": N, "words": N, "runs": N,
         "documents_per_second": ...,
         "stages": {"extract": {<stats>}, "candidates": {<stats>},
                    "coherence": {<stats>}, "tree_cover": {<stats>},
                    "grouping": {<stats>}, "disambiguation": {<stats>},
                    "total": {<stats>}},
         "graph": {"mentions": N, "candidate_nodes": N, "nodes": N,
                   "edges": N, "total_weight": ..., "max_degree": N,
                   "cover_edges": N}},
        ...
      ],
      "service": {"scale": ..., "documents": N, "workers": N,
                  "wall_seconds": ..., "documents_per_second": ...,
                  "latency": {...}, "caches": {...}} | null,
      "cluster": {"scale": ..., "documents": N, "processes": N,
                  "runs": [{"workers": N, "wall_seconds": ...,
                            "documents_per_second": ..., "errors": N,
                            "parity_mismatches": N, "deaths": N,
                            "respawns": N, "dispatch": {...}}, ...],
                  "scaling": {"baseline_workers": N, "workers": N,
                              "speedup": ... | null},
                  "parity": {"reference": "single-process",
                             "mismatches": N, "ok": true}} | null,
      "deadline": {"scale": ..., "documents": N, "workers": N,
                   "deadline_seconds": ..., "completed": N,
                   "degraded": N, "errors": N, "cancelled": N,
                   "timeouts": N, "abandoned": N,
                   "aborted_stages": {"<stage>": N, ...},
                   "degraded_latency": {<stats>} | null,
                   "completed_latency": {<stats>} | null} | null,
      "trace": {"scale": ..., "documents": N, "wall_seconds": ...,
                "recorded": N, "span_stage_max_delta_seconds": ...,
                "stages": {"<stage>": {<stats>}, ...}} | null,
      "load": {"config": {"mode": "closed" | "open", ...},
               "url": ..., "wall_seconds": ...,
               "offered": N, "offered_rps": ..., "completed": N,
               "rejected": N, "errors_5xx": N, "errors_other": N,
               "degraded": N, "goodput_rps": ..., "shed_rate": ...,
               "retry_after_missing": N,
               "status_counts": {"200": N, "429": N, ...},
               "latency": {"count": N, "mean_seconds": ...,
                           "p50_seconds": ..., "p95_seconds": ...,
                           "p99_seconds": ..., "max_seconds": ...} | null
              } | null,
      "session": {"scale": ..., "documents": N, "chunks": N,
                  "increments": N,
                  "incremental_latency": {<stats>},
                  "full_relink_latency": {<stats>},
                  "amortized_speedup": ...,
                  "workload_speedups": {<stats>} | null,
                  "memo": {"hits": N, "misses": N},
                  "solves": {"initial": N, "full": N},
                  "parity": {"byte_identical": true,
                             "entity_f1_one_shot": ...,
                             "entity_f1_incremental": ...,
                             "relation_f1_one_shot": ...,
                             "relation_f1_incremental": ...,
                             "max_abs_delta": ..., "ok": true}} | null
    }

where ``<stats>`` is the :func:`summarize` block (count / total / mean /
min / max / p50 / stdev, all in seconds).  The ``caches`` block carries
the :mod:`repro.caching` LRU hit/miss/eviction counters (candidate
memo, alias fuzzy memo) and the batched-similarity call counters, so
cache efficacy is part of the recorded trajectory.

``schema_version`` is bumped whenever a field changes meaning; readers
(:func:`repro.bench.compare.load_report`) refuse records from a newer
schema instead of misinterpreting them.  Version 2 added the ``routing``
block (cover-mode router outcome plus the full-vs-routed quality-parity
gate); version 3 added the ``cluster`` block (multi-process sharded
serving: docs/s per worker count, the 1-to-N scaling factor, and the
byte-parity verdict against the single-process engine); version 4 added
the ``session`` block (incremental feed latency vs. a full relink per
chunk, the amortized speedup, and the chunked-vs-one-shot final-state
byte-parity gate); version 5 dropped the ``routing`` block, the
batch-vs-scalar coherence block, and the session block's ``mode`` and
``parity.tolerance`` fields, along with the modes they described.
Older records remain readable — every block is optional, and the
validator no longer checks the dropped ones.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

SCHEMA_VERSION = 5
REPORT_KIND = "tenet-bench"

# Stage names the harness always times (via LinkingResult.stage_seconds,
# the same record eval/timing.py and the service's /metrics read).
CORE_STAGES = (
    "extract",
    "candidates",
    "coherence",
    "tree_cover",
    "grouping",
    "disambiguation",
    "total",
)


class BenchSchemaError(ValueError):
    """A bench JSON document does not conform to the schema."""


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Count/total/mean/min/max/p50/stdev summary of a sample list."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    total = sum(ordered)
    mean = total / n
    if n % 2:
        median = ordered[n // 2]
    else:
        median = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    variance = sum((v - mean) ** 2 for v in ordered) / n
    return {
        "count": n,
        "total": total,
        "mean": mean,
        "min": ordered[0],
        "max": ordered[-1],
        "p50": median,
        "stdev": math.sqrt(variance),
    }


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_stats(block: object, where: str, problems: List[str]) -> None:
    if not isinstance(block, dict):
        problems.append(f"{where}: stats block must be an object")
        return
    for field in ("count", "total", "mean", "min", "max", "p50", "stdev"):
        if field not in block:
            problems.append(f"{where}: missing stats field {field!r}")
        elif not _is_number(block[field]):
            problems.append(f"{where}: stats field {field!r} is not a number")
    if _is_number(block.get("mean")) and block["mean"] < 0:
        problems.append(f"{where}: negative mean")


def validate_report(payload: object) -> List[str]:
    """All schema problems of one parsed bench document (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["report must be a JSON object"]

    version = payload.get("schema_version")
    if not isinstance(version, int):
        problems.append("missing or non-integer schema_version")
    elif version > SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported {SCHEMA_VERSION}"
        )
    if payload.get("kind") != REPORT_KIND:
        problems.append(f"kind must be {REPORT_KIND!r}")
    if not isinstance(payload.get("rev"), str):
        problems.append("missing rev")

    env = payload.get("env")
    if not isinstance(env, dict):
        problems.append("missing env fingerprint")
    else:
        for field in ("python", "platform", "numpy"):
            if field not in env:
                problems.append(f"env: missing field {field!r}")

    scales = payload.get("scales")
    if not isinstance(scales, list) or not scales:
        problems.append("scales must be a non-empty list")
        scales = []
    for i, entry in enumerate(scales):
        where = f"scales[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        if not _is_number(entry.get("scale")):
            problems.append(f"{where}: missing numeric scale")
        if not isinstance(entry.get("documents"), int):
            problems.append(f"{where}: missing document count")
        stages = entry.get("stages")
        if not isinstance(stages, dict) or not stages:
            problems.append(f"{where}: stages must be a non-empty object")
            continue
        for stage in CORE_STAGES:
            if stage not in stages:
                problems.append(f"{where}: missing stage {stage!r}")
        for stage, block in stages.items():
            _check_stats(block, f"{where}.stages[{stage!r}]", problems)

    # Optional warm-start provenance (absent in pre-snapshot records —
    # additions stay backward compatible within schema_version 1).
    source = payload.get("context_source")
    if source is not None and source not in ("cold", "snapshot"):
        problems.append(
            f"context_source must be 'cold' or 'snapshot', got {source!r}"
        )
    snapshot = payload.get("snapshot")
    if snapshot is not None:
        if not isinstance(snapshot, dict):
            problems.append("snapshot must be an object or null")
        else:
            for field in ("id", "content_digest"):
                if not isinstance(snapshot.get(field), str):
                    problems.append(f"snapshot: missing string {field!r}")
            if not _is_number(snapshot.get("load_seconds")):
                problems.append("snapshot: missing numeric 'load_seconds'")
    if source == "snapshot" and snapshot is None:
        problems.append("context_source is 'snapshot' but snapshot block is null")

    service = payload.get("service")
    if service is not None:
        if not isinstance(service, dict):
            problems.append("service must be an object or null")
        else:
            if not _is_number(service.get("documents_per_second")):
                problems.append("service: missing documents_per_second")
            if not isinstance(service.get("caches"), dict):
                problems.append("service: missing caches block")

    cluster = payload.get("cluster")
    if cluster is not None:
        _check_cluster_block(cluster, problems)

    deadline = payload.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, dict):
            problems.append("deadline must be an object or null")
        else:
            if not _is_number(deadline.get("deadline_seconds")):
                problems.append("deadline: missing deadline_seconds")
            for field in ("completed", "degraded", "cancelled"):
                if not isinstance(deadline.get(field), int):
                    problems.append(f"deadline: missing integer {field!r}")
            if not isinstance(deadline.get("aborted_stages"), dict):
                problems.append("deadline: missing aborted_stages block")
            for field in ("degraded_latency", "completed_latency"):
                block = deadline.get(field)
                if block is not None:
                    _check_stats(block, f"deadline.{field}", problems)

    trace = payload.get("trace")
    if trace is not None:
        if not isinstance(trace, dict):
            problems.append("trace must be an object or null")
        else:
            if not isinstance(trace.get("documents"), int):
                problems.append("trace: missing integer 'documents'")
            if not isinstance(trace.get("recorded"), int):
                problems.append("trace: missing integer 'recorded'")
            if not _is_number(trace.get("span_stage_max_delta_seconds")):
                problems.append(
                    "trace: missing numeric 'span_stage_max_delta_seconds'"
                )
            stages = trace.get("stages")
            if not isinstance(stages, dict) or not stages:
                problems.append("trace: stages must be a non-empty object")
            else:
                for stage, block in stages.items():
                    _check_stats(block, f"trace.stages[{stage!r}]", problems)

    load = payload.get("load")
    if load is not None:
        _check_load_block(load, problems)

    session = payload.get("session")
    if session is not None:
        _check_session_block(session, problems)

    return problems


def _check_cluster_block(cluster: object, problems: List[str]) -> None:
    """Schema of the multi-process cluster block (schema_version >= 3)."""
    if not isinstance(cluster, dict):
        problems.append("cluster must be an object or null")
        return
    if not isinstance(cluster.get("documents"), int):
        problems.append("cluster: missing integer 'documents'")
    if not isinstance(cluster.get("processes"), int):
        problems.append("cluster: missing integer 'processes'")
    runs = cluster.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("cluster: runs must be a non-empty list")
        runs = []
    for i, run in enumerate(runs):
        where = f"cluster.runs[{i}]"
        if not isinstance(run, dict):
            problems.append(f"{where}: must be an object")
            continue
        for field in ("workers", "errors", "parity_mismatches", "deaths",
                      "respawns"):
            if not isinstance(run.get(field), int):
                problems.append(f"{where}: missing integer {field!r}")
        for field in ("wall_seconds", "documents_per_second"):
            if not _is_number(run.get(field)):
                problems.append(f"{where}: missing numeric {field!r}")
        if not isinstance(run.get("dispatch"), dict):
            problems.append(f"{where}: missing dispatch block")
    scaling = cluster.get("scaling")
    if not isinstance(scaling, dict):
        problems.append("cluster: missing scaling block")
    else:
        for field in ("baseline_workers", "workers"):
            if not isinstance(scaling.get(field), int):
                problems.append(f"cluster.scaling: missing integer {field!r}")
        speedup = scaling.get("speedup")
        if speedup is not None and not _is_number(speedup):
            problems.append("cluster.scaling: speedup must be numeric or null")
    parity = cluster.get("parity")
    if not isinstance(parity, dict):
        problems.append("cluster: missing parity block")
    else:
        if not isinstance(parity.get("ok"), bool):
            problems.append("cluster.parity: missing ok flag")
        if not isinstance(parity.get("mismatches"), int):
            problems.append("cluster.parity: missing integer 'mismatches'")


def _check_session_block(session: object, problems: List[str]) -> None:
    """Schema of the incremental-session block (schema_version >= 4)."""
    if not isinstance(session, dict):
        problems.append("session must be an object or null")
        return
    for field in ("documents", "chunks", "increments"):
        if not isinstance(session.get(field), int):
            problems.append(f"session: missing integer {field!r}")
    for field in ("incremental_latency", "full_relink_latency"):
        _check_stats(session.get(field), f"session.{field}", problems)
    if not _is_number(session.get("amortized_speedup")):
        problems.append("session: missing numeric 'amortized_speedup'")
    workload_speedups = session.get("workload_speedups")
    if workload_speedups is not None:
        _check_stats(workload_speedups, "session.workload_speedups", problems)
    memo = session.get("memo")
    if not isinstance(memo, dict):
        problems.append("session: missing memo block")
    else:
        for field in ("hits", "misses"):
            if not isinstance(memo.get(field), int):
                problems.append(f"session.memo: missing integer {field!r}")
    if not isinstance(session.get("solves"), dict):
        problems.append("session: missing solves block")
    parity = session.get("parity")
    if not isinstance(parity, dict):
        problems.append("session: missing parity block")
    else:
        if not isinstance(parity.get("byte_identical"), bool):
            problems.append("session.parity: missing byte_identical flag")
        for field in (
            "entity_f1_one_shot",
            "entity_f1_incremental",
            "relation_f1_one_shot",
            "relation_f1_incremental",
            "max_abs_delta",
        ):
            if not _is_number(parity.get(field)):
                problems.append(f"session.parity: missing numeric {field!r}")
        if not isinstance(parity.get("ok"), bool):
            problems.append("session.parity: missing ok flag")


def _check_load_block(load: object, problems: List[str]) -> None:
    """Schema of the load-generator block (``bench --load``)."""
    if not isinstance(load, dict):
        problems.append("load must be an object or null")
        return
    config = load.get("config")
    if not isinstance(config, dict):
        problems.append("load: missing config block")
    elif config.get("mode") not in ("closed", "open"):
        problems.append(
            f"load: config.mode must be 'closed' or 'open', "
            f"got {config.get('mode')!r}"
        )
    for field in (
        "offered",
        "completed",
        "rejected",
        "errors_5xx",
        "errors_other",
        "degraded",
        "retry_after_missing",
    ):
        if not isinstance(load.get(field), int):
            problems.append(f"load: missing integer {field!r}")
    for field in ("wall_seconds", "goodput_rps", "shed_rate"):
        if not _is_number(load.get(field)):
            problems.append(f"load: missing numeric {field!r}")
    shed = load.get("shed_rate")
    if _is_number(shed) and not 0.0 <= shed <= 1.0:
        problems.append(f"load: shed_rate {shed} outside [0, 1]")
    if not isinstance(load.get("status_counts"), dict):
        problems.append("load: missing status_counts block")
    latency = load.get("latency")
    if latency is not None:
        if not isinstance(latency, dict):
            problems.append("load: latency must be an object or null")
        else:
            for field in (
                "count",
                "mean_seconds",
                "p50_seconds",
                "p95_seconds",
                "p99_seconds",
                "max_seconds",
            ):
                if not _is_number(latency.get(field)):
                    problems.append(f"load.latency: missing numeric {field!r}")
    if isinstance(load.get("completed"), int) and latency is None:
        if load["completed"] > 0:
            problems.append(
                "load: completed > 0 but latency block is null"
            )
