#!/usr/bin/env python3
"""The repository's end-to-end benchmark, as one command.

Run from the repository root::

    python3 perfbench/run.py --workload long-docs --seed 1 --seconds 20 --trace 0

It builds the snapshot store once, with the checked-out sources
(``python -m repro.cli snapshot build``), starts the real server
(``python -m repro.cli serve``) for the workload, drives it over HTTP,
checks every answer against the library's in-process answer and prints
every metric by name and unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics of a second, traced pass).

``--workload all`` (the default) runs every workload ``BENCHMARK.json``
lists, one after the other.  ``--steadiness N`` runs one workload N
times on consecutive seeds and prints each end-to-end metric's median,
quartiles and spread against its bound in ``BENCHMARK.json``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Per-run outputs of the benchmark (snapshot store, server logs, spans).
WORK = ROOT / ".perfbench"
#: Server starts per untraced pass; ``setup_s`` is their median.
SETUP_REPEATS = 5

UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "max_rate_rps": "req/s",
    "words_per_s": "words/s",
    "success_rate": "ratio",
    "entity_f1": "ratio",
    "relation_f1": "ratio",
    "server_rss_mb": "MB",
}


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return code


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _recorded_canary(spec: dict, workload: str) -> str:
    """The default seed's input digest, recorded in the workload's ``why``."""
    for entry in spec["workloads"]:
        match = re.search(r"inputs ([0-9a-f]{16})", entry["why"])
        if entry["name"] == workload and match:
            return match.group(1)
    return ""


def _build_store(store: Path, world_seed: int) -> Path:
    """Build the snapshot store through the CLI; returns the snapshot.

    Built afresh by every run, so the world, the embeddings and the
    inputs generated from them always come from the checked-out code.
    """
    from repro.snapshot import SnapshotSpec

    subprocess.run(
        [sys.executable, "-m", "repro.cli", "--seed", str(world_seed),
         "snapshot", "build", str(store)],
        cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
        stdout=subprocess.DEVNULL,
    )
    return store / SnapshotSpec(seed=world_seed).snapshot_id


def drive_pass(workload, plan, seconds, snapshot, logs, trace_dir=None):
    """Start the server (several times, for set-up), run the plan, stop it."""
    import serverctl

    repeats = 1 if trace_dir is not None else SETUP_REPEATS
    setups = []
    server = None
    try:
        for attempt in range(repeats):
            server = serverctl.start(
                ROOT, snapshot, workload.serve_args, logs / f"server-{attempt}.log", trace_dir
            )
            setups.append(server.setup_s)
            if attempt < repeats - 1:
                serverctl.stop(server)
                server = None
        run = workload.drive(server.port, plan, seconds)
        rss = serverctl.peak_rss_mb(server.pid)
        pid = server.pid
    finally:
        if server is not None:
            serverctl.stop(server)
    return run, setups, rss, pid


def collect_answers(run):
    """Every answer of a pass: ``(warm-up answers, timed answers)``."""
    from workloads import answers_of

    warm = [a for r in run.warmup for a in answers_of(run.ops[r.op_id], r)]
    timed = [a for r in run.records for a in answers_of(run.ops[r.op_id], r)]
    return warm, timed


def end_to_end(run, answers, setups, rss):
    """The end-to-end metrics of one pass, plus what is printed beside them."""
    import checks
    import stats
    from workloads import latency_ops

    by_op = {}
    for answer in answers:
        by_op.setdefault(answer.op_id, []).append(answer)

    def op_failed(record):
        if record.status // 100 != 2:
            return True
        own = by_op.get(record.op_id, [])
        return len(own) == 1 and own[0].failed

    weight = {r.op_id: w for r, w in latency_ops(run)}

    def latencies(records):
        """Latency samples of the measured *records*, a failure as infinity."""
        return [
            math.inf if op_failed(r) else r.latency_ms
            for r in records
            if r.op_id in weight
            for _ in range(weight[r.op_id])
        ]

    values = {"setup_s": stats.median(setups)}
    extra = {"setups": " ".join(f"{s:.3f}" for s in setups)}
    per_round = [latencies(records) for _start, _end, records in run.rounds]
    if per_round and min(map(len, per_round)) > stats.MIN_BEYOND:
        # Each round alone has a tail: the median round's p50 and tail
        # are robust to a burst of load and to the edge between two
        # request kinds of different cost.
        tails = [stats.tail(samples) for samples in per_round]
        values["p50_ms"] = stats.median([stats.median(samples) for samples in per_round])
        values["tail_ms"] = stats.median([value for value, _pct, _beyond in tails])
        _value, pct, beyond = tails[0]
        extra["tail"] = (
            f"median over {len(per_round)} rounds of each round's p{pct:.1f}, "
            f"{beyond} of {len(per_round[0])} samples beyond"
        )
    else:
        samples = latencies(run.records)
        values["p50_ms"] = stats.median(samples)
        values["tail_ms"], pct, beyond = stats.tail(samples)
        extra["tail"] = f"p{pct:.1f}, {beyond} of {len(samples)} samples beyond"
    good_words = {}
    for answer in answers:
        if not answer.failed:
            good_words[answer.op_id] = good_words.get(answer.op_id, 0) + answer.expect.words
    if run.rounds:
        # Whole rounds of equal composition: the median round is robust
        # to a burst of load from outside the benchmark.
        spans = [(end - start, records) for start, end, records in run.rounds]
        values["words_per_s"] = stats.median(
            [sum(good_words.get(r.op_id, 0) for r in records) / span for span, records in spans]
        )
        values["max_rate_rps"] = stats.median(
            [sum(weight[r.op_id] for r in records if not op_failed(r)) / span for span, records in spans]
        )
    else:
        values["words_per_s"] = sum(good_words.values()) / run.wall_s
        values["max_rate_rps"] = sum(
            weight[r.op_id] for r in run.records if r.op_id in weight and not op_failed(r)
        ) / run.wall_s
    failed = sum(1 for a in answers if a.failed)
    values["success_rate"] = 1.0 - failed / len(answers)
    counts = checks.f1_counts(answers)
    values["entity_f1"] = stats.f1(counts["e_tp"], counts["e_pred"], counts["e_gold"])
    values["relation_f1"] = stats.f1(counts["r_tp"], counts["r_pred"], counts["r_gold"])
    values["server_rss_mb"] = rss
    extra["error_rate"] = f"{failed / len(answers):.4f} ratio ({failed} of {len(answers)} answers)"
    return values, extra


def _print_answers(label, answers, warm):
    """Print the answer checks; True when no answer failed or mismatched."""
    import checks

    tally = dict.fromkeys(("ok", "degraded", "failed", "mismatch"), 0)
    for answer in answers:
        tally[answer.verdict] += 1
    bad = [
        f"{a.expect.answer_id} ({a.error or a.verdict})" for a in warm + answers if a.hard_failure
    ]
    print(
        f"answers ({label}): {len(answers)} checked + {len(warm)} warm-up; "
        f"ok={tally['ok']} degraded={tally['degraded']} failed={tally['failed']} "
        f"mismatch={tally['mismatch']}; digest {checks.answers_digest(answers)}"
    )
    if bad:
        print(f"  first failing request ids: {', '.join(bad[:8])}")
    return not bad


def _print_metrics(values, extra):
    for name in UNITS:
        note = ""
        if name == "tail_ms":
            note = f"  ({extra['tail']})"
        elif name == "setup_s":
            note = f"  (median of {extra['setups']})"
        print(f"  {name:14s} {values[name]:14.4f} {UNITS[name]:8s}{note}")
        if name == "success_rate":
            print(f"  {'error_rate':14s} {extra['error_rate']}")


def _finite(value: float, cap: float) -> float:
    """JSON has no infinity: a tail made of failures reads as *cap*."""
    return value if math.isfinite(value) else cap


def run_workload(args) -> int:
    """One run of one workload, in a directory of its own, removed after."""
    logs = WORK / "runs" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    logs.mkdir(parents=True)
    try:
        return _measure(args, logs)
    finally:
        shutil.rmtree(logs, ignore_errors=True)


def _measure(args, logs: Path) -> int:
    import checks
    import inputs
    import layers
    from repro.snapshot import load_snapshot
    from workloads import WORKLOADS, sent_digest

    started = time.perf_counter()
    spec = _benchmark_json()
    unknown = {m["name"] for m in spec["end_to_end"]} - set(UNITS)
    if unknown:
        return _fail(f"BENCHMARK.json names end-to-end metrics the benchmark lacks: {sorted(unknown)}")
    workload = WORKLOADS[args.workload]
    snapshot = _build_store(logs / "store", inputs.WORLD_SEED)
    world = load_snapshot(snapshot).world

    canary = workload.canary(world)
    recorded = _recorded_canary(spec, workload.name)
    if canary != recorded:
        return _fail(
            f"the default seed's inputs changed: digest {canary}, BENCHMARK.json records "
            f"{recorded or 'none'}; a generator or world change makes runs incomparable",
            3,
        )
    plan = workload.prepare(world, args.seed, args.seconds)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    phases = [time.perf_counter()]
    run, setups, rss, _pid = drive_pass(workload, plan, args.seconds, snapshot, logs)
    traced = None
    if args.trace:
        trace_dir = logs / "spans"
        trace_dir.mkdir()
        traced = drive_pass(workload, plan, args.seconds, snapshot, logs, trace_dir)
    phases.append(time.perf_counter())

    passes = [run] + ([traced[0]] if traced else [])
    answers = [collect_answers(p) for p in passes]
    tasks = [t for warm, timed in answers for t in checks.tasks_for(warm + timed)]
    refs = checks.references(tasks, str(snapshot), inputs.WORLD_SEED, logs)
    for warm, timed in answers:
        checks.check(warm + timed, refs)
    phases.append(time.perf_counter())
    print(
        f"phases: store and inputs {phases[0] - started:.1f} s, servers {phases[1] - phases[0]:.1f} s, "
        f"reference answers {phases[2] - phases[1]:.1f} s"
    )

    print(
        f"inputs: default-seed digest {canary} matches BENCHMARK.json; "
        f"generated {plan.digest()}; sent {sent_digest(plan, run.records)} "
        f"({len(run.records)} requests + {len(run.warmup)} warm-up)"
    )
    ok = _print_answers("untraced", answers[0][1], answers[0][0])
    values, extra = end_to_end(run, answers[0][1], setups, rss)
    print("end-to-end metrics (tracing off):")
    _print_metrics(values, extra)
    attempted = len(answers[0][1])
    hard = sum(1 for a in answers[0][1] if a.hard_failure)
    metrics = {
        m["name"]: {"value": _finite(values[m["name"]], 1000.0 * run.wall_s), "unit": m["unit"]}
        for m in spec["end_to_end"]
    }

    if traced:
        traced_run, traced_setups, traced_rss, pid = traced
        ok = _print_answers("traced", answers[1][1], answers[1][0]) and ok
        traced_values, _ = end_to_end(traced_run, answers[1][1], traced_setups, traced_rss)
        spans = layers.load_spans(logs / "spans")
        per_layer = layers.analyse(spans, traced_run.records, pid, traced_setups[0])
        # Stage times from the untraced pass: the wrappers slow the stages.
        per_layer.update(layers.stage_metrics(answers[0][1]))
        parity = layers.stage_parity(spans, answers[1][1])
        per_layer["tracing.overhead.p50_ms"] = traced_values["p50_ms"] - values["p50_ms"]
        per_layer["tracing.overhead.tail_ms"] = _finite(
            traced_values["tail_ms"] - values["tail_ms"], 0.0
        )
        per_layer["tracing.stage_parity.outside"] = parity["outside"]
        per_layer["tracing.stage_parity.max_delta_ms"] = parity["max_delta_ms"]
        print("tracing overhead (traced minus untraced):")
        for name in ("setup_s", "p50_ms", "tail_ms", "max_rate_rps", "words_per_s"):
            delta = traced_values[name] - values[name]
            share = delta / values[name] if values[name] else 0.0
            print(f"  {name:14s} {delta:+12.4f} {UNITS[name]:8s} ({share:+.1%})")
        print(
            f"stage parity (wrapper span vs the answer's own timings, tolerance "
            f"{layers.PARITY_ABS_MS} ms + {layers.PARITY_REL:.0%}): {parity['outside']} of "
            f"{parity['compared']} stage times outside, max delta {parity['max_delta_ms']:.4f} ms"
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = set(units) - set(per_layer)
        if unknown:
            return _fail(f"BENCHMARK.json names per-layer metrics the run lacks: {sorted(unknown)}")
        print("per-layer metrics (traced run):")
        for name, unit in units.items():
            print(f"  {name:40s} {per_layer[name]:14.4f} {unit}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in units.items()}
        attempted = len(answers[1][1])
        hard = sum(1 for a in answers[1][1] if a.hard_failure)

    print(json.dumps({"correct": ok, "attempted": attempted, "failed": hard, "metrics": metrics}))
    return 0


def steadiness(args, workload: str) -> int:
    """Run one workload N times on consecutive seeds; report each spread."""
    import stats

    spec = _benchmark_json()
    samples = {}
    for seed in range(args.seed, args.seed + args.steadiness):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0",
        ]
        output = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
        if output.returncode != 0:
            print(output.stdout + output.stderr, file=sys.stderr)
            return _fail(f"seed {seed} failed", output.returncode)
        result = json.loads(output.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)
    print(f"steadiness of {workload} over {args.steadiness} seeds from {args.seed}:")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        summary = stats.spread(samples[name])
        flag = "" if summary["spread"] <= entry["bound"] / 3 else "  > bound/3"
        print(
            f"  {name:14s} {summary['median']:12.4f} {summary['q1']:12.4f} {summary['q3']:12.4f} "
            f"{summary['spread']:8.4f} {entry['bound']:6.3f}{flag}"
        )
    return 0


def every_workload(args) -> int:
    """Run each workload ``BENCHMARK.json`` lists, one after the other."""
    status = 0
    for entry in _benchmark_json()["workloads"]:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
        ]
        sys.stdout.flush()
        status = max(status, subprocess.run(command, cwd=str(ROOT)).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", help="a workload name, or all (those BENCHMARK.json lists)"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    # Ctrl-C and SIGTERM unwind, so the servers are stopped on the way out.
    # A SIGINT ignored by whatever started the benchmark (a background shell
    # job) would be ignored by the servers too, and SIGINT is how they stop.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "cli.py").is_file():
        return _fail(f"no repository sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import inputs
    from workloads import WORKLOADS

    if args.seed is None:
        args.seed = inputs.DEFAULT_SEED
    if args.workload not in WORKLOADS and args.workload != "all":
        return _fail(
            f"unknown workload {args.workload!r} (choose from all, {', '.join(WORKLOADS)})"
        )
    if args.seconds is None:
        args.seconds = float(_benchmark_json()["run_seconds"])
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    import serverctl

    # On every way out, every process this one started, and every process
    # those started, has ended before it exits.
    serverctl.adopt_orphans()
    try:
        if args.steadiness:
            listed = [entry["name"] for entry in _benchmark_json()["workloads"]]
            names = listed if args.workload == "all" else [args.workload]
            return max(steadiness(args, name) for name in names)
        if args.workload == "all":
            return every_workload(args)
        return run_workload(args)
    finally:
        serverctl.end_all()


if __name__ == "__main__":
    sys.exit(main())
