"""The workloads: their inputs, how each is driven, what each answer is
checked against.

* ``long-docs`` — closed loop of ``POST /link`` over the Fig. 7 sizes;
* ``session-stream`` — closed loop of session feeds (``serve --sessions``);
* ``bulk-cluster`` — closed loop of ``POST /batch`` (``serve --cluster``).

The reasons for each are in ``perfbench/README.md``.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import inputs
from checks import Answer, Expect
from inputs import Doc, SessionScript
from loadgen import Client, Record, Request


@dataclass
class Op:
    """One request the loop may send, with the answers it should return."""

    request: Request
    expects: List[Expect]
    #: Counts toward the latency metrics (session deletes do not).
    measured: bool = True

    @property
    def op_id(self) -> str:
        return self.request.op_id


class Plan:
    """Everything one run sends, generated from the seed.

    Rounds are the loops' units (a rotation of sizes or datasets, or one
    session).  The first *prefetch* rounds are generated before the
    server starts; a faster server gets more from :meth:`round`,
    generated while the clock is paused.
    """

    def __init__(self, warmup: List[Op], source: Iterator[List[Op]], prefetch: int) -> None:
        self.warmup = warmup
        self._source = source
        self.rounds: List[List[Op]] = list(itertools.islice(source, prefetch))

    def round(self, index: int) -> Optional[List[Op]]:
        while len(self.rounds) <= index:
            generated = next(self._source, None)
            if generated is None:
                return None
            self.rounds.append(generated)
        return self.rounds[index]

    def ops(self) -> Iterator[Op]:
        yield from self.warmup
        for round_ in self.rounds:
            yield from round_

    def digest(self) -> str:
        """Digest of every input generated so far (warm-up included)."""
        return inputs.digest([_op_item(op) for op in self.ops()])


@dataclass
class Pass:
    """One server driven through one plan."""

    warmup: List[Record]
    records: List[Record]  # timed requests, in send order
    wall_s: float  # timed wall time
    ops: Dict[str, Op]
    #: ``(start, end, records)`` of every timed round, when rounds are
    #: whole rotations of equal composition.
    rounds: List[Tuple[float, float, List[Record]]] = field(default_factory=list)


def _op_item(op: Op) -> List[object]:
    request = op.request
    gold = [
        [[g.char_start, g.char_end, g.kind.name, g.concept_id] for g in e.gold]
        for e in op.expects
    ]
    return [request.method, request.path, (request.body or b"").decode(), gold]


def sent_digest(plan: Plan, records: Sequence[Record]) -> str:
    ops = {op.op_id: op for op in plan.ops()}
    return inputs.digest([_op_item(ops[r.op_id]) for r in records])


def link_op(op_id: str, doc: Doc) -> Op:
    body = json.dumps({"text": doc.text, "request_id": op_id}).encode()
    expect = Expect(op_id, ("link", doc.text), doc.words, doc.gold, doc.relation_gold)
    return Op(Request(op_id, "POST", "/link", body), [expect])


def batch_op(op_id: str, docs: Sequence[Doc]) -> Op:
    ids = [f"{op_id}/{i}" for i in range(len(docs))]
    body = json.dumps(
        {"documents": [{"text": d.text, "request_id": i} for d, i in zip(docs, ids)]}
    ).encode()
    expects = [
        Expect(i, ("link", d.text), d.words, d.gold, d.relation_gold) for d, i in zip(docs, ids)
    ]
    return Op(Request(op_id, "POST", "/batch", body), expects)


def session_ops(script: SessionScript) -> List[Op]:
    """The feeds of one session, then its delete."""
    sid = script.session_id
    ops = []
    last = len(script.chunks) - 1
    for k, chunk in enumerate(script.chunks):
        op_id = f"{sid}.f{k:02d}"
        body = json.dumps({"chunk": chunk, "kind": script.kind, "request_id": op_id}).encode()
        if script.kind == "stream":
            ref: Tuple = ("link", "".join(script.chunks[: k + 1]))
            turn = 0
        else:
            ref = ("conversation", tuple(script.chunks))
            turn = k
        expect = Expect(
            op_id,
            ref,
            len(chunk.split()),
            script.gold if k == last else (),
            script.relation_gold and k == last,
            scored=k == last,
            turn=turn,
        )
        ops.append(Op(Request(op_id, "POST", f"/session/{sid}/feed", body), [expect]))
    ops.append(Op(Request(f"{sid}.del", "DELETE", f"/session/{sid}"), [], measured=False))
    return ops


def answers_of(op: Op, record: Record) -> List[Answer]:
    """The answers carried by one response, in the order they were expected."""
    if not op.expects:
        return []
    try:
        payload = json.loads(record.body) if record.body else None
    except ValueError:
        payload = None
    if op.request.path == "/batch":
        responses = payload.get("responses") if isinstance(payload, dict) else None
        if not isinstance(responses, list) or len(responses) != len(op.expects):
            responses = [None] * len(op.expects)
    else:
        responses = [payload]
    answers = []
    for expect, response in zip(op.expects, responses):
        response = response if isinstance(response, dict) else {}
        error = response.get("error")
        answers.append(
            Answer(
                expect,
                op.op_id,
                record.status,
                response.get("result"),
                bool(response.get("degraded")),
                dict(response.get("timings") or {}),
                error=(error or {}).get("code") if error else record.error,
            )
        )
    return answers


def _closed_loop(
    port: int, plan: Plan, seconds: float, whole_rounds: bool, count: Optional[int] = None
) -> Pass:
    """Send the plan's rounds back to back on one connection.

    With *count*, exactly that many rounds.  Otherwise, with
    *whole_rounds*, a round starts only while half a mean round still
    fits in *seconds*, so every size or dataset of a round is measured
    equally often; without, rounds start until *seconds*.  Time spent
    generating rounds beyond the prefetched ones is not counted (the
    server is idle then, between two requests).
    """
    client = Client(port)
    try:
        warmup = [client.send(op.request) for op in plan.warmup]
        records: List[Record] = []
        started = time.perf_counter()
        paused = 0.0
        rounds = []
        for index in itertools.count():
            elapsed = time.perf_counter() - started - paused
            slack = elapsed / index / 2 if whole_rounds and index else 0.0
            if count is not None:
                if index == count:
                    break
            elif index and elapsed + slack >= seconds:
                break
            generating = time.perf_counter()
            round_ = plan.round(index)
            paused += time.perf_counter() - generating
            if round_ is None:
                break
            begun = time.perf_counter()
            sent = [client.send(op.request) for op in round_]
            rounds.append((begun, time.perf_counter(), sent))
            records.extend(sent)
        wall = time.perf_counter() - started - paused
    finally:
        client.close()
    ops = {op.op_id: op for op in plan.ops()}
    return Pass(warmup, records, wall, ops, rounds if whole_rounds else [])


class Workload:
    name = ""
    serve_args: List[str] = []

    def prepare(self, world, seed: int, seconds: float) -> Plan:
        raise NotImplementedError

    def drive(self, port: int, plan: Plan, seconds: float) -> Pass:
        raise NotImplementedError

    def canary(self, world) -> str:
        """Digest of the default seed's first inputs (see BENCHMARK.json)."""
        raise NotImplementedError


class LongDocs(Workload):
    """Closed loop on one connection over the Fig. 7 sizes, in rotation."""

    name = "long-docs"

    def prepare(self, world, seed, seconds):
        warm = inputs.fig7_documents(world, inputs.derive(seed, "warmup"))
        warmup = [link_op(f"w{i}", next(warm)) for i in range(2)]
        docs = inputs.fig7_documents(world, seed)
        rounds = (
            [link_op(f"l{r:02d}-{size}", next(docs)) for size in inputs.FIG7_SIZES]
            for r in itertools.count()
        )
        return Plan(warmup, rounds, self.rotations(seconds))

    #: Whole rotations timed at the configured 20 s (~3 s each when this
    #: benchmark was written).  A fixed count rather than a time: at 7
    #: the tail order statistic (10 samples beyond it) is the median
    #: 128-fact document and p50 the median 64-fact one, however fast
    #: the server, so neither sits on the edge between two sizes.
    ROTATIONS = 7

    def rotations(self, seconds: float) -> int:
        return max(2, min(self.ROTATIONS, round(seconds / 3)))

    def drive(self, port, plan, seconds):
        return _closed_loop(port, plan, seconds, True, self.rotations(seconds))

    def canary(self, world):
        docs = itertools.islice(inputs.fig7_documents(world, inputs.DEFAULT_SEED), 3)
        return inputs.digest([inputs.doc_item(d) for d in docs])


class SessionStream(Workload):
    """Closed loop of stream and conversation sessions on one connection."""

    name = "session-stream"
    serve_args = ["--sessions"]

    def prepare(self, world, seed, seconds):
        warm = next(inputs.session_scripts(world, inputs.derive(seed, "warmup")))
        rounds = (session_ops(s) for s in inputs.session_scripts(world, seed))
        # A session took ~0.5 s when this benchmark was written.
        return Plan(session_ops(warm), rounds, math.ceil(3 * seconds))

    def drive(self, port, plan, seconds):
        return _closed_loop(port, plan, seconds, whole_rounds=False)

    def canary(self, world):
        scripts = itertools.islice(inputs.session_scripts(world, inputs.DEFAULT_SEED), 3)
        return inputs.digest([inputs.script_item(s) for s in scripts])


class BulkCluster(Workload):
    """Closed loop of whole-dataset batches against a 2-worker cluster."""

    name = "bulk-cluster"
    serve_args = ["--cluster", "--workers", "2"]

    def prepare(self, world, seed, seconds):
        _name, warm = next(inputs.dataset_batches(world, inputs.derive(seed, "warmup")))
        warmup = [batch_op("w0", warm)]
        batches = inputs.dataset_batches(world, seed)
        rounds = (
            [batch_op(f"b{r:02d}-{name}", docs) for name, docs in itertools.islice(batches, 4)]
            for r in itertools.count()
        )
        # A rotation of the four datasets took ~2 s when this was written.
        return Plan(warmup, rounds, math.ceil(seconds / 2) + 1)

    def drive(self, port, plan, seconds):
        return _closed_loop(port, plan, seconds, whole_rounds=True)

    def canary(self, world):
        _name, docs = next(inputs.dataset_batches(world, inputs.DEFAULT_SEED))
        return inputs.digest([inputs.doc_item(d) for d in docs])


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (LongDocs(), SessionStream(), BulkCluster())}


def latency_ops(run: Pass) -> List[Tuple[Record, int]]:
    """The timed requests the latency metrics are over, with their weights.

    Every timed request except session deletes.  A ``/batch`` request
    weighs one per document, since each of its documents waits for the
    whole batch.
    """
    chosen = []
    for record in run.records:
        op = run.ops[record.op_id]
        if not op.measured:
            continue
        chosen.append((record, len(op.expects) if op.request.path == "/batch" else 1))
    return chosen

