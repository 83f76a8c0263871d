"""Answer checks: in-process reference answers, the F1 matcher, digests.

Reference answers come from the library the server runs, in separate
processes after the server has stopped, so they never compete with it:

* ``("link", text)`` — ``TenetLinker.link(text)``, the reference of a
  ``/link`` answer, of a ``/batch`` document, and of a stream feed (the
  one-shot link of the accumulated prefix);
* ``("prior", text)`` — ``TenetLinker.link_prior_only(text)``, what a
  degraded answer must equal;
* ``("conversation", turns)`` — an in-process ``ConversationSession``
  fed the same turns, one answer per turn.

Each is ``to_json(include_timings=False)``, compared as canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.nlp.spans import SpanKind

#: Processes computing reference answers: at most the machine's CPU
#: count, and never more than two.
PROCESSES = max(1, min(2, len(os.sched_getaffinity(0))))


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _answers(linker, task: Sequence) -> List[str]:
    kind, payload = task
    if kind == "link":
        return [canonical(linker.link(payload).to_json(include_timings=False))]
    if kind == "prior":
        return [canonical(linker.link_prior_only(payload).to_json(include_timings=False))]
    if kind == "conversation":
        from repro.session import ConversationSession

        session = ConversationSession(linker)
        return [
            canonical(session.turn(turn).result.to_json(include_timings=False))
            for turn in payload
        ]
    raise ValueError(f"unknown reference task {kind!r}")


def _cost(task: Tuple) -> float:
    """Rough relative cost of a task: linking grows faster than the text."""
    return len(str(task[1])) ** 1.5


def references(
    tasks: Iterable[Tuple], store: str, world_seed: int, workdir: Path
) -> Dict[Tuple, List[str]]:
    """Reference answers for every distinct task, on :data:`PROCESSES` workers.

    Each worker is this file run as a script on its share of the tasks,
    read from and written to JSON files in *workdir*.  Plain child
    processes, all waited for, rather than ``multiprocessing``, whose
    resource tracker outlives the benchmark.
    """
    unique = list(dict.fromkeys(tasks))
    if not unique:
        return {}
    # Costliest first onto the least loaded share, so the shares end together.
    shares: List[List[Tuple]] = [[] for _ in range(min(PROCESSES, len(unique)))]
    loads = [0.0] * len(shares)
    for task in sorted(unique, key=_cost, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(task)
        loads[least] += _cost(task)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    workers = []
    try:
        for index, share in enumerate(shares):
            task_path = workdir / f"references-{index}.tasks.json"
            answer_path = workdir / f"references-{index}.answers.json"
            task_path.write_text(json.dumps(share), encoding="utf-8")
            command = [
                sys.executable, __file__, store, str(world_seed), str(task_path), str(answer_path)
            ]
            workers.append((subprocess.Popen(command, env=env), answer_path))
        for worker, _path in workers:
            if worker.wait() != 0:
                raise RuntimeError(f"reference worker exited with {worker.returncode}")
    finally:
        for worker, _path in workers:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    answers: Dict[Tuple, List[str]] = {}
    for share, (_worker, answer_path) in zip(shares, workers):
        answers.update(zip(share, json.loads(answer_path.read_text(encoding="utf-8"))))
    return answers


def _worker(store: str, world_seed: str, task_path: str, answer_path: str) -> int:
    """Answer the tasks in *task_path* into *answer_path* (one worker)."""
    from repro.core.linker import TenetLinker
    from repro.snapshot import SnapshotSpec, load_or_build

    linker = TenetLinker(load_or_build(store, SnapshotSpec(seed=int(world_seed))).context)
    tasks = json.loads(Path(task_path).read_text(encoding="utf-8"))
    answers = [_answers(linker, task) for task in tasks]
    Path(answer_path).write_text(json.dumps(answers), encoding="utf-8")
    return 0


@dataclass
class Expect:
    """One answer a response should carry, and what it is checked against."""

    answer_id: str
    ref: Tuple  # (kind, payload) task; for conversations also the turn index
    words: int  # whitespace words of the text this request sent
    gold: Tuple = ()
    relation_gold: bool = False
    scored: bool = True  # scored for F1 (a session scores its last answer)
    turn: int = 0


@dataclass
class Answer:
    expect: Expect
    op_id: str
    status: int
    result: Optional[dict]
    degraded: bool
    timings: Dict[str, float]
    error: Optional[str] = None
    verdict: str = "unchecked"  # ok | degraded | failed | mismatch

    @property
    def failed(self) -> bool:
        """Counted in ``error_rate``: anything but a correct full answer."""
        return self.verdict != "ok"

    @property
    def hard_failure(self) -> bool:
        """No answer, or a wrong one (a degraded answer is neither)."""
        return self.verdict in ("failed", "mismatch")


def tasks_for(answers: Sequence[Answer]) -> List[Tuple]:
    """The reference tasks the *answers* need."""
    needed = []
    for answer in answers:
        if answer.result is None:
            continue
        kind, payload = answer.expect.ref
        if answer.degraded:
            needed.append(("prior", payload))
        else:
            needed.append((kind, payload))
    return needed


def check(answers: Sequence[Answer], refs: Dict[Tuple, List[str]]) -> None:
    """Set every answer's verdict against its reference."""
    for answer in answers:
        if answer.status // 100 != 2 or answer.result is None:
            answer.verdict = "failed"
            continue
        kind, payload = answer.expect.ref
        key = ("prior", payload) if answer.degraded else (kind, payload)
        expected = refs[key][answer.expect.turn]
        if canonical(answer.result) != expected:
            answer.verdict = "mismatch"
        else:
            answer.verdict = "degraded" if answer.degraded else "ok"


def f1_counts(answers: Sequence[Answer]) -> Dict[str, int]:
    """Micro counts of exact span-and-concept matches against the gold.

    A failed or degraded answer scores as all misses.  Relation counts
    cover only answers whose document has relation gold.
    """
    counts = dict.fromkeys(("e_tp", "e_pred", "e_gold", "r_tp", "r_pred", "r_gold"), 0)
    for answer in answers:
        expect = answer.expect
        if not expect.scored:
            continue
        gold_e = {
            (g.char_start, g.char_end, g.concept_id)
            for g in expect.gold
            if g.kind is SpanKind.NOUN and g.concept_id
        }
        gold_r = {
            (g.char_start, g.char_end, g.concept_id)
            for g in expect.gold
            if g.kind is SpanKind.RELATION and g.concept_id
        }
        result = answer.result if not answer.failed else None
        pred_e = pred_r = set()
        if result is not None:
            pred_e = {(e["char_start"], e["char_end"], e["concept_id"]) for e in result["entities"]}
            pred_r = {(r["char_start"], r["char_end"], r["concept_id"]) for r in result["relations"]}
        counts["e_tp"] += len(pred_e & gold_e)
        counts["e_pred"] += len(pred_e)
        counts["e_gold"] += len(gold_e)
        if expect.relation_gold:
            counts["r_tp"] += len(pred_r & gold_r)
            counts["r_pred"] += len(pred_r)
            counts["r_gold"] += len(gold_r)
    return counts


def answers_digest(answers: Sequence[Answer]) -> str:
    """Short SHA-256 over every answer in send order."""
    hasher = hashlib.sha256()
    for answer in answers:
        body = canonical(answer.result) if answer.result is not None else f"error:{answer.status}"
        hasher.update(f"{answer.expect.answer_id}\t{answer.degraded}\t{body}\n".encode())
    return hasher.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(_worker(*sys.argv[1:]))
