"""Multi-process sharded serving over shared snapshot state.

CPython's GIL caps the thread-pooled :class:`LinkingService` at roughly
one core of linking throughput no matter how many pool threads it runs.
This module shards the engine across N worker *processes*, each
warm-starting from one shared :mod:`repro.snapshot` artifact: the KB
dump, serialized alias index, and gold sets load from the same files in
every worker (page-cache shared after the first read), and the
embedding matrix is memory-mapped read-only, so the resident cost of a
worker is one context's Python objects — the big numpy matrix is mapped
once by the OS and shared by all of them.

Shape:

* :func:`_worker_main` — the spawn entry point.  A worker loads the
  snapshot, builds its own single-threaded :class:`LinkingService`, and
  serves ``("link", seq, request, deadline)`` messages from a duplex
  pipe by calling ``service.handle`` — the exact code path of the
  single-process engine, which is what makes cluster output
  byte-identical to it.
* :class:`WorkerHandle` — front-end side of one worker: the process,
  the pipe, a reader thread resolving in-flight futures, and liveness
  bookkeeping.  A broken pipe fails every in-flight future with
  :class:`WorkerDiedError` — never a hang.
* :class:`WorkerRegistry` — owns the handles: spawn, least-loaded pick
  with a consistent-hash tiebreak, death detection, and respawn from
  the same snapshot.  It is deliberately a small, self-contained
  object so a future multi-host registry can replace it behind the
  same ``pick``/``handles``/``stop_all`` surface.
* :class:`ClusterService` — a :class:`LinkingService` subclass whose
  :meth:`~ClusterService.handle` routes to a worker instead of linking
  inline.  Everything in front of ``handle`` — admission control, rate
  limiting, degraded mode, deadlines, the HTTP server — is inherited
  unchanged.
* :func:`create_cluster_service` — the factory behind
  ``serve --cluster`` / ``bench --cluster``: resolves (or builds) the
  snapshot, spawns the workers, waits for every ready handshake.

Deadlines preserve the PR 3 contract across the process boundary: the
envelope carries the *absolute* ``time.monotonic`` anchor and expiry
(CLOCK_MONOTONIC is system-wide on Linux), so the worker reconstructs a
:class:`Deadline` anchored at front-end submission — queue time and
pipe time count against the budget, and a worker that trips mid-run
replies with the salvaged prior-only partial exactly like the
single-process engine.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import multiprocessing
import shutil
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import TenetConfig
from repro.core.deadline import Deadline
from repro.obs import StructuredLogger, Trace, Tracer
from repro.service.engine import LinkingService, ServiceConfig
from repro.service.schema import LinkRequest, LinkResponse, ServiceError
from repro.snapshot.store import SnapshotSpec, load_or_build, load_snapshot

#: Start method: ``spawn`` is mandatory — the front end runs pool,
#: admission, and reader threads, and forking a threaded
#: process is undefined behaviour territory (inherited locks mid-hold).
_MP_START_METHOD = "spawn"


class ClusterError(RuntimeError):
    """Cluster bring-up or dispatch failed (worker never became ready)."""


class WorkerDiedError(RuntimeError):
    """The worker process died with requests in flight (or before send)."""


class WorkerReplyError(RuntimeError):
    """The worker replied with a failure instead of a response payload."""


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the multi-process layer (see :class:`ServiceConfig` for
    the per-process engine knobs, which workers inherit)."""

    processes: int = 2
    #: Seconds to wait for each worker's ready handshake at boot.
    ready_timeout_seconds: float = 180.0
    #: Seconds a graceful shutdown waits for a worker to drain its pipe
    #: before escalating to terminate/kill.
    drain_timeout_seconds: float = 30.0
    #: Respawn a replacement (from the same snapshot) when a worker dies.
    respawn: bool = True
    #: Virtual points per worker on the consistent-hash ring.
    hash_points: int = 64
    #: Extra seconds the front end waits for a worker reply past the
    #: request deadline + cancel grace (covers pipe latency) before
    #: degrading front-end side.
    reply_grace_seconds: float = 0.25
    #: Re-hash snapshot artifacts in every worker.  Off by default: the
    #: front end verifies the snapshot once when it loads its own
    #: context, and workers boot from the very same directory.
    verify_snapshot: bool = False

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")
        if self.hash_points < 1:
            raise ValueError(f"hash_points must be >= 1, got {self.hash_points}")
        if self.drain_timeout_seconds < 0 or self.ready_timeout_seconds <= 0:
            raise ValueError("cluster timeouts must be positive")
        if self.reply_grace_seconds < 0:
            raise ValueError("reply_grace_seconds must be >= 0")


@dataclass(frozen=True)
class _WorkerBoot:
    """Everything a spawned worker needs (picklable by construction)."""

    worker_id: str
    snapshot_path: str
    service_config: ServiceConfig
    linker_config: TenetConfig
    seed_cache: bool = True
    verify_snapshot: bool = False


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Counters that moved since *before* (monotonic counters only)."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _trace_spans(tracer: Tracer, trace_id: Optional[str]) -> List[Dict[str, Any]]:
    """The finished worker-side trace's span payloads (or empty)."""
    if trace_id is None:
        return []
    payload = tracer.get(trace_id)
    if payload is None:
        return []
    return list(payload.get("spans", []))


def _worker_main(boot: _WorkerBoot, conn) -> None:
    """Entry point of one worker process (must stay module-top-level so
    the ``spawn`` start method can import it by qualified name).

    Boots a full single-threaded :class:`LinkingService` from the shared
    snapshot and serves pipe messages serially.  Every received ``seq``
    is answered — with ``("done", seq, payload)`` or
    ``("failed", seq, message)`` — so the front end never waits on a
    message a live worker swallowed.
    """
    started = time.perf_counter()
    warm = load_snapshot(
        boot.snapshot_path, mmap=True, verify=boot.verify_snapshot
    )
    if boot.seed_cache:
        warm.seed_fuzzy_cache()
    service = LinkingService(
        warm.context,
        config=boot.service_config,
        linker_config=boot.linker_config,
        snapshot_info=warm.info(),
    )
    last_counters: Dict[str, int] = {}
    # As in ``serve``: keep the boot state out of full collections.
    gc.freeze()
    try:
        conn.send(("ready", boot.worker_id, time.perf_counter() - started))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "stop":
                break
            seq = message[1]
            try:
                if kind == "link":
                    _kind, seq, request_json, anchor, expires = message
                    request = LinkRequest.from_json(request_json)
                    # Reconstruct the submission-anchored deadline: both
                    # instants are absolute time.monotonic values, valid
                    # across processes on this host.
                    deadline = Deadline(expires_at=expires)
                    deadline.started = anchor
                    response = service.handle(request, deadline)
                    counters = service.metrics.snapshot()["counters"]
                    payload = {
                        "response": response.to_json(),
                        "spans": _trace_spans(service.tracer, response.trace_id),
                        "counters": _counter_delta(last_counters, counters),
                    }
                    last_counters = counters
                    conn.send(("done", seq, payload))
                elif kind == "sleep":
                    # Test/diagnostic aid: park the (serial) worker loop
                    # for a bounded time, so drain and worker-death
                    # tests can deterministically catch it mid-request.
                    _kind, seq, seconds = message
                    time.sleep(min(float(seconds), 60.0))
                    conn.send(("done", seq, {"slept": float(seconds)}))
                else:
                    conn.send(("failed", seq, f"unknown message kind {kind!r}"))
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                try:
                    conn.send(("failed", seq, f"{type(exc).__name__}: {exc}"))
                except (OSError, BrokenPipeError, ValueError):
                    break
    finally:
        service.close()
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# front-end side of one worker
# ---------------------------------------------------------------------------

class WorkerHandle:
    """One worker process as seen from the front end.

    A dedicated reader thread drains the pipe and resolves the pending
    future keyed by ``seq``.  When the pipe breaks — worker killed,
    OOMed, or exited — every in-flight future fails with
    :class:`WorkerDiedError` and the registry's death callback fires
    exactly once, so no caller ever hangs on a dead worker.
    """

    def __init__(
        self,
        boot: _WorkerBoot,
        mp_context,
        on_death: Optional[Callable[["WorkerHandle"], None]] = None,
    ) -> None:
        self.worker_id = boot.worker_id
        self.boot = boot
        self.boot_seconds: Optional[float] = None
        self.alive = False
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self._on_death = on_death
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: Dict[int, "Future[Any]"] = {}
        self._seq = 0
        self._death_handled = False
        parent_conn, child_conn = mp_context.Pipe(duplex=True)
        self._conn = parent_conn
        self.process = mp_context.Process(
            target=_worker_main,
            args=(boot, child_conn),
            name=f"tenet-worker-{self.worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"tenet-cluster-read-{self.worker_id}",
            daemon=True,
        )

    # ------------------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._pending)

    def wait_ready(self, timeout: float) -> None:
        """Block until the worker's ready handshake; raise on failure."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.process.is_alive() and not self._conn.poll():
                break
            if self._conn.poll(min(remaining, 0.25)):
                try:
                    message = self._conn.recv()
                except (EOFError, OSError):
                    break
                if message[0] == "ready":
                    self.boot_seconds = float(message[2])
                    with self._lock:
                        self.alive = True
                    self._reader.start()
                    return
                break
        self.process.terminate()
        self.process.join(timeout=2.0)
        raise ClusterError(
            f"worker {self.worker_id} never became ready "
            f"(exitcode={self.process.exitcode})"
        )

    # ------------------------------------------------------------------
    def dispatch(
        self, request: LinkRequest, deadline: Optional[Deadline]
    ) -> "Future[Dict[str, Any]]":
        """Ship one link request; the future resolves with the worker's
        reply payload (or :class:`WorkerDiedError`)."""
        anchor = deadline.started if deadline is not None else time.monotonic()
        expires = deadline.expires_at if deadline is not None else None
        return self._submit("link", request.to_json(), anchor, expires)

    def call(self, kind: str, *args: Any) -> "Future[Any]":
        """Ship a non-link control message (``sleep`` — test aid)."""
        return self._submit(kind, *args)

    def _submit(self, kind: str, *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        with self._lock:
            if not self.alive:
                raise WorkerDiedError(f"worker {self.worker_id} is not alive")
            self._seq += 1
            seq = self._seq
            self._pending[seq] = future
            if kind == "link":
                self.dispatched += 1
        try:
            with self._send_lock:
                self._conn.send((kind, seq) + args)
        except (OSError, BrokenPipeError, ValueError) as exc:
            with self._lock:
                self._pending.pop(seq, None)
            raise WorkerDiedError(
                f"worker {self.worker_id}: pipe closed ({exc})"
            ) from exc
        return future

    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "done":
                _kind, seq, payload = message
                future = self._pop(seq)
                with self._lock:
                    self.completed += 1
                if future is not None and future.set_running_or_notify_cancel():
                    future.set_result(payload)
            elif kind == "failed":
                _kind, seq, detail = message
                future = self._pop(seq)
                with self._lock:
                    self.failed += 1
                if future is not None and future.set_running_or_notify_cancel():
                    future.set_exception(WorkerReplyError(str(detail)))
            # unknown message kinds are dropped (forward compatibility)
        self._mark_dead()
        if self._on_death is not None:
            self._on_death(self)

    def _pop(self, seq: int) -> Optional["Future[Any]"]:
        with self._lock:
            return self._pending.pop(seq, None)

    def _mark_dead(self) -> None:
        with self._lock:
            if self._death_handled:
                return
            self._death_handled = True
            self.alive = False
            pending = list(self._pending.values())
            self._pending.clear()
            self.failed += len(pending)
        for future in pending:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    WorkerDiedError(
                        f"worker {self.worker_id} died with the request in flight"
                    )
                )
        self.process.join(timeout=1.0)

    # ------------------------------------------------------------------
    def stop(self, drain_timeout: float) -> None:
        """Graceful stop: send the sentinel, wait, then escalate."""
        with self._lock:
            alive = self.alive
        if alive:
            try:
                with self._send_lock:
                    self._conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        self.process.join(timeout=drain_timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)
        try:
            self._conn.close()
        except OSError:
            pass
        # Closing the pipe unblocks the reader thread, whose exit path
        # fails any leftover in-flight futures — nothing hangs.
        if self._reader.is_alive():
            self._reader.join(timeout=5.0)
        self._mark_dead()

    def kill(self) -> None:
        """Hard-kill the process (worker-death tests and escalation)."""
        self.process.kill()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "id": self.worker_id,
                "pid": self.pid,
                "alive": self.alive,
                "inflight": len(self._pending),
                "dispatched": self.dispatched,
                "completed": self.completed,
                "failed": self.failed,
                "boot_seconds": self.boot_seconds,
            }


# ---------------------------------------------------------------------------
# registry: pick / death / respawn
# ---------------------------------------------------------------------------

class _HashRing:
    """Consistent-hash ring over worker ids (sha1-pointed).

    Used as the deterministic tiebreak of least-loaded dispatch: when
    several workers share the minimum inflight count, the same document
    key always lands on the same worker, which keeps any per-worker
    residency (page cache, linking caches) stable across requests.
    """

    def __init__(self, points: int = 64) -> None:
        self._points = points
        self._ring: List[Tuple[int, str]] = []

    @staticmethod
    def _hash(value: str) -> int:
        return int(hashlib.sha1(value.encode("utf-8")).hexdigest()[:16], 16)

    def add(self, worker_id: str) -> None:
        for i in range(self._points):
            bisect.insort(self._ring, (self._hash(f"{worker_id}:{i}"), worker_id))

    def pick(self, key: str, allowed: Sequence[str]) -> Optional[str]:
        if not self._ring:
            return None
        allowed_set = set(allowed)
        if not allowed_set:
            return None
        start = bisect.bisect_left(self._ring, (self._hash(key), ""))
        n = len(self._ring)
        for offset in range(n):
            _point, worker_id = self._ring[(start + offset) % n]
            if worker_id in allowed_set:
                return worker_id
        return None


class WorkerRegistry:
    """In-process registry of worker processes.

    Owns spawn, dispatch selection (least-loaded with a consistent-hash
    tiebreak), death detection, and respawn-from-snapshot.  The surface
    (``start`` / ``pick`` / ``handles`` / ``get`` / ``begin_close`` /
    ``stop_all``) is the pluggability seam for a future multi-host
    registry: :class:`ClusterService` only ever talks to these methods.
    """

    def __init__(
        self,
        config: ClusterConfig,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        self.config = config
        self._mp = multiprocessing.get_context(_MP_START_METHOD)
        self._lock = threading.Lock()
        self._workers: Dict[str, WorkerHandle] = {}
        self._ring = _HashRing(points=config.hash_points)
        self._closing = False
        self._logger = logger
        self.deaths = 0
        self.respawns = 0

    # ------------------------------------------------------------------
    def start(self, boots: Sequence[_WorkerBoot]) -> None:
        """Spawn every worker, then wait for every ready handshake.

        Spawning first and handshaking second boots the fleet in
        parallel — worker N loads the snapshot while worker 0 is still
        importing numpy.  Any boot failure tears the whole fleet down.
        """
        handles: List[WorkerHandle] = []
        try:
            for boot in boots:
                handles.append(
                    WorkerHandle(boot, self._mp, on_death=self._handle_death)
                )
            for handle in handles:
                handle.wait_ready(self.config.ready_timeout_seconds)
        except BaseException:
            for handle in handles:
                handle.stop(drain_timeout=0.0)
            raise
        with self._lock:
            for handle in handles:
                self._workers[handle.worker_id] = handle
                self._ring.add(handle.worker_id)

    # ------------------------------------------------------------------
    def handles(self) -> List[WorkerHandle]:
        with self._lock:
            return list(self._workers.values())

    def get(self, worker_id: str) -> Optional[WorkerHandle]:
        with self._lock:
            return self._workers.get(worker_id)

    def pick(self, key: str) -> Tuple[Optional[WorkerHandle], str]:
        """Least-loaded alive worker; consistent-hash tiebreak on *key*.

        Returns ``(handle, policy)`` where policy is ``"least_loaded"``
        when the inflight minimum was unique and ``"hash_fallback"``
        when the ring broke the tie — or ``(None, "none")`` with no
        alive worker.
        """
        with self._lock:
            alive = [w for w in self._workers.values() if w.alive]
            if not alive:
                return None, "none"
            loads = [(w.inflight, w.worker_id) for w in alive]
            minimum = min(load for load, _wid in loads)
            least = [wid for load, wid in loads if load == minimum]
            if len(least) == 1:
                return self._workers[least[0]], "least_loaded"
            picked = self._ring.pick(key, least)
            if picked is None:  # ring empty (cannot happen after start)
                picked = sorted(least)[0]
            return self._workers[picked], "hash_fallback"

    # ------------------------------------------------------------------
    def _handle_death(self, handle: WorkerHandle) -> None:
        """Reader-thread callback: count the death, respawn in place."""
        with self._lock:
            if self._closing:
                return
            if self._workers.get(handle.worker_id) is not handle:
                return  # already replaced
            self.deaths += 1
            respawn = self.config.respawn
        if self._logger is not None and self._logger.enabled:
            self._logger.log(
                "cluster.worker_died",
                level="error",
                worker=handle.worker_id,
                pid=handle.pid,
                exitcode=handle.process.exitcode,
                inflight_failed=handle.failed,
            )
        if not respawn:
            return
        replacement = WorkerHandle(
            handle.boot, self._mp, on_death=self._handle_death
        )
        try:
            replacement.wait_ready(self.config.ready_timeout_seconds)
        except ClusterError:
            return
        with self._lock:
            if self._closing:
                closing = True
            else:
                closing = False
                self._workers[handle.worker_id] = replacement
                self.respawns += 1
        if closing:
            replacement.stop(drain_timeout=0.0)
            return
        if self._logger is not None and self._logger.enabled:
            self._logger.log(
                "cluster.worker_respawned",
                worker=replacement.worker_id,
                pid=replacement.pid,
                boot_seconds=replacement.boot_seconds,
            )

    # ------------------------------------------------------------------
    def begin_close(self) -> None:
        """Stop respawns; the drain that follows uses the live fleet."""
        with self._lock:
            self._closing = True

    def stop_all(self, drain_timeout: float) -> None:
        self.begin_close()
        for handle in self.handles():
            handle.stop(drain_timeout)

    def stats(self) -> Dict[str, Any]:
        handles = self.handles()
        workers = [handle.stats() for handle in handles]
        return {
            "workers": len(workers),
            "alive": sum(1 for w in workers if w["alive"]),
            "inflight": sum(w["inflight"] for w in workers),
            "deaths": self.deaths,
            "respawns": self.respawns,
            "per_worker": workers,
        }


# ---------------------------------------------------------------------------
# the sharded service
# ---------------------------------------------------------------------------

#: Span attribute keys that would collide with Trace.record parameters.
_RESERVED_SPAN_KEYS = frozenset({"name", "duration", "status", "self"})


class ClusterService(LinkingService):
    """A :class:`LinkingService` whose linking happens in N processes.

    Only :meth:`handle` changes: instead of running the linker inline it
    ships the request (with its submission-anchored deadline) over a
    pipe to a worker picked least-loaded (consistent-hash tiebreak on
    the document id) and rehydrates the worker's
    :class:`~repro.service.schema.LinkResponse`.  Every request path —
    ``link`` / ``link_batch`` / the admitted HTTP paths — funnels
    through ``handle``, so admission control, rate limiting, deadline
    enforcement, and the shutdown-drain contract are all inherited
    verbatim.

    The front end keeps its own warm context (from the same snapshot)
    for the degraded-mode prior-only fast path and caller-side deadline
    fallbacks, which therefore stay byte-compatible with the
    single-process engine.
    """

    def __init__(
        self,
        context,
        config: ServiceConfig = ServiceConfig(),
        linker_config: TenetConfig = TenetConfig(),
        cluster_config: ClusterConfig = ClusterConfig(),
        snapshot_path: Union[str, Path, None] = None,
        logger: Optional[StructuredLogger] = None,
        snapshot_info: Optional[Dict[str, Any]] = None,
        seed_cache: bool = True,
        owned_store: Optional[Path] = None,
    ) -> None:
        if snapshot_path is None:
            raise ClusterError(
                "ClusterService needs a snapshot directory to boot workers "
                "from (use create_cluster_service to build one)"
            )
        super().__init__(
            context,
            config=config,
            linker_config=linker_config,
            logger=logger,
            snapshot_info=snapshot_info,
        )
        self.cluster_config = cluster_config
        self._owned_store = owned_store
        self._registry = WorkerRegistry(cluster_config, logger=self.logger)
        worker_config = replace(
            config,
            workers=1,
            # Workers must trace whenever the front end does, explicitly
            # (the env default would otherwise decide per-process).
            trace_enabled=self.tracer.enabled,
        )
        boots = [
            _WorkerBoot(
                worker_id=f"w{i}",
                snapshot_path=str(snapshot_path),
                service_config=worker_config,
                linker_config=linker_config,
                seed_cache=seed_cache,
                verify_snapshot=cluster_config.verify_snapshot,
            )
            for i in range(cluster_config.processes)
        ]
        try:
            self._registry.start(boots)
        except BaseException:
            super().close()
            if owned_store is not None:
                shutil.rmtree(owned_store, ignore_errors=True)
            raise
        self.metrics.set_gauge("cluster.workers", cluster_config.processes)

    # ------------------------------------------------------------------
    @property
    def registry(self) -> WorkerRegistry:
        return self._registry

    @staticmethod
    def _dispatch_key(request: LinkRequest) -> str:
        """The consistent-hash key: document id, else the text itself."""
        return request.request_id if request.request_id else request.text

    # ------------------------------------------------------------------
    def handle(
        self,
        request: LinkRequest,
        deadline: Optional[Deadline] = None,
        trace: Optional[Trace] = None,
    ) -> LinkResponse:
        started = time.perf_counter()
        if trace is None:
            trace = self.tracer.start(request.request_id)
        self._observe_queue_wait(deadline, trace)
        if deadline is None:
            deadline = Deadline.after(self._timeout_for(request))
        self.metrics.incr("requests.total")
        if self._degraded_mode.active:
            # Overload valve stays front-end local: prior-only answers
            # are cheap enough to not be worth a pipe round-trip.
            return self._finalize(
                self._respond_degraded_mode(request, started, trace), trace, None
            )
        worker, policy = self._registry.pick(self._dispatch_key(request))
        if worker is None:
            self.metrics.incr("cluster.no_worker")
            return self._finalize(
                LinkResponse(
                    request_id=request.request_id,
                    elapsed_seconds=time.perf_counter() - started,
                    error=ServiceError(
                        "unavailable", "no linker worker is available"
                    ),
                ),
                trace,
                None,
            )
        self.metrics.incr(f"cluster.dispatch.{policy}")
        if trace is not None:
            trace.annotate(worker=worker.worker_id)
        try:
            pending = worker.dispatch(request, deadline)
        except WorkerDiedError:
            return self._finalize(
                self._worker_lost_response(request, worker, started, trace),
                trace,
                None,
            )
        timeout = deadline.remaining()
        if timeout is not None:
            timeout += (
                self.config.cancel_grace_seconds
                + self.cluster_config.reply_grace_seconds
            )
        try:
            payload = pending.result(timeout)
        except WorkerDiedError:
            return self._finalize(
                self._worker_lost_response(request, worker, started, trace),
                trace,
                None,
            )
        except FutureTimeoutError:
            # The worker blew past deadline + grace without replying;
            # degrade front-end side exactly like the single-process
            # caller would (the worker's eventual reply is discarded by
            # the already-resolved... by the abandoned future).
            deadline.cancel()
            self.metrics.incr("cluster.reply_timeouts")
            response = self._degrade(request, deadline, trace)
            if trace is not None:
                trace.mark_aborted("cluster_reply")
                self.tracer.finish(trace)
            return response
        except Exception as exc:  # noqa: BLE001 - worker-side failure reply
            self.metrics.incr("requests.errors")
            return self._finalize(
                LinkResponse(
                    request_id=request.request_id,
                    elapsed_seconds=time.perf_counter() - started,
                    error=ServiceError(
                        "internal", f"{type(exc).__name__}: {exc}"
                    ),
                ),
                trace,
                None,
            )
        return self._finalize(
            self._absorb_reply(request, worker, payload, started, trace),
            trace,
            None,
        )

    # ------------------------------------------------------------------
    def _absorb_reply(
        self,
        request: LinkRequest,
        worker: WorkerHandle,
        payload: Dict[str, Any],
        started: float,
        trace: Optional[Trace],
    ) -> LinkResponse:
        """Rehydrate the reply and fold its observability into /metrics."""
        response = LinkResponse.from_json(payload["response"])
        # Per-worker counter fold-in: the worker ships the delta of its
        # own registry since its last reply; merge_counters applies the
        # whole batch atomically under the registry lock.
        self.metrics.merge_counters(
            payload.get("counters", {}),
            prefix=f"cluster.worker.{worker.worker_id}.",
        )
        if trace is not None:
            for span in payload.get("spans", []):
                attributes = {
                    key: value
                    for key, value in (span.get("attributes") or {}).items()
                    if key not in _RESERVED_SPAN_KEYS
                }
                attributes["worker"] = worker.worker_id
                trace.record(
                    str(span.get("name", "worker_span")),
                    float(span.get("duration_seconds", 0.0)),
                    status=str(span.get("status", "ok")),
                    **attributes,
                )
        elapsed = time.perf_counter() - started
        response = replace(
            response, request_id=request.request_id, elapsed_seconds=elapsed
        )
        # Mirror the single-process _respond accounting front-end side
        # so the global counters and the overload machinery see cluster
        # traffic exactly like local traffic.
        self.metrics.observe_stages(response.timings)
        self.metrics.observe("latency.link", elapsed)
        self._latency_window.observe(elapsed)
        self._update_overload_state()
        if response.error is not None:
            self.metrics.incr("requests.errors")
        elif response.degraded:
            self.metrics.incr("requests.degraded")
        else:
            self.metrics.incr("requests.completed")
        if response.aborted_stage is not None:
            self.metrics.incr("requests.cancelled")
            self.metrics.incr(f"stage.{response.aborted_stage}.aborted")
        return response

    def _worker_lost_response(
        self,
        request: LinkRequest,
        worker: WorkerHandle,
        started: float,
        trace: Optional[Trace],
    ) -> LinkResponse:
        """A worker died with this request in flight: clean 503."""
        self.metrics.incr("cluster.worker_failures")
        self.metrics.incr("requests.errors")
        if trace is not None:
            trace.mark_aborted("worker")
        return LinkResponse(
            request_id=request.request_id,
            elapsed_seconds=time.perf_counter() - started,
            error=ServiceError(
                "unavailable",
                f"linker worker {worker.worker_id} died mid-request",
            ),
        )

    # ------------------------------------------------------------------
    def cluster_stats(self) -> Dict[str, Any]:
        """The ``cluster`` block of ``/metrics``."""
        stats = self._registry.stats()
        stats["dispatch"] = {
            "least_loaded": self.metrics.counter("cluster.dispatch.least_loaded"),
            "hash_fallback": self.metrics.counter("cluster.dispatch.hash_fallback"),
            "queue_depth": self._admission.depth(),
            "worker_failures": self.metrics.counter("cluster.worker_failures"),
            "reply_timeouts": self.metrics.counter("cluster.reply_timeouts"),
        }
        return stats

    def snapshot(self) -> Dict[str, Any]:
        payload = super().snapshot()
        payload["cluster"] = self.cluster_stats()
        return payload

    def close(self) -> None:
        with self._lifecycle:
            closing = not self._closed
        if not closing:
            return
        # Respawns stop first (a worker dying during drain must not be
        # replaced), then the parent drain runs against the live fleet —
        # every queued request resolves with a real worker response or
        # the clean 503 envelope — and only then are the workers
        # stopped, with terminate/kill escalation for stragglers.
        self._registry.begin_close()
        super().close()
        self._registry.stop_all(self.cluster_config.drain_timeout_seconds)
        if self._owned_store is not None:
            shutil.rmtree(self._owned_store, ignore_errors=True)


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

def create_cluster_service(
    processes: int = 2,
    snapshot_path: Union[str, Path, None] = None,
    seed: int = 7,
    scales: Sequence[float] = (0.1,),
    config: Optional[ServiceConfig] = None,
    linker_config: TenetConfig = TenetConfig(),
    cluster_config: Optional[ClusterConfig] = None,
    logger: Optional[StructuredLogger] = None,
    echo: Optional[Callable[[str], None]] = None,
    seed_cache: bool = True,
) -> ClusterService:
    """Boot a cluster over one shared snapshot artifact.

    *snapshot_path* may be a snapshot directory or a store root (it is
    resolved — and built on first use — by
    :func:`repro.snapshot.store.load_or_build`).  When ``None``, an
    ephemeral store is built under a temp directory and removed when the
    service closes: the cluster *always* boots from one on-disk
    artifact, because that is what lets N workers share page cache
    instead of each paying a full context build.

    The front-end ``config.workers`` (its dispatch thread pool) is
    raised to at least ``2 × processes`` so every worker can have a
    request in flight plus one queued in its pipe.
    """
    import tempfile

    if cluster_config is None:
        cluster_config = ClusterConfig(processes=processes)
    elif cluster_config.processes != processes:
        cluster_config = replace(cluster_config, processes=processes)
    owned: Optional[Path] = None
    if snapshot_path is None:
        owned = Path(tempfile.mkdtemp(prefix="tenet-cluster-store-"))
        root: Union[str, Path] = owned
    else:
        root = Path(snapshot_path)
    try:
        spec = SnapshotSpec(seed=seed, scales=tuple(scales))
        warm = load_or_build(root, spec, echo=echo)
        if seed_cache:
            warm.seed_fuzzy_cache()
        if config is None:
            config = ServiceConfig(workers=max(4, 2 * processes))
        elif config.workers < 2 * processes:
            config = replace(config, workers=2 * processes)
        return ClusterService(
            warm.context,
            config=config,
            linker_config=linker_config,
            cluster_config=cluster_config,
            snapshot_path=warm.path,
            logger=logger,
            snapshot_info=warm.info(),
            seed_cache=seed_cache,
            owned_store=owned,
        )
    except BaseException:
        if owned is not None:
            shutil.rmtree(owned, ignore_errors=True)
        raise
