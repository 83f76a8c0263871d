"""The linking engine: a warm, concurrent, deadline-aware service.

:class:`LinkingService` owns one warm :class:`LinkingContext` and one
:class:`TenetLinker` wired with the cross-request caches, and dispatches
documents to a ``ThreadPoolExecutor``.  Linking is a pure function of
the document (the caches are idempotent memos), so N threads produce
results identical to sequential calls — the property the parity tests
pin down.

Deadlines are cooperative: every request gets one
:class:`~repro.core.deadline.Deadline` anchored at submission, and the
worker carries it through the pipeline, which checks the token at each
stage boundary (plus the tree-cover and disambiguation inner loops).  A
request that crosses its deadline therefore *releases its worker within
one checkpoint interval* instead of grinding the full pipeline to
completion with nobody waiting — the failure mode where a burst of slow
documents silently eats the whole pool.  The degraded answer is built
from whatever partial state the aborted run salvaged (candidates
already generated are not recomputed) and is identical to
``link_prior_only`` output for the same document.

Request paths:

* :meth:`link` — synchronous, enforces the per-request deadline and
  degrades gracefully instead of erroring.
* :meth:`link_batch` — one batch through the pool, responses in
  request order, every deadline anchored at submission.
* :meth:`link_admitted` / :meth:`link_batch_admitted` / :meth:`admit` —
  the HTTP front end's paths: the same semantics, but behind the
  bounded two-lane admission queue, per-client token buckets, and
  degraded-mode switching of :mod:`repro.service.overload`.  Shed
  requests raise a typed :class:`AdmissionError` (HTTP 429 +
  ``Retry-After``) *before* any linking work happens.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.config import TenetConfig
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.linker import LinkingContext, TenetLinker
from repro.core.result import LinkingResult
from repro.obs import (
    DEFAULT_RING_SIZE,
    StructuredLogger,
    Trace,
    Tracer,
    tracing_enabled_by_env,
)
from repro.service.cache import LinkerCacheConfig, LinkerCaches, attach_caches
from repro.service.metrics import MetricsRegistry
from repro.service.overload import (
    BATCH_LANE,
    INTERACTIVE_LANE,
    AdmissionController,
    AdmissionError,
    ClientRateLimiter,
    DegradedModeController,
    LatencyWindow,
    OverloadConfig,
    RateLimitedError,
)
from repro.service.schema import (
    BatchLinkRequest,
    BatchLinkResponse,
    LinkRequest,
    LinkResponse,
    ServiceError,
    SessionFeedRequest,
    SessionFeedResponse,
)
from repro.session import (
    ConversationSession,
    SessionClosedError,
    SessionError,
    SessionEvictedError,
    SessionManager,
    StreamingSession,
)


class ServiceClosedError(RuntimeError):
    """A request reached a component that has already been shut down."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving engine."""

    workers: int = 4
    default_timeout_seconds: Optional[float] = None
    # After a deadline expires, how long the waiting caller gives the
    # cancelled worker to deliver its partial-based degraded response
    # before degrading caller-side (covers workers parked between two
    # checkpoints).  One stage-checkpoint interval is plenty.
    cancel_grace_seconds: float = 0.1
    # Request-scoped tracing: None follows the TENET_TRACE environment
    # variable; True/False force it.  Finished traces are kept in a ring
    # of trace_ring_size and served at GET /debug/traces.
    trace_enabled: Optional[bool] = None
    trace_ring_size: int = DEFAULT_RING_SIZE
    cache: LinkerCacheConfig = field(default_factory=LinkerCacheConfig)
    # Admission control / load shedding / degraded-mode watermarks (see
    # repro.service.overload).  Only the admitted request paths
    # (link_admitted / link_batch_admitted, i.e. the HTTP front end) go
    # through the bounded queue; the in-process link/link_batch APIs
    # stay direct for trusted callers like the bench harness.
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    # Stateful sessions (repro.session): off by default.  When enabled
    # the engine owns a SessionManager over the warm linker, so session
    # increments share the cross-request caches with /link, and exposes
    # the admitted feed path behind the same admission queue.
    sessions_enabled: bool = False
    session_max_sessions: int = 64
    session_ttl_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.session_max_sessions < 1:
            raise ValueError(
                f"session_max_sessions must be >= 1, got {self.session_max_sessions}"
            )
        if self.session_ttl_seconds <= 0:
            raise ValueError("session_ttl_seconds must be positive")
        if self.cancel_grace_seconds < 0:
            raise ValueError("cancel_grace_seconds must be >= 0")
        if self.trace_ring_size < 1:
            raise ValueError(
                f"trace_ring_size must be >= 1, got {self.trace_ring_size}"
            )
        if (
            self.default_timeout_seconds is not None
            and self.default_timeout_seconds < 0
        ):
            raise ValueError("default_timeout_seconds must be >= 0")


class LinkingService:
    """Concurrent linking over one warm context."""

    def __init__(
        self,
        context: LinkingContext,
        config: ServiceConfig = ServiceConfig(),
        linker_config: TenetConfig = TenetConfig(),
        logger: Optional[StructuredLogger] = None,
        snapshot_info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.config = config
        # Identity of the snapshot the context was warm-started from
        # (None for a cold build); surfaced verbatim on /metrics so a
        # rolling restart can assert every replica serves the same
        # artifact bytes (compare the content_digest).
        self.snapshot_info = snapshot_info
        self.caches = LinkerCaches(config.cache)
        self.linker = attach_caches(TenetLinker(context, linker_config), self.caches)
        self.metrics = MetricsRegistry()
        trace_enabled = (
            config.trace_enabled
            if config.trace_enabled is not None
            else tracing_enabled_by_env()
        )
        self.tracer = Tracer(enabled=trace_enabled, ring_size=config.trace_ring_size)
        # JSON-lines request logging; the default follows TENET_LOG so
        # the engine never prints unless asked to.
        self.logger = logger if logger is not None else StructuredLogger.from_env()
        self.metrics.set_gauge("pool.worker_count", config.workers)
        self.metrics.set_gauge("pool.active_workers", 0)
        self._pool = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="tenet-link"
        )
        # Overload layer: bounded two-lane admission queue in front of
        # the pool, per-client token buckets, and the degraded-mode
        # hysteresis switch fed by queue depth + rolling p95.
        self._latency_window = LatencyWindow(config.overload.latency_window)
        self._degraded_mode = DegradedModeController(config.overload)
        self._limiter: Optional[ClientRateLimiter] = None
        if config.overload.rate_limit_per_second is not None:
            self._limiter = ClientRateLimiter(
                config.overload.rate_limit_per_second,
                config.overload.rate_limit_burst,
                max_clients=config.overload.max_tracked_clients,
            )
        self._admission = AdmissionController(
            config.overload,
            config.workers,
            self._dispatch_admitted,
            close_error=lambda: ServiceClosedError("LinkingService is closed"),
        )
        self.metrics.set_gauge("admission.queue_depth", 0)
        self.metrics.set_gauge("degraded_mode.active", 0)
        # Stateful sessions: the manager shares the warm linker, so
        # every session increment reuses the same candidate cache as
        # /link.
        self.sessions: Optional[SessionManager] = None
        if config.sessions_enabled:
            self.sessions = SessionManager(
                self._session_factory,
                max_sessions=config.session_max_sessions,
                ttl_seconds=config.session_ttl_seconds,
            )
            self.metrics.set_gauge("sessions.active", 0)
        # Lifecycle guard: every pool submission takes this lock and
        # re-checks `_pool_open`; close() flips the flag under the same
        # lock immediately before ThreadPoolExecutor.shutdown.  A
        # submission therefore either lands strictly before shutdown
        # (and is drained by `wait=True`) or gets the typed
        # ServiceClosedError — never the executor's raw
        # "cannot schedule new futures after shutdown" RuntimeError.
        self._lifecycle = threading.Lock()
        self._pool_open = True
        self._closed = False

    # ------------------------------------------------------------------
    # request paths
    # ------------------------------------------------------------------
    def handle(
        self,
        request: LinkRequest,
        deadline: Optional[Deadline] = None,
        trace: Optional[Trace] = None,
    ) -> LinkResponse:
        """Link one request in the calling thread.

        Never raises: failures come back as an ``error`` envelope so one
        poisonous document cannot take down a worker or a batch, and a
        tripped *deadline* comes back as the degraded prior-only answer
        built from the aborted run's partial state.

        The queue wait — from the *deadline*'s anchor at submission to a
        worker picking the request up — is observed on every request
        that carries a deadline, traced or not.  A *trace* started at
        submission (by :meth:`link` / :meth:`link_batch` / the admitted
        paths) arrives here so the queue wait is its first span; when
        called directly, a fresh trace is started.
        """
        started = time.perf_counter()
        if trace is None:
            trace = self.tracer.start(request.request_id)
        self._observe_queue_wait(deadline, trace)
        cache_before = self._cache_counters() if trace is not None else None
        self.metrics.incr("requests.total")
        active = self.metrics.add_gauge("pool.active_workers", 1)
        self.metrics.set_gauge(
            "pool.saturation", min(1.0, active / self.config.workers)
        )
        try:
            try:
                if self._degraded_mode.active:
                    # Overload valve: under pressure (queue depth or p95
                    # past the enter watermarks) requests are answered
                    # from the prior-only fast path until the hysteresis
                    # controller sees the signals back under the exit
                    # watermarks.
                    return self._finalize(
                        self._respond_degraded_mode(request, started, trace),
                        trace,
                        cache_before,
                    )
                result = self.linker.link(
                    request.text, deadline=deadline, trace=trace
                )
            except DeadlineExceeded as exc:
                return self._finalize(
                    self._respond_cancelled(request, exc, started, trace),
                    trace,
                    cache_before,
                )
            except Exception as exc:  # noqa: BLE001 - envelope, don't crash workers
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
                    cache_before,
                )
            return self._finalize(
                self._respond(
                    request, result, time.perf_counter() - started, degraded=False
                ),
                trace,
                cache_before,
            )
        finally:
            active = self.metrics.add_gauge("pool.active_workers", -1)
            self.metrics.set_gauge(
                "pool.saturation", min(1.0, max(0.0, active) / self.config.workers)
            )

    def link(self, request: LinkRequest) -> LinkResponse:
        """Link with the per-request deadline and graceful degradation."""
        deadline = Deadline.after(self._timeout_for(request))
        trace = self.tracer.start(request.request_id)
        try:
            future = self._pool_submit(self.handle, request, deadline, trace)
        except ServiceClosedError:
            return self._closed_response(request, deadline, trace)
        return self._await(request, deadline, future, trace)

    # ------------------------------------------------------------------
    # admitted request paths (what the HTTP front end calls)
    # ------------------------------------------------------------------
    def admit(
        self,
        request: LinkRequest,
        lane: str = INTERACTIVE_LANE,
        client_id: Optional[str] = None,
    ) -> "Future[LinkResponse]":
        """Queue *request* through the bounded admission layer.

        Raises :class:`~repro.service.overload.AdmissionError` when the
        request is shed — the client is over its token bucket
        (``rate_limited``) or the lane is at capacity (``queue_full``) —
        carrying the ``Retry-After`` hint.  Raises
        :class:`ServiceClosedError` after shutdown.
        """
        future, _deadline, _trace = self._admit(request, lane, client_id)
        return future

    def link_admitted(
        self,
        request: LinkRequest,
        lane: str = INTERACTIVE_LANE,
        client_id: Optional[str] = None,
    ) -> LinkResponse:
        """Synchronous admitted path with the same deadline semantics
        as :meth:`link`.  Admission rejections propagate as
        :class:`AdmissionError` (the HTTP layer's 429); a shutdown while
        the request waits in the queue comes back as a clean
        ``unavailable`` error envelope, never a hang."""
        future, deadline, trace = self._admit(request, lane, client_id)
        try:
            return self._await(request, deadline, future, trace)
        except ServiceClosedError:
            return self._closed_envelope(request, deadline)

    def link_batch_admitted(
        self, batch: BatchLinkRequest, client_id: Optional[str] = None
    ) -> BatchLinkResponse:
        """Admitted batch path: every document takes the batch lane.

        Batch work is strictly lower priority than interactive traffic:
        a queued batch document never dispatches while an interactive
        request waits.  Per-document admission failures become error
        envelopes (``rate_limited`` / ``queue_full``) so one shed
        document does not void the rest of the batch.
        """
        self.metrics.incr("requests.batches")
        self.metrics.incr("requests.batched_documents", len(batch.requests))
        jobs = []
        for request in batch.requests:
            try:
                jobs.append((request, self._admit(request, BATCH_LANE, client_id)))
            except AdmissionError as exc:
                jobs.append((request, exc))
        responses = []
        for request, job in jobs:
            if isinstance(job, AdmissionError):
                responses.append(self._rejected_envelope(request, job))
                continue
            future, deadline, trace = job
            try:
                responses.append(self._await(request, deadline, future, trace))
            except ServiceClosedError:
                responses.append(self._closed_envelope(request, deadline))
        return BatchLinkResponse(tuple(responses))

    # ------------------------------------------------------------------
    # session paths (POST /session/{id}/feed and friends)
    # ------------------------------------------------------------------
    def session_feed_admitted(
        self,
        session_id: str,
        request: SessionFeedRequest,
        client_id: Optional[str] = None,
    ) -> SessionFeedResponse:
        """Feed one increment into a session through the admission layer.

        Same admission semantics as :meth:`link_admitted` — per-client
        token buckets and the bounded lane queue apply, so a burst of
        session traffic is shed with 429s before it can starve the pool.
        The increment's deadline anchors here, at admission.  Lifecycle
        errors come back as typed envelopes, never raises (except
        :class:`AdmissionError` / :class:`ServiceClosedError`, which the
        HTTP layer maps to 429/503): an evicted session is
        ``session_evicted`` (HTTP 410 — recreate and re-feed), a closed
        manager is ``unavailable`` (503), id/kind misuse is
        ``bad_request``, and a tripped deadline is ``timeout`` with the
        session state rolled back to the previous increment.
        """
        if self.sessions is None:
            raise SessionError("sessions are not enabled on this service")
        if self._closed:
            raise ServiceClosedError("LinkingService is closed")
        lane = request.lane or INTERACTIVE_LANE
        if self._limiter is not None:
            client = client_id or "anonymous"
            retry_after = self._limiter.try_acquire(client)
            if retry_after is not None:
                self.metrics.incr("requests.rejected")
                self.metrics.incr("requests.rejected.rate_limited")
                raise RateLimitedError(
                    f"client {client!r} is over its rate limit",
                    retry_after_seconds=retry_after,
                )
        deadline = Deadline.after(self._timeout_for(request))
        trace = self.tracer.start(request.request_id)
        if trace is not None:
            trace.annotate(
                lane=lane, session_id=session_id, session_kind=request.kind
            )
        future: "Future[SessionFeedResponse]" = Future()

        def work() -> SessionFeedResponse:
            return self._handle_session_feed(session_id, request, deadline, trace)

        try:
            self._admission.admit(
                work, future, lane, retry_after_hint=self._retry_after_hint()
            )
        except AdmissionError:
            self.metrics.incr("requests.rejected")
            self.metrics.incr("requests.rejected.queue_full")
            if trace is not None:
                trace.mark_aborted("admission")
                self.tracer.finish(trace)
            raise
        self.metrics.incr(f"admission.admitted.{lane}")
        self._update_overload_state()
        try:
            return future.result(deadline.remaining())
        except FutureTimeoutError:
            deadline.cancel()
            if not future.cancel():
                # The worker is mid-feed; the cooperative abort will
                # resolve the future with the timeout envelope (and the
                # session rolled back) within one checkpoint interval.
                try:
                    return future.result(self.config.cancel_grace_seconds)
                except FutureTimeoutError:
                    self.metrics.incr("requests.abandoned")
            elif trace is not None:
                trace.mark_aborted("queue")
                self.tracer.finish(trace)
            self.metrics.incr("requests.timeouts")
            return self._session_envelope(
                session_id,
                request,
                deadline.elapsed(),
                ServiceError(
                    "timeout",
                    "session feed exceeded its deadline; "
                    "session state unchanged",
                ),
                trace,
            )
        except CancelledError:
            return self._session_envelope(
                session_id,
                request,
                deadline.elapsed(),
                ServiceError(
                    "timeout", "session feed was cancelled before dispatch"
                ),
                trace,
            )
        except ServiceClosedError:
            self.metrics.incr("requests.rejected_on_close")
            return self._session_envelope(
                session_id,
                request,
                deadline.elapsed(),
                ServiceError("unavailable", "service is shutting down"),
                trace,
            )

    def session_info(self, session_id: str) -> Optional[Dict[str, Any]]:
        """Introspection payload for ``GET /session/{id}`` (None = 404)."""
        if self.sessions is None:
            return None
        return self.sessions.get(session_id)

    def session_delete(self, session_id: str) -> bool:
        """Drop one session (``DELETE /session/{id}``)."""
        if self.sessions is None:
            return False
        deleted = self.sessions.delete(session_id)
        if deleted:
            self.metrics.incr("session.deleted")
            self.metrics.set_gauge(
                "sessions.active", self.sessions.active_count()
            )
        return deleted

    def link_batch(self, batch: BatchLinkRequest) -> BatchLinkResponse:
        """Link one explicit batch; responses keep the request order.

        Every request's deadline is anchored *here*, when its work is
        submitted to the pool — not when its turn comes in the collection
        loop — so request *i* gets its own wall-clock window rather than
        ``timeout + sum(earlier waits)``, and the ``elapsed_seconds`` of
        a degraded response measures from submission.
        """
        self.metrics.incr("requests.batches")
        self.metrics.incr("requests.batched_documents", len(batch.requests))
        jobs = []
        for request in batch.requests:
            deadline = Deadline.after(self._timeout_for(request))
            trace = self.tracer.start(request.request_id)
            try:
                future = self._pool_submit(self.handle, request, deadline, trace)
            except ServiceClosedError:
                future = Future()
                future.set_result(
                    self._closed_response(request, deadline, trace)
                )
            jobs.append((request, deadline, future, trace))
        responses = [
            self._await(request, deadline, future, trace)
            for request, deadline, future, trace in jobs
        ]
        return BatchLinkResponse(tuple(responses))

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` payload: counters, latencies, cache stats."""
        payload = self.metrics.snapshot()
        payload["caches"] = self.caches.snapshot(self.linker)
        payload["tracing"] = self.tracer.stats()
        payload["snapshot"] = self.snapshot_info
        enters, exits = self._degraded_mode.transitions
        payload["overload"] = {
            "config": self.config.overload.to_json(),
            "queue_depth": {
                "interactive": self._admission.depth(INTERACTIVE_LANE),
                "batch": self._admission.depth(BATCH_LANE),
                "total": self._admission.depth(),
            },
            "inflight": self._admission.inflight(),
            "window_p95_seconds": self._latency_window.percentile(0.95),
            "degraded_mode": {
                "active": self._degraded_mode.active,
                "enters": enters,
                "exits": exits,
            },
            "rate_limiter": (
                {"tracked_clients": self._limiter.tracked_clients}
                if self._limiter is not None
                else None
            ),
        }
        payload["sessions"] = (
            self.sessions.stats() if self.sessions is not None else None
        )
        payload["config"] = {
            "workers": self.config.workers,
            "default_timeout_seconds": self.config.default_timeout_seconds,
            "cancel_grace_seconds": self.config.cancel_grace_seconds,
            "cache_enabled": self.caches.enabled,
            "trace_enabled": self.tracer.enabled,
            "trace_ring_size": self.config.trace_ring_size,
            "sessions_enabled": self.config.sessions_enabled,
            "session_max_sessions": self.config.session_max_sessions,
            "session_ttl_seconds": self.config.session_ttl_seconds,
        }
        return payload

    def close(self) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        # Order matters: stop admitting first, so everything still
        # queued is rejected with the typed ServiceClosedError (which
        # waiting callers surface as a clean `unavailable` envelope —
        # never a hang, never a silent drop); then the pool (draining
        # the in-flight work).  `_pool_open` flips under the lifecycle
        # lock at the last moment, so any submission that won the lock
        # first is safely inside the pool before shutdown begins.
        rejected = self._admission.close()
        if rejected:
            self.metrics.incr("requests.rejected_on_close", rejected)
        # Drain sessions after admission stops: nothing new can queue,
        # and any feed already in the pool observes the closed flag and
        # resolves with the clean `unavailable` envelope (503).
        if self.sessions is not None:
            drained = self.sessions.close()
            if drained:
                self.metrics.incr("session.drained_on_close", drained)
            self.metrics.set_gauge("sessions.active", 0)
        with self._lifecycle:
            self._pool_open = False
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "LinkingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pool_submit(self, fn, *args) -> "Future[LinkResponse]":
        """Submit to the worker pool, racing shutdown safely.

        The executor's own post-shutdown behaviour is a raw
        ``RuntimeError: cannot schedule new futures after shutdown``;
        taking the lifecycle lock around the open-check + submit pair
        makes that unreachable — :meth:`close` flips ``_pool_open``
        under the same lock before calling ``shutdown``, so a submission
        either fully lands first or raises :class:`ServiceClosedError`.
        """
        with self._lifecycle:
            if not self._pool_open:
                raise ServiceClosedError("LinkingService is closed")
            return self._pool.submit(fn, *args)

    def _closed_response(
        self,
        request: LinkRequest,
        deadline: Deadline,
        trace: Optional[Trace] = None,
    ) -> LinkResponse:
        """Seal the trace of a submission that lost the shutdown race."""
        if trace is not None:
            trace.mark_aborted("shutdown")
            self.tracer.finish(trace)
        response = self._closed_envelope(request, deadline)
        if trace is not None:
            response = replace(response, trace_id=trace.trace_id)
        return response

    def _timeout_for(self, request: LinkRequest) -> Optional[float]:
        return (
            request.timeout_seconds
            if request.timeout_seconds is not None
            else self.config.default_timeout_seconds
        )

    def _session_factory(self, kind: str):
        if kind == "conversation":
            return ConversationSession(self.linker)
        return StreamingSession(self.linker)

    def _handle_session_feed(
        self,
        session_id: str,
        request: SessionFeedRequest,
        deadline: Optional[Deadline] = None,
        trace: Optional[Trace] = None,
    ) -> SessionFeedResponse:
        """Run one session increment in the worker thread.

        Never raises: lifecycle and solver failures come back as typed
        error envelopes.  The session's commit-at-end protocol means any
        failure (deadline abort included) leaves the session at its
        previous increment, so the client can simply retry the chunk.
        """
        started = time.perf_counter()
        self._observe_queue_wait(deadline, trace)
        cache_before = self._cache_counters() if trace is not None else None
        self.metrics.incr("requests.total")
        self.metrics.incr("session.feeds")
        active = self.metrics.add_gauge("pool.active_workers", 1)
        self.metrics.set_gauge(
            "pool.saturation", min(1.0, active / self.config.workers)
        )
        try:
            error: Optional[ServiceError] = None
            try:
                outcome, created = self.sessions.feed(
                    session_id,
                    request.chunk,
                    kind=request.kind,
                    deadline=deadline,
                    trace=trace,
                )
            except SessionEvictedError as exc:
                self.metrics.incr("session.rejected.evicted")
                error = ServiceError("session_evicted", str(exc))
            except SessionClosedError as exc:
                self.metrics.incr("requests.rejected_on_close")
                error = ServiceError("unavailable", str(exc))
            except SessionError as exc:
                self.metrics.incr("requests.errors")
                error = ServiceError("bad_request", str(exc))
            except DeadlineExceeded as exc:
                self.metrics.incr("requests.cancelled")
                self.metrics.incr(f"stage.{exc.stage}.aborted")
                self.metrics.incr("session.feed_timeouts")
                error = ServiceError(
                    "timeout",
                    f"session feed aborted at stage {exc.stage!r}; "
                    "session state unchanged",
                )
            except Exception as exc:  # noqa: BLE001 - envelope, don't crash workers
                self.metrics.incr("requests.errors")
                error = ServiceError("internal", f"{type(exc).__name__}: {exc}")
            if error is not None:
                return self._finalize(
                    SessionFeedResponse(
                        session_id=session_id,
                        kind=request.kind,
                        request_id=request.request_id,
                        elapsed_seconds=time.perf_counter() - started,
                        error=error,
                    ),
                    trace,
                    cache_before,
                )
            elapsed = time.perf_counter() - started
            if created:
                self.metrics.incr("session.created")
            self.metrics.incr(f"session.solve.{outcome.solve}")
            if outcome.coref_inherited:
                self.metrics.incr(
                    "session.coref_inherited", len(outcome.coref_inherited)
                )
            self.metrics.incr("session.memo.hits", outcome.memo_hits)
            self.metrics.incr("session.memo.misses", outcome.memo_misses)
            timings = dict(outcome.stage_seconds)
            self.metrics.observe_stages(timings)
            self.metrics.observe("latency.session_feed", elapsed)
            self._latency_window.observe(elapsed)
            self._update_overload_state()
            self.metrics.incr("requests.completed")
            stats = self.sessions.stats()
            self.metrics.set_gauge("sessions.active", stats["active"])
            self.metrics.set_gauge("sessions.evicted_lru", stats["evicted_lru"])
            self.metrics.set_gauge("sessions.evicted_ttl", stats["evicted_ttl"])
            return self._finalize(
                SessionFeedResponse(
                    result=outcome.result.to_json(include_timings=False),
                    session_id=session_id,
                    kind=request.kind,
                    increment=outcome.increment,
                    created=created,
                    solve=outcome.solve,
                    mentions=outcome.mention_counts(),
                    memo={
                        "hits": outcome.memo_hits,
                        "misses": outcome.memo_misses,
                    },
                    coref=tuple(outcome.coref_inherited),
                    text_length=outcome.text_length,
                    request_id=request.request_id,
                    elapsed_seconds=elapsed,
                    timings=timings,
                ),
                trace,
                cache_before,
            )
        finally:
            active = self.metrics.add_gauge("pool.active_workers", -1)
            self.metrics.set_gauge(
                "pool.saturation", min(1.0, max(0.0, active) / self.config.workers)
            )

    def _session_envelope(
        self,
        session_id: str,
        request: SessionFeedRequest,
        elapsed: float,
        error: ServiceError,
        trace: Optional[Trace] = None,
    ) -> SessionFeedResponse:
        """Caller-side session error envelope (worker never answered)."""
        response = SessionFeedResponse(
            session_id=session_id,
            kind=request.kind,
            request_id=request.request_id,
            elapsed_seconds=elapsed,
            error=error,
        )
        if trace is not None:
            response = replace(response, trace_id=trace.trace_id)
        self._log_request(response, event="session.caller_error")
        return response

    def _admit(
        self,
        request: LinkRequest,
        lane: str,
        client_id: Optional[str],
    ) -> Tuple["Future[LinkResponse]", Deadline, Optional[Trace]]:
        """Rate-limit then enqueue; the deadline anchors here, at admission."""
        if self._closed:
            raise ServiceClosedError("LinkingService is closed")
        if self._limiter is not None:
            client = client_id or "anonymous"
            retry_after = self._limiter.try_acquire(client)
            if retry_after is not None:
                self.metrics.incr("requests.rejected")
                self.metrics.incr("requests.rejected.rate_limited")
                raise RateLimitedError(
                    f"client {client!r} is over its rate limit",
                    retry_after_seconds=retry_after,
                )
        deadline = Deadline.after(self._timeout_for(request))
        trace = self.tracer.start(request.request_id)
        if trace is not None:
            trace.annotate(lane=lane)
        future: "Future[LinkResponse]" = Future()

        def work() -> LinkResponse:
            return self.handle(request, deadline, trace)

        try:
            self._admission.admit(
                work, future, lane, retry_after_hint=self._retry_after_hint()
            )
        except AdmissionError:
            self.metrics.incr("requests.rejected")
            self.metrics.incr("requests.rejected.queue_full")
            if trace is not None:
                trace.mark_aborted("admission")
                self.tracer.finish(trace)
            raise
        self.metrics.incr(f"admission.admitted.{lane}")
        self._update_overload_state()
        return future, deadline, trace

    def _retry_after_hint(self) -> Optional[float]:
        """Seconds a shed client should back off: backlog x mean latency."""
        mean = self._latency_window.mean()
        if mean is None:
            return None
        backlog = self._admission.depth() + self._admission.inflight()
        return mean * max(1.0, backlog / self.config.workers)

    def _dispatch_admitted(self, item) -> None:
        """Feed one admitted item to the pool (admission dispatcher hook).

        A dispatch racing shutdown raises the typed
        :class:`ServiceClosedError`, which the admission loop chains onto
        the waiter's future — surfaced as the clean ``unavailable``
        envelope by :meth:`link_admitted`.
        """
        pooled = self._pool_submit(item.work)

        def _done(source: "Future[LinkResponse]") -> None:
            self._admission.release()
            self._update_overload_state()
            if item.future.done():
                return
            exc = source.exception()
            if exc is not None:
                item.future.set_exception(exc)
            else:
                item.future.set_result(source.result())

        pooled.add_done_callback(_done)

    def _update_overload_state(self) -> None:
        """Re-evaluate the degraded-mode switch and the queue gauges."""
        depth = self._admission.depth()
        p95 = self._latency_window.percentile(0.95)
        was = self._degraded_mode.active
        now = self._degraded_mode.update(depth, p95)
        self.metrics.set_gauge("admission.queue_depth", depth)
        self.metrics.set_gauge(
            "admission.queue_depth.interactive",
            self._admission.depth(INTERACTIVE_LANE),
        )
        self.metrics.set_gauge(
            "admission.queue_depth.batch", self._admission.depth(BATCH_LANE)
        )
        self.metrics.set_gauge("degraded_mode.active", 1 if now else 0)
        if now != was and self.logger.enabled:
            self.logger.log(
                "overload.degraded_mode",
                level="warning",
                active=now,
                queue_depth=depth,
                p95_seconds=p95,
            )

    def _respond_degraded_mode(
        self,
        request: LinkRequest,
        started: float,
        trace: Optional[Trace] = None,
    ) -> LinkResponse:
        """Overload routing: answer from the prior-only fast path."""
        self.metrics.incr("degraded_mode.requests")
        if trace is not None:
            trace.annotate(degraded_mode=True)
            trace.record(
                "degraded_route",
                0.0,
                queue_depth=self._admission.depth(),
                p95_seconds=self._latency_window.percentile(0.95),
            )
        try:
            result = self.linker.link_prior_only(request.text, trace=trace)
        except Exception as exc:  # noqa: BLE001 - envelope, don't crash workers
            self.metrics.incr("requests.errors")
            return LinkResponse(
                request_id=request.request_id,
                elapsed_seconds=time.perf_counter() - started,
                degraded=True,
                error=ServiceError("internal", f"{type(exc).__name__}: {exc}"),
            )
        return self._respond(
            request, result, time.perf_counter() - started, degraded=True
        )

    def _rejected_envelope(
        self, request: LinkRequest, exc: AdmissionError
    ) -> LinkResponse:
        return LinkResponse(
            request_id=request.request_id,
            error=ServiceError(
                exc.code,
                f"{exc} (retry after {exc.retry_after_seconds:.2f}s)",
            ),
        )

    def _closed_envelope(
        self, request: LinkRequest, deadline: Deadline
    ) -> LinkResponse:
        """A queued request rejected by shutdown: clean typed envelope."""
        self.metrics.incr("requests.rejected_on_close")
        return LinkResponse(
            request_id=request.request_id,
            elapsed_seconds=deadline.elapsed(),
            error=ServiceError("unavailable", "service is shutting down"),
        )

    def _await(
        self,
        request: LinkRequest,
        deadline: Deadline,
        future: "Future[LinkResponse]",
        trace: Optional[Trace] = None,
    ) -> LinkResponse:
        """Collect one pooled response, enforcing *deadline* wall-clock.

        The fast path is the worker's own cooperative abort: it notices
        the expiry at a checkpoint and resolves the future with the
        partial-based degraded response.  The caller only steps in when
        the worker is parked between checkpoints (grace expired) or the
        request never left the queue (future cancelled) — then the
        degraded answer is computed caller-side.
        """
        try:
            return future.result(deadline.remaining())
        except FutureTimeoutError:
            deadline.cancel()
            if not future.cancel():
                # The worker is running; give it one checkpoint interval
                # to deliver the cheaper partial-based degraded response.
                try:
                    return future.result(self.config.cancel_grace_seconds)
                except FutureTimeoutError:
                    self.metrics.incr("requests.abandoned")
            elif trace is not None:
                # The request never left the queue, so no worker will
                # ever touch this trace: seal it here with the outcome.
                trace.mark_aborted("queue")
                self.tracer.finish(trace)
        except CancelledError:
            pass
        return self._degrade(request, deadline, trace)

    def _respond(
        self,
        request: LinkRequest,
        result: LinkingResult,
        elapsed: float,
        degraded: bool,
    ) -> LinkResponse:
        timings = dict(result.stage_seconds)
        self.metrics.observe_stages(timings)
        self.metrics.observe("latency.link", elapsed)
        # Feed the overload layer: the rolling window drives the p95
        # watermark, and every completion re-evaluates the hysteresis
        # switch (so degraded mode can disengage once pressure drops).
        self._latency_window.observe(elapsed)
        self._update_overload_state()
        if degraded:
            self.metrics.incr("requests.degraded")
        else:
            self.metrics.incr("requests.completed")
        return LinkResponse(
            result=result.to_json(include_timings=False),
            request_id=request.request_id,
            degraded=degraded,
            elapsed_seconds=elapsed,
            timings=timings,
            aborted_stage=result.aborted_stage,
        )

    def _respond_cancelled(
        self,
        request: LinkRequest,
        exc: DeadlineExceeded,
        started: float,
        trace: Optional[Trace] = None,
    ) -> LinkResponse:
        """Worker-side abort: degrade from the run's salvaged partials."""
        self.metrics.incr("requests.cancelled")
        self.metrics.incr(f"stage.{exc.stage}.aborted")
        partial = exc.partial
        try:
            if partial is not None and partial.candidates is not None:
                # Candidates survived the abort: the prior-only answer
                # needs no recomputation of extraction or generation.
                result = self.linker.prior_only_from_candidates(
                    partial.candidates, timings=partial.stage_seconds, trace=trace
                )
            else:
                result = self.linker.link_prior_only(request.text, trace=trace)
        except Exception as fallback_exc:  # noqa: BLE001 - last resort envelope
            self.metrics.incr("requests.errors")
            return LinkResponse(
                request_id=request.request_id,
                elapsed_seconds=time.perf_counter() - started,
                degraded=True,
                error=ServiceError(
                    "timeout", f"{type(fallback_exc).__name__}: {fallback_exc}"
                ),
            )
        result.aborted_stage = exc.stage
        return self._respond(
            request, result, time.perf_counter() - started, degraded=True
        )

    def _degrade(
        self,
        request: LinkRequest,
        deadline: Deadline,
        trace: Optional[Trace] = None,
    ) -> LinkResponse:
        """Caller-side fallback: the worker never produced a response.

        Either the request never left the queue (its future was
        cancelled) or the worker blew through the cancellation grace;
        answer from the prior-only fast path in the calling thread.
        ``elapsed_seconds`` measures from the deadline's anchor — the
        moment the request was submitted.

        The trace (if any) may still be owned by a running worker, so
        only its immutable ``trace_id`` is attached here — the worker
        seals the span record whenever it finally aborts.
        """
        self.metrics.incr("requests.timeouts")
        try:
            result = self.linker.link_prior_only(request.text)
        except Exception as exc:  # noqa: BLE001 - last resort envelope
            self.metrics.incr("requests.errors")
            response = LinkResponse(
                request_id=request.request_id,
                elapsed_seconds=deadline.elapsed(),
                degraded=True,
                error=ServiceError("timeout", f"{type(exc).__name__}: {exc}"),
            )
        else:
            response = self._respond(
                request, result, deadline.elapsed(), degraded=True
            )
        if trace is not None:
            response = replace(response, trace_id=trace.trace_id)
        self._log_request(response, event="request.caller_degraded")
        return response

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _observe_queue_wait(
        self, deadline: Optional[Deadline], trace: Optional[Trace]
    ) -> None:
        """Observe the wait from admission (the deadline's anchor) to now."""
        if deadline is None:
            return
        queue_wait = max(0.0, deadline.elapsed())
        self.metrics.observe("latency.queue_wait", queue_wait)
        if trace is not None:
            trace.record("queue_wait", queue_wait)

    def _cache_counters(self) -> Dict[str, Tuple[int, int]]:
        """Current (hits, misses) of every cross-request cache."""
        counters: Dict[str, Tuple[int, int]] = {}
        if self.caches.candidates is not None:
            stats = self.caches.candidates.stats
            counters["candidates"] = (stats.hits, stats.misses)
        fuzzy = self.linker.context.alias_index.fuzzy_cache_stats()
        counters["alias_fuzzy"] = (int(fuzzy["hits"]), int(fuzzy["misses"]))
        return counters

    def _cache_delta(
        self, before: Dict[str, Tuple[int, int]]
    ) -> Dict[str, int]:
        """Hit/miss deltas since *before*.

        The caches are shared across workers, so under concurrency a
        delta can include a neighbour request's lookups — the numbers
        are attribution hints, not exact per-request accounting.
        """
        delta: Dict[str, int] = {}
        for name, (hits_now, misses_now) in self._cache_counters().items():
            hits_then, misses_then = before.get(name, (hits_now, misses_now))
            delta[f"{name}_hits"] = max(0, hits_now - hits_then)
            delta[f"{name}_misses"] = max(0, misses_now - misses_then)
        return delta

    def _finalize(
        self,
        response: LinkResponse,
        trace: Optional[Trace],
        cache_before: Optional[Dict[str, Tuple[int, int]]],
    ) -> LinkResponse:
        """Seal the trace, stamp its id on the response, emit the log."""
        cache_delta: Optional[Dict[str, int]] = None
        if trace is not None:
            if cache_before is not None:
                cache_delta = self._cache_delta(cache_before)
                trace.record("cache_lookups", 0.0, **cache_delta)
            trace.annotate(
                degraded=response.degraded,
                error_code=response.error.code if response.error else None,
            )
            self.tracer.finish(trace)
            response = replace(response, trace_id=trace.trace_id)
        self._log_request(response, cache_delta=cache_delta)
        return response

    def _log_request(
        self,
        response: LinkResponse,
        event: Optional[str] = None,
        cache_delta: Optional[Dict[str, int]] = None,
    ) -> None:
        """One structured request log line (no-op when logging is off)."""
        if not self.logger.enabled:
            return
        if event is None:
            if response.error is not None:
                event = "request.error"
            elif response.degraded:
                event = "request.degraded"
            else:
                event = "request.completed"
        level = "info"
        if response.error is not None:
            level = "error"
        elif response.degraded:
            level = "warning"
        self.logger.log(
            event,
            level=level,
            trace_id=response.trace_id,
            request_id=response.request_id,
            elapsed_seconds=response.elapsed_seconds,
            degraded=response.degraded,
            aborted_stage=response.aborted_stage,
            stages={k: round(v, 6) for k, v in response.timings.items()},
            cache=cache_delta,
            error_code=response.error.code if response.error else None,
        )
