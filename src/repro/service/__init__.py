"""Concurrent linking service layer (serving subsystem).

Turns the one-shot :class:`repro.core.linker.TenetLinker` into a
long-lived service: typed request/response schema, a bounded cache that
amortises candidate generation across requests, a thread-pooled engine
with per-request deadlines / graceful degradation, process metrics, and
a stdlib-only JSON-over-HTTP server (``tenet-repro serve``).
"""

from repro.core.deadline import Deadline, DeadlineExceeded
from repro.service.cache import LinkerCacheConfig, LinkerCaches, attach_caches
from repro.service.cluster import (
    ClusterConfig,
    ClusterError,
    ClusterService,
    WorkerDiedError,
    WorkerRegistry,
    create_cluster_service,
)
from repro.service.engine import LinkingService, ServiceClosedError, ServiceConfig
from repro.service.metrics import LatencyHistogram, MetricsRegistry
from repro.service.overload import (
    AdmissionController,
    AdmissionError,
    ClientRateLimiter,
    DegradedModeController,
    LatencyWindow,
    OverloadConfig,
    QueueFullError,
    RateLimitedError,
    TokenBucket,
)
from repro.service.schema import (
    BatchLinkRequest,
    BatchLinkResponse,
    LinkRequest,
    LinkResponse,
    SchemaError,
    ServiceError,
)
from repro.service.server import LinkingHTTPServer, create_server

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "BatchLinkRequest",
    "BatchLinkResponse",
    "ClientRateLimiter",
    "ClusterConfig",
    "ClusterError",
    "ClusterService",
    "Deadline",
    "DeadlineExceeded",
    "DegradedModeController",
    "LatencyHistogram",
    "LatencyWindow",
    "LinkerCacheConfig",
    "LinkerCaches",
    "LinkingHTTPServer",
    "LinkingService",
    "LinkRequest",
    "LinkResponse",
    "MetricsRegistry",
    "OverloadConfig",
    "QueueFullError",
    "RateLimitedError",
    "SchemaError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "TokenBucket",
    "WorkerDiedError",
    "WorkerRegistry",
    "attach_caches",
    "create_cluster_service",
    "create_server",
]
