"""Multi-process cluster serving: parity, dispatch, death, drain.

Every cluster here boots from one shared on-disk snapshot store (built
once per module), which is both the production shape and what keeps
worker boot fast enough for tests.  Parity is the load-bearing property:
a worker process runs the exact single-process ``LinkingService.handle``
path over a context deserialised from the same artifact, so its result
payloads must be byte-identical to the in-process engine's.
"""

import json
import threading
import time

import pytest

from repro.service import (
    ClusterConfig,
    LinkingService,
    LinkRequest,
    ServiceClosedError,
    ServiceConfig,
    WorkerDiedError,
    create_cluster_service,
)
from repro.service.cluster import _HashRing
from repro.service.schema import BatchLinkRequest
from repro.snapshot.store import SnapshotSpec, load_or_build

SEED = 7
SCALE = 0.1


@pytest.fixture(scope="module")
def snapshot_store(tmp_path_factory):
    """One snapshot store shared by every cluster boot in this module."""
    root = tmp_path_factory.mktemp("cluster-store")
    warm = load_or_build(root, SnapshotSpec(seed=SEED, scales=(SCALE,)))
    return root, warm


@pytest.fixture(scope="module")
def corpus(snapshot_store):
    _root, warm = snapshot_store
    datasets = warm.datasets_for_scale(SCALE)
    texts = [
        document.text
        for dataset in datasets
        for document in dataset.documents
    ][:6]
    assert len(texts) >= 3, "snapshot corpus unexpectedly small"
    return texts


@pytest.fixture(scope="module")
def cluster(snapshot_store):
    root, _warm = snapshot_store
    service = create_cluster_service(
        processes=2, snapshot_path=root, seed=SEED, scales=(SCALE,)
    )
    yield service
    service.close()


def _canonical(responses):
    return [json.dumps(r.result, sort_keys=True) for r in responses.responses]


def _wait_until(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestParity:
    def test_output_identical_across_worker_counts(
        self, snapshot_store, corpus
    ):
        """`link` output is byte-identical across --workers 1,
        --workers 4, and the single-process engine over the same
        snapshot."""
        root, warm = snapshot_store
        requests = tuple(
            LinkRequest(text=text, request_id=f"parity-{i}")
            for i, text in enumerate(corpus)
        )
        with LinkingService(warm.context, ServiceConfig(workers=1)) as single:
            reference = _canonical(single.link_batch(BatchLinkRequest(requests)))
        for processes in (1, 4):
            service = create_cluster_service(
                processes=processes,
                snapshot_path=root,
                seed=SEED,
                scales=(SCALE,),
            )
            try:
                got = _canonical(service.link_batch(BatchLinkRequest(requests)))
            finally:
                service.close()
            assert got == reference, (
                f"cluster with {processes} worker(s) diverged from the "
                f"single-process engine"
            )

    def test_expired_deadline_degrades_like_single_process(
        self, cluster, corpus
    ):
        """The deadline envelope travels: a request submitted with no
        budget left comes back as the degraded prior-only answer, not an
        error and not a hang."""
        response = cluster.link(
            LinkRequest(text=corpus[0], request_id="dead", timeout_seconds=0.0)
        )
        assert response.error is None
        assert response.degraded


class TestDispatchAndMetrics:
    def test_cluster_block_and_folded_counters(self, cluster, corpus):
        for i, text in enumerate(corpus[:4]):
            response = cluster.link(
                LinkRequest(text=text, request_id=f"doc-{i}")
            )
            assert response.error is None
        payload = cluster.snapshot()
        block = payload["cluster"]
        assert block["workers"] == 2
        assert block["alive"] == 2
        assert block["deaths"] == 0
        assert {w["id"] for w in block["per_worker"]} == {"w0", "w1"}
        dispatched = sum(w["dispatched"] for w in block["per_worker"])
        assert dispatched >= 4
        dispatch = block["dispatch"]
        assert (
            dispatch["least_loaded"] + dispatch["hash_fallback"] >= 4
        )
        counters = payload["counters"]
        # Per-worker engine counters folded in under the worker prefix.
        folded = sum(
            counters.get(f"cluster.worker.w{i}.requests.total", 0)
            for i in range(2)
        )
        assert folded >= 4
        assert payload["gauges"]["cluster.workers"] == 2

    def test_hash_ring_is_deterministic(self):
        ring = _HashRing(points=32)
        for worker_id in ("w0", "w1", "w2"):
            ring.add(worker_id)
        picks = {ring.pick("doc-42", ("w0", "w1", "w2")) for _ in range(10)}
        assert len(picks) == 1
        assert ring.pick("doc-42", ("w1",)) == "w1"
        assert ring.pick("doc-42", ()) is None


class TestWorkerDeath:
    def test_kill_fails_inflight_with_503_and_respawns(self, snapshot_store):
        """A killed worker's in-flight requests resolve with the clean
        `unavailable` envelope (no hung futures), and a replacement
        respawns from the same snapshot."""
        root, _warm = snapshot_store
        service = create_cluster_service(
            processes=2, snapshot_path=root, seed=SEED, scales=(SCALE,)
        )
        try:
            victim = service.registry.get("w0")
            old_pid = victim.pid
            # Park the (serial) worker loop so the next dispatch is
            # deterministically in flight when the process dies.
            parked = victim.call("sleep", 30.0)
            pending = victim.dispatch(
                LinkRequest(text="doomed document", request_id="doomed"), None
            )
            victim.kill()
            with pytest.raises(WorkerDiedError):
                pending.result(timeout=30)
            with pytest.raises(WorkerDiedError):
                parked.result(timeout=30)

            # The service-level path wraps the same failure as a 503.
            assert _wait_until(
                lambda: (
                    service.registry.get("w0") is not victim
                    and service.registry.get("w0").alive
                )
            ), "worker w0 was never respawned"
            replacement = service.registry.get("w0")
            assert replacement.pid != old_pid
            assert service.registry.deaths == 1
            assert service.registry.respawns == 1

            # The cluster keeps serving through (and after) the respawn.
            response = service.link(
                LinkRequest(text="still serving", request_id="after")
            )
            assert response.error is None
        finally:
            service.close()

    def test_all_workers_dead_yields_unavailable(self, snapshot_store):
        """respawn=False + dead fleet: requests get the 503 envelope."""
        root, _warm = snapshot_store
        service = create_cluster_service(
            processes=1,
            snapshot_path=root,
            seed=SEED,
            scales=(SCALE,),
            cluster_config=ClusterConfig(processes=1, respawn=False),
        )
        try:
            handle = service.registry.get("w0")
            handle.kill()
            assert _wait_until(lambda: not handle.alive)
            response = service.link(
                LinkRequest(text="nobody home", request_id="orphan")
            )
            assert response.error is not None
            assert response.error.code == "unavailable"
            counters = service.snapshot()["counters"]
            assert counters.get("cluster.no_worker", 0) >= 1
        finally:
            service.close()


class TestDrain:
    def test_close_resolves_every_inflight_future(self, snapshot_store, corpus):
        """Graceful drain: close() while requests are in flight resolves
        every future with a real response, the clean 503 envelope, or
        (still queued at close) the typed shutdown rejection — never a
        hang."""
        root, _warm = snapshot_store
        service = create_cluster_service(
            processes=2, snapshot_path=root, seed=SEED, scales=(SCALE,)
        )
        futures = []
        try:
            for i in range(8):
                futures.append(
                    service.admit(
                        LinkRequest(
                            text=corpus[i % len(corpus)],
                            request_id=f"drain-{i}",
                        )
                    )
                )
        finally:
            closer = threading.Thread(target=service.close)
            closer.start()
            closer.join(timeout=120)
            assert not closer.is_alive(), "cluster close() hung"
        for future in futures:
            assert future.done(), "a future was left pending across close()"
            try:
                response = future.result(timeout=0)
            except ServiceClosedError:
                continue
            assert response.error is None or response.error.code == (
                "unavailable"
            )

    def test_link_after_close_is_clean_503(self, snapshot_store):
        root, _warm = snapshot_store
        service = create_cluster_service(
            processes=1, snapshot_path=root, seed=SEED, scales=(SCALE,)
        )
        service.close()
        response = service.link(LinkRequest(text="late", request_id="late"))
        assert response.error is not None
        assert response.error.code == "unavailable"
