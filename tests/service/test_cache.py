"""LRU primitive and cross-request cache wiring tests."""

import threading

import pytest

from repro.caching import LRUCache, make_cache
from repro.core.candidates import CandidateGenerator
from repro.core.linker import TenetLinker
from repro.service.cache import LinkerCacheConfig, LinkerCaches, attach_caches


class TestLRUCache:
    def test_get_put(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing", "default") == "default"

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        snapshot = cache.snapshot()
        assert snapshot["size"] == 1 and snapshot["maxsize"] == 2

    def test_get_or_compute(self):
        cache = LRUCache(2)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert value == "v" and len(calls) == 1
        value = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert value == "v" and len(calls) == 1

    def test_falsy_values_are_cached(self):
        cache = LRUCache(2)
        cache.put("zero", 0.0)
        calls = []
        assert cache.get_or_compute("zero", lambda: calls.append(1) or 1) == 0.0
        assert not calls

    def test_mapping_protocol(self):
        cache = LRUCache(2)
        cache["k"] = 5
        assert cache["k"] == 5
        assert len(cache) == 1
        with pytest.raises(KeyError):
            cache["missing"]

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_make_cache(self):
        assert make_cache(None) is None
        assert make_cache(0) is None
        assert isinstance(make_cache(3), LRUCache)

    def test_concurrent_access_is_consistent(self):
        cache = LRUCache(64)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    key = (base + i) % 32
                    value = cache.get_or_compute(key, lambda k=key: k * 2)
                    assert value == key * 2
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64

    def test_concurrent_snapshot_is_never_torn(self):
        # The snapshot must be one consistent state of the counters: its
        # hit_rate always recomputes from its own hits/misses, even while
        # workers are mutating the stats (the old implementation read the
        # stats outside the lock and could report a torn triple).
        cache = LRUCache(8)
        cache.put("hot", 1)
        stop = threading.Event()
        errors = []
        rounds = [0] * 4

        def churn(base):
            i = 0
            while not stop.is_set():
                cache.get("hot")
                cache.get(("miss", base, i))
                i += 1
            rounds[base] = i

        def observer():
            try:
                while not stop.is_set():
                    snap = cache.snapshot()
                    lookups = snap["hits"] + snap["misses"]
                    expected = (
                        round(snap["hits"] / lookups, 4) if lookups else 0.0
                    )
                    assert snap["hit_rate"] == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(n,)) for n in range(4)]
        threads += [threading.Thread(target=observer) for _ in range(2)]
        for t in threads:
            t.start()
        threading.Event().wait(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        # After the churn quiesces the counters balance exactly: every
        # round was one hit on "hot" plus one unique-key miss (plain
        # ``get`` never inserts, so "hot" is never evicted).
        final = cache.snapshot()
        assert final["hits"] == sum(rounds)
        assert final["misses"] == sum(rounds)


class TestCandidateGeneratorCache:
    def test_cached_matches_uncached(self, context, tenet):
        cached = CandidateGenerator(context.alias_index, cache=LRUCache(128))
        plain = CandidateGenerator(context.alias_index)
        extraction = tenet.pipeline.extract(
            "Brooklyn is twinned with Brooklyn. Brooklyn grew."
        )
        assert cached.generate(extraction).by_mention == plain.generate(
            extraction
        ).by_mention
        # The repeated mention is served from the memo.
        assert cached.cache.stats.hits > 0

    def test_cached_results_are_fresh_lists(self, context, tenet):
        generator = CandidateGenerator(context.alias_index, cache=LRUCache(16))
        span = tenet.pipeline.extract("Brooklyn grew.").noun_spans[0]
        first = generator.entity_candidates(span)
        first.append("mutated")
        assert "mutated" not in generator.entity_candidates(span)


class TestLinkerCaches:
    def test_disabled_bundle(self):
        caches = LinkerCaches.disabled()
        assert not caches.enabled
        snapshot = caches.snapshot()
        assert snapshot["candidates"] is None

    def test_attach_and_snapshot(self, context):
        caches = LinkerCaches(LinkerCacheConfig(candidate_cache_size=64))
        linker = attach_caches(TenetLinker(context), caches)
        linker.link("Brooklyn is twinned with Brooklyn.")
        snapshot = caches.snapshot(linker)
        assert snapshot["enabled"]
        assert snapshot["candidates"]["size"] > 0
        assert "alias_fuzzy" in snapshot

    def test_attached_linker_matches_plain(self, context):
        text = "Brooklyn is twinned with Brooklyn. Brooklyn grew."
        plain = TenetLinker(context).link(text)
        caches = LinkerCaches()
        cached_linker = attach_caches(TenetLinker(context), caches)
        # Twice: the second pass is served from warm caches.
        first = cached_linker.link(text)
        second = cached_linker.link(text)
        assert first.to_json(include_timings=False) == plain.to_json(
            include_timings=False
        )
        assert second.to_json(include_timings=False) == plain.to_json(
            include_timings=False
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinkerCacheConfig(candidate_cache_size=-1)
