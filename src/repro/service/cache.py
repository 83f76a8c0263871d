"""Cross-request caches of the serving layer.

One :class:`LinkerCaches` bundle holds the bounded LRU caches a warm
service keeps between requests:

* **candidates** — memoises :class:`repro.core.candidates.CandidateGenerator`
  lookups per normalised phrase (+ type filter / surface variants), so a
  mention repeated across documents is resolved against the alias index
  once;
* the **alias fuzzy memo** lives inside :class:`repro.kb.alias_index.AliasIndex`
  itself (it is useful to batch evaluation too); its stats are surfaced
  here alongside the rest.

All hooks are injectable and optional: with caching disabled the wired
objects behave byte-identically to the unhooked pipeline, which the
parity tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.caching import LRUCache, make_cache
from repro.core.linker import TenetLinker


@dataclass(frozen=True)
class LinkerCacheConfig:
    """Size of the cross-request candidate cache (0 or ``enabled=False``
    disables it)."""

    enabled: bool = True
    candidate_cache_size: int = 8192

    def __post_init__(self) -> None:
        if self.candidate_cache_size < 0:
            raise ValueError("candidate_cache_size must be >= 0")


class LinkerCaches:
    """The live cache bundle built from a :class:`LinkerCacheConfig`."""

    def __init__(self, config: LinkerCacheConfig = LinkerCacheConfig()) -> None:
        self.config = config
        self.candidates: Optional[LRUCache] = None
        if config.enabled:
            self.candidates = make_cache(config.candidate_cache_size)

    @classmethod
    def disabled(cls) -> "LinkerCaches":
        return cls(LinkerCacheConfig(enabled=False))

    @property
    def enabled(self) -> bool:
        return self.candidates is not None

    def clear(self) -> None:
        if self.candidates is not None:
            self.candidates.clear()

    def snapshot(self, linker: Optional[TenetLinker] = None) -> Dict[str, Any]:
        """JSON-compatible stats of every cache (all-zero when disabled).

        Passing the wired *linker* additionally reports the alias
        index's fuzzy-lookup memo, giving ``/metrics`` one block with
        every cache the process holds.
        """
        payload: Dict[str, Any] = {"enabled": self.enabled}
        payload["candidates"] = (
            self.candidates.snapshot() if self.candidates is not None else None
        )
        if linker is not None:
            payload["alias_fuzzy"] = linker.context.alias_index.fuzzy_cache_stats()
            # Coherence similarities come from one batched block over
            # each document's distinct concepts; its call/pair counters
            # sit next to the cache stats.
            payload["similarity_batch"] = linker.similarity.batch_stats()
        return payload


def attach_caches(linker: TenetLinker, caches: LinkerCaches) -> TenetLinker:
    """Wire a cache bundle into an already-built linker, in place.

    The candidate memo is installed on the generator's injectable hook.
    Returns the linker for chaining.
    """
    linker.generator.cache = caches.candidates
    return linker
