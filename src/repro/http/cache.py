"""HTTP caching semantics: freshness, validation, byte-budgeted stores.

Shared by NoCDN peer proxies, the traditional-CDN baseline, and the
Internet@home cache. Entries carry expiry and validators; the store
answers the three questions a cache must: fresh hit? stale-but-
revalidatable? miss?
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.http.content import WebObject
from repro.metrics.counters import MetricsRegistry
from repro.util.lru import LruCache


class CacheDisposition(enum.Enum):
    FRESH = "fresh"          # serve from cache
    STALE = "stale"          # have a copy; must revalidate
    MISS = "miss"            # no copy


@dataclass
class CacheEntry:
    """A cached object with freshness metadata."""

    obj: WebObject
    stored_at: float
    ttl: float

    def is_fresh(self, now: float) -> bool:
        return now <= self.stored_at + self.ttl

    @property
    def etag(self) -> str:
        return self.obj.etag


class HttpCache:
    """Byte-budgeted object cache with TTL freshness and ETag validation."""

    def __init__(self, capacity_bytes: int, default_ttl: float = 300.0,
                 metrics: Optional[MetricsRegistry] = None,
                 on_evict: Optional[Callable[[str, CacheEntry], None]]
                 = None) -> None:
        if default_ttl <= 0:
            raise ValueError("default_ttl must be positive")
        self.default_ttl = default_ttl
        # ``on_evict`` fires for every removal — capacity eviction,
        # invalidation, and replace-in-place — so listeners (e.g. the
        # NoCDN content directory) see each key leave before any
        # re-insert is announced.
        self._store: LruCache[str, CacheEntry] = LruCache(capacity_bytes,
                                                          on_evict=on_evict)
        self.revalidations = 0
        self.refreshed_in_place = 0
        # Owners pass their registry so cache traffic shows up next to
        # the service's own counters; a standalone cache counts in a
        # private registry, born on its first lookup (or read), so a
        # cache nobody asks allocates none.
        self._metrics: Optional[MetricsRegistry] = None
        if metrics is not None:
            self._register_metrics(metrics)

    @property
    def metrics(self) -> MetricsRegistry:
        if self._metrics is None:
            self._register_metrics()
        return self._metrics

    def _register_metrics(self,
                          registry: Optional[MetricsRegistry] = None) -> None:
        if registry is None:
            registry = MetricsRegistry(namespace="http_cache")
        self._metrics = registry
        self._hits = registry.counter(
            "cache_hits", help="Lookups served fresh from cache")
        self._misses = registry.counter(
            "cache_misses", help="Lookups with no cached copy")
        self._stale = registry.counter(
            "cache_stale", help="Lookups needing revalidation")

    @property
    def stats(self):
        return self._store.stats

    @property
    def used_bytes(self) -> int:
        return self._store.used_bytes

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, name: str, now: float) -> tuple:
        """(disposition, entry-or-None)."""
        if self._metrics is None:
            self._register_metrics()
        entry = self._store.get(name)
        if entry is None:
            self._misses.inc()
            return (CacheDisposition.MISS, None)
        if entry.is_fresh(now):
            self._hits.inc()
            return (CacheDisposition.FRESH, entry)
        self._stale.inc()
        return (CacheDisposition.STALE, entry)

    def store(self, obj: WebObject, now: float,
              ttl: Optional[float] = None, key: Optional[str] = None) -> bool:
        """Insert/replace ``obj``; returns False if it cannot fit.

        ``key`` defaults to the object name; multi-site caches pass a
        namespaced key (e.g. ``"site|name"``).
        """
        entry = CacheEntry(obj=obj, stored_at=now,
                           ttl=ttl if ttl is not None else self.default_ttl)
        return self._store.put(key if key is not None else obj.name,
                               entry, obj.size)

    def revalidate(self, name: str, current: WebObject, now: float,
                   ttl: Optional[float] = None) -> bool:
        """Outcome of a conditional GET against the authoritative version.

        If our stale entry still matches ``current`` (304 path) the entry
        is refreshed in place and True is returned; otherwise the caller
        must fetch the new body (we store it) and False is returned.
        """
        self.revalidations += 1
        entry = self._store.peek(name)
        effective_ttl = ttl if ttl is not None else self.default_ttl
        if entry is not None and entry.obj.version == current.version:
            entry.stored_at = now
            entry.ttl = effective_ttl
            self.refreshed_in_place += 1
            return True
        self.store(current, now, ttl=effective_ttl, key=name)
        return False

    def invalidate(self, name: str) -> bool:
        return self._store.invalidate(name)

    def contains(self, name: str) -> bool:
        return self._store.peek(name) is not None
