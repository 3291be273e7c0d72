"""Bounded caches for the engine layer.

Every cache in the engine used to be an unbounded dict: fine for one game,
a slow leak across a long sweep touching thousands of instances.  This
module provides the one primitive they all share now -- a small LRU cache
built directly on the insertion order of ``dict`` (a hit deletes and
re-inserts its key, eviction pops the oldest key).

The cache exposes hit/miss/eviction counters so tests and benchmarks can
assert reuse instead of guessing at it.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

#: Sentinel distinguishing "cached False" from "not cached".
MISSING = object()


class LRUCache:
    """A least-recently-used cache with hit/miss/eviction counters.

    Built on the insertion order of ``dict``: a hit moves its key to the
    back by deleting and re-inserting it; when full, the front (least
    recently used) key is evicted.  ``maxsize=None`` disables the bound
    (the counters keep working).
    """

    __slots__ = ("data", "maxsize", "hits", "misses", "evictions", "_metrics")

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive (or None for unbounded)")
        self.data: Dict[Hashable, Any] = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._metrics = None

    def bind_metrics(self, registry, name: str) -> "LRUCache":
        """Mirror this cache's counters into registry instruments.

        Creates ``<name>_hits_total`` / ``<name>_misses_total`` /
        ``<name>_evictions_total`` counters in *registry* (a
        :class:`repro.obs.metrics.MetricsRegistry`) and increments them
        alongside the plain-int counters, so the cache shows up on the
        ``/metrics`` exposition without changing ``info()`` consumers.
        Returns ``self`` for chaining.
        """
        self._metrics = (
            registry.counter(f"{name}_hits_total"),
            registry.counter(f"{name}_misses_total"),
            registry.counter(f"{name}_evictions_total"),
        )
        return self

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, refreshed to most-recently-used; *default* on miss."""
        data = self.data
        metrics = self._metrics
        value = data.get(key, MISSING)
        if value is MISSING:
            self.misses += 1
            if metrics is not None:
                metrics[1].inc()
            return default
        self.hits += 1
        if metrics is not None:
            metrics[0].inc()
        del data[key]
        data[key] = value
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the oldest when full."""
        data = self.data
        if key in data:
            del data[key]
        elif self.maxsize is not None and len(data) >= self.maxsize:
            del data[next(iter(data))]
            self.evictions += 1
            if self._metrics is not None:
                self._metrics[2].inc()
        data[key] = value

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        self.data.clear()

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.data

    def info(self) -> Dict[str, Optional[int]]:
        """Counters and occupancy, for tests, stats endpoints and reprs."""
        return {
            "size": len(self.data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self.data)}, maxsize={self.maxsize}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
