"""Byte-budgeted LRU cache.

The versioning model makes caching trivially coherent: chunk payloads,
metadata-tree nodes and published object versions are all immutable, so
a cached entry can never be stale — the only cache-management problems
left are *capacity* (solved by least-recently-used eviction) and
*reachability* (solved by explicit invalidation, e.g. when a node crash
wipes a memory tier).

Every :class:`Cache` keeps its statistics once, in its
:class:`CacheStats` (plus ``bytes_used`` / ``capacity_mb``).  The
:class:`~repro.adaptation.CacheTuner` reads them from there and
publishes the windowed ``cache.<name>.*`` series the introspection
layer watches; a cache itself records nothing in the metrics registry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Tuple

__all__ = ["CacheStats", "Cache"]

#: Internal sentinel distinguishing "miss" from a cached ``None`` value.
_MISS = object()
#: Admission control: an entry bigger than this fraction of capacity
#: would flush a disproportionate share of the working set for a single
#: key, so it is served uncached instead.
MAX_ENTRY_FRACTION = 0.5


@dataclass
class CacheStats:
    """Cumulative per-cache accounting (monotonic except bytes)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    rejected: int = 0  # refused by admission control
    invalidations: int = 0
    hit_bytes_mb: float = 0.0
    miss_bytes_mb: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "insertions": self.insertions,
            "rejected": self.rejected,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "hit_bytes_mb": self.hit_bytes_mb,
            "miss_bytes_mb": self.miss_bytes_mb,
        }


class Cache:
    """One named cache tier: byte capacity + LRU eviction + stats.

    Parameters
    ----------
    name:
        Identity in reports and in the tuner's ``cache.<name>.*`` series.
    capacity_mb:
        Byte budget.  :meth:`resize` (the cache tuner's lever) evicts
        down when shrunk.
    """

    def __init__(self, name: str, capacity_mb: float) -> None:
        if capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        self.name = name
        self.capacity_mb = float(capacity_mb)
        self.stats = CacheStats()
        #: key -> (value, size_mb), least recently used first: a hit or
        #: a refresh moves its key to the end, eviction pops the front.
        self._entries: "OrderedDict[Hashable, Tuple[Any, float]]" = OrderedDict()
        self.bytes_used = 0.0

    # -- lookups ---------------------------------------------------------------
    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)`` — unambiguous even for cached falsy values."""
        entry = self._entries.get(key, _MISS)
        if entry is _MISS:
            self.stats.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.hit_bytes_mb += entry[1]
        return True, entry[0]

    def get(self, key: Hashable, default: Any = None) -> Any:
        hit, value = self.lookup(key)
        return value if hit else default

    def __contains__(self, key: Hashable) -> bool:
        """Presence probe; does NOT touch stats or recency."""
        return key in self._entries

    # -- insertion -------------------------------------------------------------
    def put(self, key: Hashable, value: Any, size_mb: float) -> bool:
        """Insert (or refresh) an entry; returns False if not admitted."""
        size_mb = float(size_mb)
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        old = self._entries.get(key, _MISS)
        if old is not _MISS:
            # Refresh in place (same immutable identity, maybe new size).
            self.bytes_used += size_mb - old[1]
            self._entries[key] = (value, size_mb)
            self._entries.move_to_end(key)
            self._evict_to_fit(0.0)
            return True
        if size_mb > MAX_ENTRY_FRACTION * self.capacity_mb:
            self.stats.rejected += 1
            return False
        self._evict_to_fit(size_mb)
        self._entries[key] = (value, size_mb)
        self.bytes_used += size_mb
        self.stats.insertions += 1
        self.stats.miss_bytes_mb += size_mb
        return True

    def _evict_to_fit(self, incoming_mb: float) -> None:
        while self.bytes_used + incoming_mb > self.capacity_mb and self._entries:
            _victim, (_value, size) = self._entries.popitem(last=False)
            self.bytes_used -= size
            self.stats.evictions += 1

    # -- invalidation ------------------------------------------------------------
    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry (republished key, crashed node, ...)."""
        entry = self._entries.pop(key, _MISS)
        if entry is _MISS:
            return False
        self.bytes_used -= entry[1]
        self.stats.invalidations += 1
        return True

    def clear(self) -> int:
        """Drop everything (e.g. node crash wipes the memory tier)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.bytes_used = 0.0
        self.stats.invalidations += dropped
        return dropped

    # -- capacity (the tuner's lever) ---------------------------------------------
    def resize(self, new_capacity_mb: float) -> None:
        if new_capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        self.capacity_mb = float(new_capacity_mb)
        self._evict_to_fit(0.0)

    # -- introspection -------------------------------------------------------------
    @property
    def utilization(self) -> float:
        return self.bytes_used / self.capacity_mb if self.capacity_mb else 0.0

    def to_dict(self) -> Dict[str, Any]:
        out = self.stats.to_dict()
        out.update(
            name=self.name,
            policy="lru",  # the one policy; a report field the goldens hash
            entries=len(self._entries),
            bytes_mb=self.bytes_used,
            capacity_mb=self.capacity_mb,
        )
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Cache {self.name} {self.bytes_used:.1f}/{self.capacity_mb:.1f}MB "
            f"entries={len(self._entries)} hit_rate={self.stats.hit_rate:.2f}>"
        )
