"""Byte-budgeted cache with pluggable eviction and admission.

The versioning model makes caching trivially coherent: chunk payloads,
metadata-tree nodes and published object versions are all immutable, so
a cached entry can never be stale — the only cache-management problems
left are *capacity* (solved by the eviction policy) and *reachability*
(solved by explicit invalidation when a key is republished at a new
version, the Cumulus gateway case).

Every :class:`Cache` keeps its statistics once, in its
:class:`CacheStats` (plus ``bytes_used`` / ``capacity_mb``).  The
:class:`~repro.adaptation.CacheTuner` reads them from there and
publishes the windowed ``cache.<name>.*`` series the introspection
layer watches; a cache itself records nothing in the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from .policy import CachePolicy, make_policy

__all__ = ["CacheStats", "SizeAdmission", "Cache"]

#: Internal sentinel distinguishing "miss" from a cached ``None`` value.
_MISS = object()


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


class SizeAdmission:
    """Admission control: refuse entries too large for the cache.

    An entry bigger than ``max_fraction`` of capacity would flush a
    disproportionate share of the working set for a single key, so it is
    served uncached instead.
    """

    def __init__(self, max_fraction: float = 0.5) -> None:
        if not 0.0 < max_fraction <= 1.0:
            raise ValueError("max_fraction must be in (0, 1]")
        self.max_fraction = max_fraction

    def __call__(self, key: Hashable, size_mb: float, capacity_mb: float) -> bool:
        return size_mb <= self.max_fraction * capacity_mb


class Cache:
    """One named cache tier: byte capacity + eviction policy + stats.

    Parameters
    ----------
    name:
        Identity in reports and in the tuner's ``cache.<name>.*`` series.
    capacity_mb:
        Byte budget.  :meth:`resize` (the cache tuner's lever) evicts
        down when shrunk.
    policy:
        A :class:`CachePolicy` instance or one of ``"lru"`` / ``"arc"``
        / ``"random"``.
    admission:
        ``admit(key, size_mb, capacity_mb) -> bool``; default
        :class:`SizeAdmission`.
    """

    def __init__(
        self,
        name: str,
        capacity_mb: float,
        policy: "CachePolicy | str" = "lru",
        admission: Optional[Callable[[Hashable, float, float], bool]] = None,
    ) -> None:
        if capacity_mb <= 0:
            raise ValueError("capacity_mb must be positive")
        self.name = name
        self.capacity_mb = float(capacity_mb)
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.admission = admission or SizeAdmission()
        self.stats = CacheStats()
        self._entries: Dict[Hashable, Tuple[Any, float]] = {}
        self.bytes_used = 0.0

    # -- lookups ---------------------------------------------------------------
    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)`` — unambiguous even for cached falsy values."""
        entry = self._entries.get(key, _MISS)
        if entry is _MISS:
            self.stats.misses += 1
            return False, None
        self.policy.on_access(key)
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
            self.policy.on_access(key)
            self._evict_to_fit(0.0)
            return True
        if size_mb > self.capacity_mb or not self.admission(
            key, size_mb, self.capacity_mb
        ):
            self.stats.rejected += 1
            return False
        self._evict_to_fit(size_mb)
        self._entries[key] = (value, size_mb)
        self.bytes_used += size_mb
        self.policy.on_insert(key)
        self.stats.insertions += 1
        self.stats.miss_bytes_mb += size_mb
        return True

    def _evict_to_fit(self, incoming_mb: float) -> None:
        while self.bytes_used + incoming_mb > self.capacity_mb and self._entries:
            victim = self.policy.victim()
            if victim is None or victim not in self._entries:
                if victim is None:
                    break
                continue  # policy ghost of an already-invalidated key
            _value, size = self._entries.pop(victim)
            self.bytes_used -= size
            self.stats.evictions += 1

    # -- invalidation ------------------------------------------------------------
    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry (republished key, crashed node, ...)."""
        entry = self._entries.pop(key, _MISS)
        if entry is _MISS:
            return False
        self.bytes_used -= entry[1]
        self.policy.forget(key)
        self.stats.invalidations += 1
        return True

    def clear(self) -> int:
        """Drop everything (e.g. node crash wipes the memory tier)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.bytes_used = 0.0
        self.policy.clear()
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
            policy=getattr(self.policy, "name", "?"),
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
