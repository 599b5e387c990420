"""Self-optimization: configurable data-removal strategies (paper §V).

"the clients can benefit from configurable data removal strategies,
allowing the system to automatically delete data that is seldom
accessed or is temporary generated by the applications."

Strategies are composable predicates over the chunk directory:

- :class:`TTLRemoval` — data older than a time-to-live;
- :class:`ColdDataRemoval` — data not accessed for an idle window;
- :class:`LRURemoval` — evict least-recently-used until the pool is
  under a storage budget;
- :class:`OrphanRemoval` — chunks whose write never published a version
  (aborted/blocked writers leave these behind).

The :class:`RemovalManager` applies them periodically and accounts the
reclaimed space.  Removal only ever touches chunks that are *not* part
of the latest published version unless the strategy explicitly opts in
(``protect_latest=False``) — deleting live data is an administrator
decision, not a default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple

from ..blobseer.blob import ChunkDescriptor
from ..blobseer.deployment import BlobSeerDeployment
from .controller import AdaptationDecision, ControlLoop

__all__ = [
    "RemovalStrategy",
    "TTLRemoval",
    "ColdDataRemoval",
    "LRURemoval",
    "OrphanRemoval",
    "RemovalManager",
]


class RemovalStrategy(Protocol):
    """Selects chunks to delete from the directory snapshot."""

    name: str

    def select(
        self, chunks: Dict[str, ChunkDescriptor], now: float
    ) -> List[str]:  # pragma: no cover - protocol
        ...


class TTLRemoval:
    """Delete chunks older than ``ttl_s`` (temporary data expiry)."""

    def __init__(self, ttl_s: float) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.ttl_s = ttl_s
        self.name = f"ttl({ttl_s:g}s)"

    def select(self, chunks: Dict[str, ChunkDescriptor], now: float) -> List[str]:
        return [
            key for key, descriptor in chunks.items()
            if descriptor.created_at > 0 and now - descriptor.created_at > self.ttl_s
        ]


class ColdDataRemoval:
    """Delete chunks not accessed for ``idle_s`` (seldom-accessed data)."""

    def __init__(self, idle_s: float) -> None:
        if idle_s <= 0:
            raise ValueError("idle_s must be positive")
        self.idle_s = idle_s
        self.name = f"cold({idle_s:g}s)"

    def select(self, chunks: Dict[str, ChunkDescriptor], now: float) -> List[str]:
        return [
            key for key, descriptor in chunks.items()
            if now - descriptor.last_access > self.idle_s
        ]


class LRURemoval:
    """Evict least-recently-used chunks while the pool exceeds a budget."""

    def __init__(self, budget_mb: float) -> None:
        if budget_mb <= 0:
            raise ValueError("budget_mb must be positive")
        self.budget_mb = budget_mb
        self.name = f"lru({budget_mb:g}MB)"

    def select(self, chunks: Dict[str, ChunkDescriptor], now: float) -> List[str]:
        total = sum(d.size_mb for d in chunks.values())
        if total <= self.budget_mb:
            return []
        excess = total - self.budget_mb
        ranked = sorted(chunks.items(), key=lambda kv: kv[1].last_access)
        victims: List[str] = []
        freed = 0.0
        for key, descriptor in ranked:
            if freed >= excess:
                break
            victims.append(key)
            freed += descriptor.size_mb
        return victims


class OrphanRemoval:
    """Delete chunks whose write never reached metadata publication.

    A writer blocked or crashed after pushing data but before publishing
    leaves chunks with ``version == -1`` — garbage no version references.
    A grace period avoids collecting in-flight writes.
    """

    def __init__(self, grace_s: float = 60.0) -> None:
        self.grace_s = grace_s
        self.name = f"orphan({grace_s:g}s)"

    def select(self, chunks: Dict[str, ChunkDescriptor], now: float) -> List[str]:
        return [
            key for key, descriptor in chunks.items()
            if descriptor.version < 0
            and descriptor.created_at > 0
            and now - descriptor.created_at > self.grace_s
        ]


class RemovalManager(ControlLoop):
    """Periodically applies removal strategies to the provider pool."""

    name = "removal"

    def __init__(
        self,
        deployment: BlobSeerDeployment,
        strategies: Iterable[RemovalStrategy],
        interval_s: float = 10.0,
        protect_latest: bool = True,
    ) -> None:
        super().__init__(interval_s=interval_s)
        self.deployment = deployment
        self.strategies = list(strategies)
        self.protect_latest = protect_latest
        self.reclaimed_mb = 0.0
        self.removed_chunks = 0

    def _protected_keys(self) -> Set[str]:
        """Chunks referenced by the latest published version of any blob.

        Resolved through the version managers' blob registry: a chunk
        whose version is the blob's current latest must not be deleted by
        background policies.
        """
        protected: Set[str] = set()
        if not self.protect_latest:
            return protected
        # Union over shards: each blob lives on exactly one shard, so the
        # per-shard registries are disjoint (single shard = the original).
        latest: Dict[int, int] = {
            blob_id: info.latest
            for vm in self.deployment.authority_vms()
            for blob_id, info in vm.blobs.items()
        }
        for provider in self.deployment.active_pmanager().providers.values():
            for key, descriptor in provider.chunks.items():
                current = latest.get(descriptor.blob_id, 0)
                if 0 <= descriptor.version and descriptor.version >= current:
                    protected.add(key)
        return protected

    def step(self, now: float) -> List[AdaptationDecision]:
        # Directory snapshot across the pool.
        holders = self.deployment.active_pmanager().chunk_holders()
        directory: Dict[str, ChunkDescriptor] = {
            key: held[0].chunks[key] for key, held in holders.items()}

        protected = self._protected_keys()
        # Provenance: the directory snapshot this sweep selected from.
        self.note(chunks=len(directory), protected=len(protected),
                  pool_mb=round(sum(d.size_mb for d in directory.values()), 3))
        decisions: List[AdaptationDecision] = []
        for strategy in self.strategies:
            victims = [k for k in strategy.select(directory, now) if k not in protected]
            freed = 0.0
            removed = 0
            for key in victims:
                descriptor = directory.get(key)
                if descriptor is None:
                    continue
                for provider in holders.get(key, []):
                    if provider.delete_chunk(key):
                        freed += descriptor.size_mb
                        removed += 1
                directory.pop(key, None)
            if removed:
                self.reclaimed_mb += freed
                self.removed_chunks += removed
                decisions.append(AdaptationDecision(
                    now, self.name, "remove",
                    {"strategy": strategy.name, "chunks": removed,
                     "freed_mb": round(freed, 1)},
                ))
        return decisions
