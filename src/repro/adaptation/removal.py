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
of the latest published version: whatever a strategy selects, the chunks
that version's tree points at (and those of writes still in flight)
stay — deleting live data is an administrator decision, not a
background policy's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Protocol, Set, Tuple

from ..decision.actions import Action
from .controller import ControlLoop

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.blob import ChunkDescriptor
    from ..blobseer.deployment import BlobSeerDeployment

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
    #: Seconds between two sweeps of the chunk directory.
    SWEEP_INTERVAL_S = 10.0

    def __init__(
        self,
        deployment: BlobSeerDeployment,
        strategies: Iterable[RemovalStrategy],
    ) -> None:
        super().__init__(interval_s=self.SWEEP_INTERVAL_S)
        self.deployment = deployment
        self.strategies = list(strategies)
        self.reclaimed_mb = 0.0
        self.removed_chunks = 0

    def _protected_keys(self) -> Set[str]:
        """Chunks the latest published version of any blob references,
        plus those of writes ticketed but not yet published.

        A copy-on-write tree shares every chunk its version did not
        overwrite, so the latest version points, per chunk index, at the
        newest chunk written at or before it — not only at the chunks
        written *at* it.  Resolved through the version managers' blob
        registry.
        """
        # Union over shards: each blob lives on exactly one shard, so the
        # per-shard registries are disjoint (single shard = the original).
        latest: Dict[int, int] = {
            blob_id: info.latest
            for vm in self.deployment.authority_vms()
            for blob_id, info in vm.blobs.items()
        }
        protected: Set[str] = set()
        #: (blob, chunk index) -> (version, key) of the newest chunk
        #: written at or before the blob's latest version.
        referenced: Dict[Tuple[int, int], Tuple[int, str]] = {}
        for provider in self.deployment.active_pmanager().providers.values():
            for key, descriptor in provider.chunks.items():
                if descriptor.version < 0:
                    continue
                current = latest.get(descriptor.blob_id, 0)
                if descriptor.version >= current:
                    protected.add(key)
                if descriptor.version <= current:
                    slot = (descriptor.blob_id, descriptor.chunk_index)
                    held = referenced.get(slot)
                    if held is None or held[0] < descriptor.version:
                        referenced[slot] = (descriptor.version, key)
        protected.update(key for _version, key in referenced.values())
        return protected

    def plan(self, now: float) -> Iterable[Action]:
        """Yield one ``remove`` action per strategy that selects anything.

        Each action is applied before the next strategy selects, so no
        chunk is selected twice in one sweep.
        """
        # Directory snapshot across the pool.
        holders = self.deployment.active_pmanager().chunk_holders()
        directory: Dict[str, ChunkDescriptor] = {
            key: held[0].chunks[key] for key, held in holders.items()}

        protected = self._protected_keys()
        # Provenance: the directory snapshot this sweep selected from.
        self.note(chunks=len(directory), protected=len(protected),
                  pool_mb=round(sum(d.size_mb for d in directory.values()), 3))
        for strategy in self.strategies:
            victims = [k for k in strategy.select(directory, now) if k not in protected]
            freed = 0.0
            removed = 0
            doomed: List[str] = []
            for key in victims:
                descriptor = directory.pop(key, None)
                if descriptor is None:
                    continue
                doomed.append(key)
                for _provider in holders[key]:
                    freed += descriptor.size_mb
                    removed += 1
            if not removed:
                continue

            def remove(doomed=doomed, freed=freed, removed=removed) -> None:
                for key in doomed:
                    for provider in holders[key]:
                        provider.delete_chunk(key)
                self.reclaimed_mb += freed
                self.removed_chunks += removed

            yield Action(
                "remove", self.name,
                detail={"strategy": strategy.name, "chunks": removed,
                        "freed_mb": round(freed, 1)},
                apply=remove,
            )
