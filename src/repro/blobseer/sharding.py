"""Hash-sharded version-manager routing.

BlobSeer's answer to the metadata bottleneck is decentralization
(arXiv:0905.1113): no single node may serialize every write.  This
module partitions the *version manager* — the one remaining per-write
serialization point — into N independent shards:

- **Id-space partitioning.**  Shard *i* of N mints blob ids in the
  residue class ``i + 1 (mod N)`` (``VersionManager(id_start=i + 1,
  id_stride=N)``), so the owning shard of any blob is a stateless pure
  function of its id: ``shard = (blob_id - 1) % N``.  No directory, no
  extra lookup RPC, nothing to keep consistent.
- **Per-blob total order.**  Every ticket, publish and abandon for a
  blob routes to that blob's one owning shard, which serializes them
  under the same per-blob lock as the unsharded manager.  One blob's
  version history is therefore exactly as ordered as before — sharding
  only removes serialization *between* blobs, which the protocol never
  promised anyway.
- **Create placement.**  New blobs round-robin across shards through a
  deployment-wide counter, so load spreads deterministically in event
  order (byte-identical reruns per seed).

:class:`ShardRouter` is the client-side view: it duck-types the
:class:`~repro.blobseer.version_manager.VersionManager` remote API that
:class:`~repro.blobseer.client.BlobSeerClient` and the Cumulus gateway
consume, over per-shard targets that are either raw managers or
failover-aware :class:`~repro.robustness.replication.PrimaryHandle`\\ s
(each shard may independently run ``vm_replicas=N`` quorum replication).
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["shard_of", "ShardRouter"]


def shard_of(blob_id: int, shards: int) -> int:
    """Owning shard of *blob_id* under residue-class id partitioning."""
    return (blob_id - 1) % shards


class ShardRouter:
    """Per-client router over the version-manager shards.

    *targets* holds one client-facing handle per shard — shard *i*'s raw
    :class:`VersionManager` when unreplicated, or its
    :class:`PrimaryHandle` when the shard runs quorum replication.
    *create_seq* is the deployment-shared round-robin counter for new
    blobs (shared so concurrent clients spread, not collide).
    """

    def __init__(self, targets: Sequence, create_seq) -> None:
        if not targets:
            raise ValueError("a shard router needs at least one shard")
        self.targets: List = list(targets)
        self.shards = len(self.targets)
        self._create_seq = create_seq

    # -- routing ------------------------------------------------------------
    def shard_for(self, blob_id: int):
        return self.targets[shard_of(blob_id, self.shards)]

    # -- duck-typed VersionManager remote API --------------------------------
    def remote_create_blob(self, caller, chunk_size_mb, timeout_s=None, retry=None):
        target = self.targets[next(self._create_seq) % self.shards]
        blob_id = yield from target.remote_create_blob(
            caller, chunk_size_mb, timeout_s=timeout_s, retry=retry
        )
        return blob_id

    def remote_ticket(
        self, caller, blob_id, size_mb, writer, offset_mb=None,
        timeout_s=None, retry=None,
    ):
        ticket = yield from self.shard_for(blob_id).remote_ticket(
            caller, blob_id, size_mb, writer, offset_mb,
            timeout_s=timeout_s, retry=retry,
        )
        return ticket

    def remote_complete(self, caller, ticket, timeout_s=None, retry=None):
        version = yield from self.shard_for(ticket.blob_id).remote_complete(
            caller, ticket, timeout_s=timeout_s, retry=retry
        )
        return version

    def remote_get_latest(
        self, caller, blob_id, version=None, timeout_s=None, retry=None,
    ):
        result = yield from self.shard_for(blob_id).remote_get_latest(
            caller, blob_id, version, timeout_s=timeout_s, retry=retry
        )
        return result

    def abandon(self, ticket) -> None:
        self.shard_for(ticket.blob_id).abandon(ticket)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ShardRouter shards={self.shards}>"
