"""Data providers: the chunk-storage actors of BlobSeer.

A data provider lives on a physical node, ingests chunks over the
network, serves reads, and accounts disk usage.  Every data-path action
is instrumented (:mod:`repro.blobseer.instrument`) so the monitoring
layer can observe storage levels and access patterns — the inputs of the
paper's introspection layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..cluster.node import NodeDownError, PhysicalNode
from ..simulation.resources import Resource
from .blob import ChunkDescriptor
from .errors import BlobSeerError
from .instrument import (
    EV_CHUNK_DELETE,
    EV_CHUNK_READ,
    EV_CHUNK_WRITE,
    EV_STORAGE_LEVEL,
    EventSink,
    MonitoringEvent,
    NullSink,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.events import Event
    from ..simulation.network import FlowNetwork

__all__ = ["DataProvider", "StorageFull", "ProviderUnavailable"]


class StorageFull(BlobSeerError):
    def __init__(self, provider_id: str, needed_mb: float, free_mb: float) -> None:
        super().__init__(
            f"provider {provider_id}: need {needed_mb}MB, only {free_mb}MB free"
        )


class ProviderUnavailable(BlobSeerError):
    def __init__(self, provider_id: str, why: str = "decommissioned") -> None:
        super().__init__(f"provider {provider_id} unavailable ({why})")
        self.provider_id = provider_id


class DataProvider:
    """One chunk-storage server."""

    #: Per-chunk CPU cost of ingesting (checksum + index insert).
    WRITE_CPU_S = 0.0002
    #: Local disk service: sequential commit at this rate plus a fixed
    #: per-request overhead.  This queue — not the NIC — is what a
    #: write-flood DoS saturates (§IV-C): attackers keep far more
    #: requests outstanding than correct clients, so FIFO disk queues
    #: fill with attack chunks and correct writes stall behind them.
    DISK_RATE_MBPS = 120.0
    DISK_OVERHEAD_S = 0.003

    def __init__(
        self,
        node: PhysicalNode,
        provider_id: str,
        sink: Optional[EventSink] = None,
        memory_cache=None,
    ) -> None:
        self.node = node
        self.env = node.env
        self.net: FlowNetwork = node.network
        self.provider_id = provider_id
        self.sink = sink or NullSink()
        #: Optional memory-over-disk tier (:class:`repro.cache.Cache`):
        #: chunks resident in RAM are served without queueing on the
        #: FIFO disk.  Volatile — wiped whenever the node crashes.
        #: ``None`` (default) keeps the disk-only path byte-identical.
        self.memory_cache = memory_cache
        self.disk_queue = Resource(node.env, capacity=1)
        self.chunks: Dict[str, ChunkDescriptor] = {}
        self.decommissioned = False
        #: When True (failure-detector deployments), a crash does NOT
        #: instantly scrub this provider from replica lists — the world
        #: only learns of the loss when the detector confirms it and
        #: calls :meth:`purge_after_crash`.  Default False keeps the
        #: original instant-knowledge behaviour.
        self.lazy_failure_cleanup = False
        # Counters for the introspection layer.
        self.chunks_written = 0
        self.chunks_read = 0
        self.bytes_written_mb = 0.0
        self.bytes_read_mb = 0.0
        node.on_fail(self._on_node_fail)
        node.on_recover(self._on_node_recover)

    # -- properties ------------------------------------------------------------
    @property
    def available(self) -> bool:
        return self.node.alive and not self.decommissioned

    @property
    def stored_mb(self) -> float:
        return sum(c.size_mb for c in self.chunks.values())

    @property
    def free_mb(self) -> float:
        return self.node.disk_free_mb

    def load_score(self) -> float:
        """Allocation-strategy load metric: live transfer rate + fill level."""
        return self.node.nic_utilization + self.node.disk_utilization

    # -- data path --------------------------------------------------------------
    def ingest(
        self,
        src: PhysicalNode,
        descriptor: ChunkDescriptor,
        client_id: Optional[str] = None,
        rate_cap: Optional[float] = None,
        ctx=None,
    ) -> Event:
        """Receive one chunk from *src*; the returned event completes when
        the chunk is durably stored.

        *ctx* is the caller's trace span: the ingest runs in its own
        simulation process (fresh span stack), so the causal link to the
        client operation must travel explicitly.
        """
        return self.env.process(
            self._ingest(src, descriptor, client_id, rate_cap, ctx),
            name=f"ingest-{self.provider_id}",
        )

    def _ingest(self, src, descriptor, client_id, rate_cap, ctx=None):
        if not self.node.alive:
            raise NodeDownError(self.node, "ingest")
        if self.decommissioned:
            raise ProviderUnavailable(self.provider_id)
        if self.free_mb < descriptor.size_mb:
            raise StorageFull(self.provider_id, descriptor.size_mb, self.free_mb)
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "provider.ingest", track=self.node.name, cat="provider",
                parent=ctx,
                chunk=descriptor.storage_key, size_mb=descriptor.size_mb,
                client=client_id,
            )
        try:
            yield self.net.transfer(
                src.name, self.node.name, descriptor.size_mb,
                rate_cap=rate_cap, tag=client_id,
            )
            if not self.node.alive or self.decommissioned:
                raise ProviderUnavailable(self.provider_id, "died during ingest")
            # Small CPU cost per chunk (checksumming, indexing).
            yield from self.node.compute(self.WRITE_CPU_S)
            # Durable commit: FIFO disk queue, bounded service rate.
            yield from self._disk_io(descriptor.size_mb)
            if not self.node.alive:
                raise NodeDownError(self.node, "ingest commit")
        except BaseException as exc:
            if span is not None:
                span.fail(exc)
            raise
        if span is not None:
            span.finish()
        self.node.disk.put(descriptor.size_mb)
        if self.memory_cache is not None:
            # Write-through: the chunk just streamed through RAM.
            self.memory_cache.put(
                descriptor.storage_key, descriptor, descriptor.size_mb
            )
        if descriptor.created_at == 0.0:
            descriptor.created_at = self.env.now
        descriptor.last_access = self.env.now
        self.chunks[descriptor.storage_key] = descriptor
        self.chunks_written += 1
        self.bytes_written_mb += descriptor.size_mb
        self._emit(EV_CHUNK_WRITE, client_id, descriptor.blob_id,
                   size_mb=descriptor.size_mb, chunk=descriptor.storage_key)
        self._emit(EV_STORAGE_LEVEL, None, None,
                   used_mb=self.node.disk_used_mb, free_mb=self.free_mb,
                   chunk_count=len(self.chunks))
        return descriptor

    def serve(
        self,
        dst: PhysicalNode,
        descriptor: ChunkDescriptor,
        client_id: Optional[str] = None,
        rate_cap: Optional[float] = None,
        ctx=None,
    ) -> Event:
        """Send one stored chunk to *dst*.  *ctx*: caller's trace span
        (the serve runs in its own process; see :meth:`ingest`)."""
        return self.env.process(
            self._serve(dst, descriptor, client_id, rate_cap, ctx),
            name=f"serve-{self.provider_id}",
        )

    def _serve(self, dst, descriptor, client_id, rate_cap, ctx=None):
        if not self.node.alive:
            raise NodeDownError(self.node, "serve")
        if descriptor.storage_key not in self.chunks:
            raise BlobSeerError(
                f"provider {self.provider_id} does not hold {descriptor.storage_key}"
            )
        memory_hit = (
            self.memory_cache is not None
            and self.memory_cache.get(descriptor.storage_key) is not None
        )
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "provider.serve", track=self.node.name, cat="provider",
                parent=ctx,
                chunk=descriptor.storage_key, size_mb=descriptor.size_mb,
                client=client_id,
            )
        try:
            if memory_hit:
                # RAM-resident: skip the FIFO disk queue entirely.
                if span is not None:
                    span.annotate(memory=True)
            else:
                # Fetch from disk (same FIFO service queue as writes).
                yield from self._disk_io(descriptor.size_mb)
                if self.memory_cache is not None:
                    self.memory_cache.put(
                        descriptor.storage_key, descriptor, descriptor.size_mb
                    )
            if not self.node.alive:
                raise NodeDownError(self.node, "serve read")
            yield self.net.transfer(
                self.node.name, dst.name, descriptor.size_mb,
                rate_cap=rate_cap, tag=client_id,
            )
        except BaseException as exc:
            if span is not None:
                span.fail(exc)
            raise
        if span is not None:
            span.finish()
        descriptor.last_access = self.env.now
        descriptor.read_count += 1
        self.chunks_read += 1
        self.bytes_read_mb += descriptor.size_mb
        self._emit(EV_CHUNK_READ, client_id, descriptor.blob_id,
                   size_mb=descriptor.size_mb, chunk=descriptor.storage_key)
        return descriptor

    def _disk_io(self, size_mb: float):
        """Generator: one FIFO disk request of *size_mb*."""
        request = self.disk_queue.request()
        if not request.processed:
            yield request
        try:
            yield self.env.timeout(size_mb / self.DISK_RATE_MBPS + self.DISK_OVERHEAD_S)
        finally:
            self.disk_queue.release(request)

    @property
    def disk_queue_length(self) -> int:
        """Requests waiting for the disk (introspection / elasticity input)."""
        return len(self.disk_queue.queue) + self.disk_queue.count

    def delete_chunk(self, storage_key: str) -> bool:
        """Drop one chunk replica and reclaim its disk space."""
        descriptor = self.chunks.pop(storage_key, None)
        if descriptor is None:
            return False
        if self.memory_cache is not None:
            self.memory_cache.invalidate(storage_key)
        if self.node.alive:
            self.node.disk.get(descriptor.size_mb)
        if self.provider_id in descriptor.replicas:
            descriptor.replicas.remove(self.provider_id)
        self._emit(EV_CHUNK_DELETE, None, descriptor.blob_id,
                   size_mb=descriptor.size_mb, chunk=storage_key)
        return True

    # -- lifecycle ----------------------------------------------------------------
    def decommission(self) -> None:
        """Stop accepting new chunks (elastic scale-down drains first)."""
        self.decommissioned = True

    def recommission(self) -> None:
        self.decommissioned = False

    def _on_node_fail(self, _node: PhysicalNode) -> None:
        if self.memory_cache is not None:
            # RAM is volatile: the memory tier dies with the node, even
            # when directory scrubbing is deferred to the detector.
            self.memory_cache.clear()
        if self.lazy_failure_cleanup:
            # Detector mode: the loss is not knowable yet.  Replica lists
            # keep pointing here until the failure detector confirms the
            # crash and triggers purge_after_crash().
            return
        self.purge_after_crash()

    def _on_node_recover(self, _node: PhysicalNode) -> None:
        # Cold restart loses local state; if the crash was never
        # confirmed (lazy mode), stale replica pointers remain — scrub
        # them now.  In default mode the crash already purged everything.
        if self.chunks:
            self.purge_after_crash()

    def purge_after_crash(self) -> None:
        """Drop all chunk state lost in a crash and unlink replica lists.

        Chunk replicas on this node are gone; replicas lists must no
        longer point here.  Called synchronously at crash time by
        default, or deferred to failure-detector confirmation when
        :attr:`lazy_failure_cleanup` is set.
        """
        for descriptor in self.chunks.values():
            if self.provider_id in descriptor.replicas:
                descriptor.replicas.remove(self.provider_id)
        self.chunks.clear()
        if self.memory_cache is not None:
            self.memory_cache.clear()

    def _emit(self, event_type: str, client_id, blob_id, **fields) -> None:
        if not self.sink.enabled:
            return
        self.sink.emit(MonitoringEvent(
            time=self.env.now,
            actor_type="provider",
            actor_id=self.provider_id,
            event_type=event_type,
            client_id=client_id,
            blob_id=blob_id,
            fields=fields,
        ))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DataProvider {self.provider_id} on {self.node.name} "
            f"chunks={len(self.chunks)} {'up' if self.available else 'down'}>"
        )
