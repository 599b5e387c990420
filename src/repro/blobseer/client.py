"""The BlobSeer client: the public face of the storage substrate.

"The BlobSeer client ... implements client-side operations for each type
of interaction: create BLOBs, read a range of chunks from a BLOB, write
or append data to a BLOB." (paper §III-A)

All operations are generators meant to run inside a simulation process;
an actor that waits for each operation drives it inline:

    client = deployment.new_client("client-1")
    def workload(env):
        blob_id = yield from client.create_blob(chunk_size_mb=64)
        result = yield from client.append(blob_id, size_mb=1024)
    env.process(workload(env))

``yield from`` costs no kernel event.  Give an operation a process of its
own, ``env.process(client.read(...))``, only when the caller does not wait
in line for it: several in flight at once (``env.all_of``), fire-and-forget.

Every operation consults the pluggable :class:`AccessController`
(self-protection hook) and emits instrumentation events (introspection
hook).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .access import AccessController, AllowAll
from .blob import ChunkDescriptor, chunk_span
from .errors import (
    AccessDenied,
    ChunkLost,
    NoProvidersAvailable,
    RangeError,
)
from .instrument import (
    EV_OP_END,
    EV_OP_START,
    EventSink,
    MonitoringEvent,
    NullSink,
)
from .metadata import MetadataProvider, MetadataStore
from .provider import DataProvider
from .provider_manager import ProviderManager
from .rpc import OP_ERRORS
from .segment_tree import capacity_for, tree_query, tree_update
from .version_manager import Ticket, VersionManager

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import PhysicalNode

__all__ = ["OpResult", "BlobSeerClient"]


@dataclass
class OpResult:
    """Timing record returned by every client operation."""

    op: str  # "write" | "append" | "read" | "create"
    client_id: str
    blob_id: Optional[int]
    size_mb: float
    started_at: float
    finished_at: float
    ok: bool = True
    error: Optional[str] = None
    version: Optional[int] = None

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput_mbps(self) -> float:
        """Application-level throughput of this operation, MB/s."""
        duration_s = self.finished_at - self.started_at
        return self.size_mb / duration_s if duration_s > 0 else 0.0


class BlobSeerClient:
    """Client-side operations against one BlobSeer deployment."""

    def __init__(
        self,
        node: PhysicalNode,
        client_id: str,
        pmanager: ProviderManager,
        vmanager: VersionManager,
        metadata_providers: List[MetadataProvider],
        sink: Optional[EventSink] = None,
        access: Optional[AccessController] = None,
        replication: int = 1,
        rng: Optional[np.random.Generator] = None,
        rpc_timeout_s: Optional[float] = None,
        rpc_retry=None,
        chunk_cache=None,
        metadata_cache=None,
        pipeline_publish: bool = False,
    ) -> None:
        self.node = node
        self.env = node.env
        self.client_id = client_id
        self.pm = pmanager
        self.vm = vmanager
        self.sink = sink or NullSink()
        self.access = access or AllowAll()
        self.replication = int(replication)
        self.rng = rng or np.random.default_rng(0)
        #: Per-attempt deadline and RetryPolicy applied to every control
        #: RPC (version-manager and provider-manager calls; the deadline
        #: also bounds each metadata get/put).  Both None by default: the
        #: original wait-forever behaviour, preserved exactly for seeded
        #: reproduction runs.
        self.rpc_timeout_s = rpc_timeout_s
        self.rpc_retry = rpc_retry
        #: Optional client-side chunk cache (:class:`repro.cache.Cache`).
        #: Chunk storage keys are immutable once written, so a hit serves
        #: the chunk from local memory — no replica pick, no provider
        #: disk, no network transfer, zero simulation time.  ``None``
        #: (the default) keeps the cache-less fast path byte-identical.
        self.chunk_cache = chunk_cache
        #: Publish pipelining (opt-in): request the metadata ticket
        #: concurrently with the chunk pushes instead of strictly after
        #: them, hiding the ticket round trip (and any per-blob lock
        #: queueing) behind the data transfer.  Safe because the ticket
        #: is independent of push completion — a failed write abandons
        #: it exactly as in the sequential path.  Default off: the
        #: sequential ordering is byte-identical to the seed.
        self.pipeline_publish = bool(pipeline_publish)
        self.meta = MetadataStore(
            node.network, node, metadata_providers, cache=metadata_cache,
            rpc_timeout_s=rpc_timeout_s,
        )
        self._wseq = itertools.count(1)
        #: Client-side cache of blob chunk sizes (filled on create/read).
        self._chunk_size: Dict[int, float] = {}
        #: op -> (registry, ops counter, duration histogram, throughput
        #: series), bound once.
        self._instruments: Dict[str, tuple] = {}
        self.history: List[OpResult] = []

    # -- public operations -------------------------------------------------------
    def create_blob(self, chunk_size_mb: float):
        """Generator: create an empty BLOB; returns its id."""
        self.access.authorize(self.client_id, "create")
        start = self.env.now
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin("client.create", track=self.node.name,
                                cat="client", client=self.client_id)
        try:
            blob_id = yield from self.vm.remote_create_blob(
                self.node, chunk_size_mb,
                timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
            )
        except BaseException as exc:
            if span is not None:
                span.fail(exc)
            raise
        if span is not None:
            span.finish(blob=blob_id)
        self._chunk_size[blob_id] = chunk_size_mb
        self._record("create", blob_id, 0.0, start, version=0)
        return blob_id

    def write(self, blob_id: int, offset_mb: float, size_mb: float):
        """Generator: overwrite ``[offset, offset+size)``; returns OpResult."""
        return (yield from self._write_op("write", blob_id, offset_mb, size_mb))

    def append(self, blob_id: int, size_mb: float):
        """Generator: append at the blob's tail; returns OpResult."""
        return (yield from self._write_op("append", blob_id, None, size_mb))

    def read(
        self,
        blob_id: int,
        offset_mb: float,
        size_mb: float,
        version: Optional[int] = None,
    ):
        """Generator: fetch ``[offset, offset+size)``; returns OpResult."""
        self.access.authorize(self.client_id, "read")
        start = self.env.now
        if self.sink.enabled:
            self._emit(EV_OP_START, blob_id, op="read", size_mb=size_mb)
        # One flag read per operation: with tracing off no span call is
        # made at all.
        tracer = self.env.tracer
        tracing = tracer.enabled
        root = phase = None
        if tracing:
            root = tracer.begin("client.read", track=self.node.name, cat="client",
                                client=self.client_id, blob=blob_id, size_mb=size_mb)
        try:
            if tracing:
                phase = tracer.begin("client.lookup", cat="client")
            # Resolved against the version that is read: the latest
            # published one, or the published one asked for.
            version, blob_size, chunk_size = yield from self.vm.remote_get_latest(
                self.node, blob_id, version,
                timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
            )
            if tracing:
                phase.finish()
            self._chunk_size[blob_id] = chunk_size
            if version == 0:
                raise RangeError(f"blob {blob_id} has no published data")
            if offset_mb + size_mb > blob_size + 1e-9:
                raise RangeError(
                    f"read [{offset_mb},{offset_mb + size_mb}) beyond size {blob_size}"
                )
            first, last = chunk_span(offset_mb, size_mb, chunk_size)
            if tracing:
                phase = tracer.begin("client.metadata_read", cat="client",
                                     version=version, chunks=last - first)
            # A published version never changes, so what this range of it
            # resolved to is kept beside the tree nodes (the very dict,
            # holding the leaves' own descriptors) and the tree is walked
            # once per (version, range).
            resolved = ("r", blob_id, version, first, last)
            hit, descriptors = self.meta.peek(resolved)
            if not hit:
                descriptors = yield from tree_query(
                    self.meta, blob_id, version, first, last,
                    capacity=self._capacity(blob_size, chunk_size),
                )
                self.meta.hold(resolved, descriptors)
            if tracing:
                phase.finish()
            rate_cap = self.access.rate_cap(self.client_id)
            if tracing:
                phase = tracer.begin("client.fetch", cat="client")
            fetches = []
            fetched: List[ChunkDescriptor] = []
            cached_chunks = 0
            for index in range(first, last):
                descriptor = descriptors.get(index)
                if descriptor is None:
                    continue  # hole: reads as zeros, nothing to fetch
                if (
                    self.chunk_cache is not None
                    and self.chunk_cache.get(descriptor.storage_key) is not None
                ):
                    cached_chunks += 1
                    continue  # served from local memory: no transfer
                provider = self._pick_replica(descriptor)
                fetches.append(
                    provider.serve(self.node, descriptor, self.client_id,
                                   rate_cap, ctx=phase)
                )
                fetched.append(descriptor)
            if tracing:
                phase.annotate(chunks=len(fetches))
                if self.chunk_cache is not None:
                    phase.annotate(cached=cached_chunks)
            if fetches:
                yield self.env.all_of(fetches)
            if self.chunk_cache is not None:
                for descriptor in fetched:
                    self.chunk_cache.put(
                        descriptor.storage_key, descriptor, descriptor.size_mb
                    )
            if tracing:
                phase.finish()
            result = self._record("read", blob_id, size_mb, start, version=version)
            if tracing:
                root.finish(ok=True, version=version)
            return result
        except OP_ERRORS as exc:
            if phase is not None:
                phase.fail(exc)  # no-op between two phases
            self._record("read", blob_id, size_mb, start, ok=False, error=str(exc))
            if tracing:
                root.finish(ok=False, error=str(exc))
            raise
        finally:
            if tracing:
                root.finish()

    # -- write internals -----------------------------------------------------------
    def _write_op(self, op: str, blob_id: int, offset_mb: Optional[float], size_mb: float):
        self.access.authorize(self.client_id, op)
        start = self.env.now
        if self.sink.enabled:
            self._emit(EV_OP_START, blob_id, op=op, size_mb=size_mb)
        tracer = self.env.tracer
        tracing = tracer.enabled  # as in read(): off means no span call
        root = phase = None
        if tracing:
            root = tracer.begin(f"client.{op}", track=self.node.name, cat="client",
                                client=self.client_id, blob=blob_id, size_mb=size_mb)
        ticket: Optional[Ticket] = None
        ticket_proc = None
        in_critical = False
        try:
            chunk_size = self._chunk_size.get(blob_id)
            if chunk_size is None:
                if tracing:
                    phase = tracer.begin("client.lookup", cat="client")
                _v, _s, chunk_size = yield from self.vm.remote_get_latest(
                    self.node, blob_id,
                    timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
                )
                if tracing:
                    phase.finish()
                self._chunk_size[blob_id] = chunk_size

            count = size_mb / chunk_size
            if abs(count - round(count)) > 1e-9 or count <= 0:
                raise RangeError(
                    f"write size {size_mb}MB not a positive multiple of chunk "
                    f"size {chunk_size}MB"
                )
            count = int(round(count))
            if offset_mb is not None:
                chunk_span(offset_mb, size_mb, chunk_size)  # alignment check

            # 1. allocate providers — the whole write's placement in one
            #    batched RPC.
            if tracing:
                phase = tracer.begin("client.allocate", cat="client", chunks=count)
            placement = yield from self.pm.remote_allocate(
                self.node, count, self.replication, self.client_id,
                timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
            )
            if tracing:
                phase.finish()

            # Pipelined publish (opt-in): the ticket round trip — and any
            # per-blob lock queueing behind a concurrent writer — runs
            # concurrently with the chunk pushes below and is collected
            # once the data is safely stored.
            if self.pipeline_publish:
                ticket_proc = self.env.process(
                    self._ticket_rpc(blob_id, size_mb, offset_mb, ctx=root),
                    name=f"ticket-{self.client_id}",
                )

            # 2. push chunks to every replica in parallel; chunks whose
            #    push failed (e.g. the target provider crashed mid-write)
            #    are retried on freshly allocated providers.
            token = next(self._wseq)
            rate_cap = self.access.rate_cap(self.client_id)
            if tracing:
                phase = tracer.begin("client.chunk_transfer", cat="client",
                                     chunks=count)
            descriptors: List[ChunkDescriptor] = []
            failures: List[ChunkDescriptor] = []
            pushes = []
            for i, replicas in enumerate(placement):
                descriptor = ChunkDescriptor(
                    blob_id=blob_id,
                    storage_key=f"b{blob_id}.{self.client_id}.w{token}.c{i}",
                    size_mb=chunk_size,
                    replicas=[p.provider_id for p in replicas],
                )
                descriptors.append(descriptor)
                pushes.append(self.env.process(
                    self._push_chunk(descriptor, replicas, rate_cap, failures,
                                     ctx=phase),
                    name=f"push-{self.client_id}",
                ))
            yield self.env.all_of(pushes)
            for _attempt in range(2):
                if not failures:
                    break
                self.access.authorize(self.client_id, op)  # still welcome?
                if tracing:
                    phase.annotate(retried=len(failures))
                failures = yield from self._retry_pushes(
                    failures, rate_cap, ctx=phase
                )
            if failures:
                raise NoProvidersAvailable(
                    f"could not store {len(failures)} chunk(s) after retries"
                )
            if tracing:
                phase.finish()

            # 3. ticket (serializes metadata per blob) — already in
            #    flight when pipelining, issued now otherwise.
            if ticket_proc is not None:
                outcome = yield ticket_proc
                if isinstance(outcome, BaseException):
                    raise outcome
                ticket = outcome
            else:
                if tracing:
                    phase = tracer.begin("client.ticket", cat="client")
                ticket = yield from self.vm.remote_ticket(
                    self.node, blob_id, size_mb, self.client_id, offset_mb,
                    timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
                )
                if tracing:
                    phase.finish()
            in_critical = True

            # 4. metadata: copy-on-write segment tree nodes
            first_index = int(round(ticket.offset_mb / chunk_size))
            tree_descriptors: Dict[int, ChunkDescriptor] = {}
            for i, descriptor in enumerate(descriptors):
                descriptor.chunk_index = first_index + i
                descriptor.version = ticket.version
                tree_descriptors[first_index + i] = descriptor
            if tracing:
                phase = tracer.begin("client.metadata_write", cat="client",
                                     version=ticket.version)
            yield from tree_update(
                self.meta, blob_id, ticket.version, ticket.prev_version,
                tree_descriptors,
                capacity=self._capacity(ticket.new_size_mb, chunk_size),
                prev_capacity=self._capacity(ticket.prev_size_mb, chunk_size),
            )
            if tracing:
                phase.finish()

            # 5. publish
            if tracing:
                phase = tracer.begin("client.publish", cat="client")
            yield from self.vm.remote_complete(
                self.node, ticket,
                timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
            )
            if tracing:
                phase.finish()
            in_critical = False
            result = self._record(op, blob_id, size_mb, start, version=ticket.version)
            if tracing:
                root.finish(ok=True, version=ticket.version)
            return result
        except OP_ERRORS as exc:
            if phase is not None:
                phase.fail(exc)  # ended here, not after the collect below
            # Whatever a message died of (a metadata provider's node gone
            # from the network is a bare KeyError), the ticket is abandoned.
            if ticket is None and ticket_proc is not None:
                # The pushes failed with the pipelined ticket still in
                # flight: collect it so the version number is burned
                # (abandoned) rather than leaked as a wedged lock.
                outcome = yield ticket_proc
                if isinstance(outcome, Ticket):
                    ticket = outcome
                    in_critical = True
            if ticket is not None and in_critical:
                self.vm.abandon(ticket)
            self._record(op, blob_id, size_mb, start, ok=False, error=str(exc))
            if tracing:
                root.finish(ok=False, error=str(exc))
            raise
        finally:
            if tracing:
                root.finish()

    def _ticket_rpc(self, blob_id, size_mb, offset_mb, ctx=None):
        """Process body for the pipelined ticket RPC.

        Failures are *returned*, not raised: the process completes while
        the owning write may still be mid-push, and an unobserved failed
        process would crash the run.  The caller re-raises on collect."""
        span = None
        if ctx is not None:  # the caller's root span: tracing is on
            span = self.env.tracer.begin("client.ticket", cat="client", parent=ctx)
        try:
            return (yield from self.vm.remote_ticket(
                self.node, blob_id, size_mb, self.client_id, offset_mb,
                timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
            ))
        except OP_ERRORS as exc:
            if span is not None:
                span.fail(exc)
            return exc
        finally:
            if span is not None:
                span.finish()

    def _push_chunk(self, descriptor, replicas, rate_cap, failures, ctx=None):
        """Process: push one chunk to all its replicas; on any failure,
        queue the descriptor for the retry pass instead of raising.

        *ctx* is the enclosing ``client.chunk_transfer`` span — this runs
        as its own process, so the causal link travels explicitly and
        the provider-side ingest spans join the operation's trace."""
        pushes = [
            provider.ingest(self.node, descriptor, self.client_id, rate_cap, ctx=ctx)
            for provider in replicas
        ]
        try:
            yield self.env.all_of(pushes)
        except OP_ERRORS:
            failures.append(descriptor)

    def _retry_pushes(self, failed: List[ChunkDescriptor], rate_cap, ctx=None):
        """Generator: re-place failed chunks on live providers.

        Returns the descriptors that *still* failed.
        """
        still_failed: List[ChunkDescriptor] = []
        pushes = []
        for descriptor in failed:
            live = [
                pid for pid in descriptor.replicas
                if pid in self.pm.providers and self.pm.providers[pid].available
                and descriptor.storage_key in self.pm.providers[pid].chunks
            ]
            descriptor.replicas = live
            need = self.replication - len(live)
            if need <= 0:
                continue
            # Over-allocate so exclusions of already-holding providers
            # still leave enough fresh targets.
            placement = yield from self.pm.remote_allocate(
                self.node, 1, min(need + len(live), self.pm.pool_size()),
                self.client_id,
                timeout_s=self.rpc_timeout_s, retry=self.rpc_retry,
            )
            fresh = [p for p in placement[0] if p.provider_id not in live][:need]
            if len(fresh) < need:
                still_failed.append(descriptor)
                continue
            descriptor.replicas = live + [p.provider_id for p in fresh]
            pushes.append(self.env.process(
                self._push_chunk(descriptor, fresh, rate_cap, still_failed,
                                 ctx=ctx),
                name=f"repush-{self.client_id}",
            ))
        if pushes:
            yield self.env.all_of(pushes)
        return still_failed

    @staticmethod
    def _capacity(blob_size_mb: float, chunk_size_mb: float) -> int:
        """Leaves of the metadata tree of a version *blob_size_mb* long."""
        return capacity_for(int(round(blob_size_mb / chunk_size_mb)))

    def _pick_replica(self, descriptor: ChunkDescriptor) -> DataProvider:
        """Choose a live replica, uniformly at random (read balancing)."""
        candidates = []
        for provider_id in descriptor.replicas:
            provider = self.pm.providers.get(provider_id)
            if provider is not None and provider.node.alive:
                candidates.append(provider)
        if not candidates:
            raise ChunkLost(descriptor.storage_key)
        return candidates[int(self.rng.integers(0, len(candidates)))]

    # -- bookkeeping -----------------------------------------------------------------
    def _record(
        self,
        op: str,
        blob_id: Optional[int],
        size_mb: float,
        started_at: float,
        ok: bool = True,
        error: Optional[str] = None,
        version: Optional[int] = None,
    ) -> OpResult:
        result = OpResult(
            op=op,
            client_id=self.client_id,
            blob_id=blob_id,
            size_mb=size_mb,
            started_at=started_at,
            finished_at=self.env.now,
            ok=ok,
            error=error,
            version=version,
        )
        self.history.append(result)
        duration_s, throughput_mbps = result.duration_s, result.throughput_mbps
        metrics = self.env.metrics
        if metrics is not None:
            bound = self._instruments.get(op)
            if bound is None or bound[0] is not metrics:
                bound = self._instruments[op] = (
                    metrics, metrics.counter(f"client.{op}_ops"),
                    metrics.histogram(f"client.{op}_duration_s"),
                    metrics.series("client.throughput_mbps"))
            bound[1].inc()
            if not ok:
                metrics.counter(f"client.{op}_errors").inc()
            bound[2].observe(duration_s)
            if ok and size_mb > 0:
                bound[3].record(result.finished_at, throughput_mbps)
        if self.sink.enabled:
            self._emit(
                EV_OP_END, blob_id,
                op=op, size_mb=size_mb, ok=ok,
                duration_s=duration_s, throughput_mbps=throughput_mbps,
            )
        return result

    def _emit(self, event_type: str, blob_id: Optional[int], **fields) -> None:
        """Callers test ``self.sink.enabled`` first: an empty sink costs
        neither the record nor the keyword dict."""
        self.sink.emit(MonitoringEvent(
            time=self.env.now,
            actor_type="client",
            actor_id=self.client_id,
            event_type=event_type,
            client_id=self.client_id,
            blob_id=blob_id,
            fields=fields,
        ))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BlobSeerClient {self.client_id} on {self.node.name}>"
