"""The version manager: BlobSeer's serialization point.

"The version manager deals with the serialization of the concurrent
requests and publishes a new BLOB version for each write operation."
(paper §III-A)

Write protocol implemented here (matching BlobSeer's):

1. the client pushes its chunks to data providers (heavy, fully parallel);
2. it then requests a **ticket**: the version manager assigns the next
   version number and — for appends — the write offset.  Tickets for the
   same blob are granted one at a time so that version *v*'s metadata is
   complete before *v+1*'s writer builds on it (per-blob metadata
   serialization; the data phase above is never serialized);
3. the client writes the copy-on-write segment-tree nodes;
4. it reports **complete**, the version manager publishes the version and
   grants the next ticket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..simulation.resources import Resource
from .blob import BlobInfo, VersionRecord
from .errors import (
    BlobNotFound,
    BlobSeerError,
    NotActivePrimary,
    RpcTimeout,
    TicketRevoked,
    VersionNotFound,
)
from .instrument import (
    EV_PUBLISH,
    EV_TICKET,
    EventSink,
    MonitoringEvent,
    NullSink,
)
from .rpc import RoundTrip, attempts

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import PhysicalNode

__all__ = ["Ticket", "VersionManager"]


@dataclass
class Ticket:
    """What a writer gets back from the ticket RPC."""

    blob_id: int
    version: int
    prev_version: Optional[int]  # None for the first write to the blob
    offset_mb: float
    #: Blob size as of *prev_version* and as of this version: the writer
    #: sizes both metadata trees from them.
    prev_size_mb: float
    new_size_mb: float

    def version_key(self) -> Tuple[int, int]:
        return (self.blob_id, self.version)


class VersionManager:
    """BLOB registry + version serialization service."""

    #: CPU time per RPC entry.  The version manager is BlobSeer's
    #: serialization service; a few ms per ticket/publish matches the
    #: original C++ service and makes it — realistically — the resource
    #: a metadata-flood DoS saturates (§IV-C).
    op_cpu_s = 0.003

    def __init__(
        self,
        node: PhysicalNode,
        sink: Optional[EventSink] = None,
        id_start: int = 1,
        id_stride: int = 1,
        actor_id: str = "vm",
    ) -> None:
        self.node = node
        self.env = node.env
        self.net = node.network
        self.sink = sink or NullSink()
        self.actor_id = actor_id
        self.blobs: Dict[int, BlobInfo] = {}
        #: Blob-id minting: shard *i* of an N-shard control plane mints
        #: ids in the residue class ``id_start (mod id_stride)``, so the
        #: owning shard of any blob is computable statelessly from its id
        #: ((blob_id - 1) % N) and id spaces never collide.  The defaults
        #: (1, 1) are the original single-manager sequence.
        self.id_start = id_start
        self.id_stride = id_stride
        #: Next blob id to mint (plain int so replicas can mirror it).
        self._next_blob_id = id_start
        #: Per-blob metadata critical section (ticket -> complete).
        self._locks: Dict[int, Resource] = {}
        self._held: Dict[int, object] = {}
        self.tickets_issued = 0
        self.versions_published = 0
        #: Replication hook (repro.robustness.replication.VMReplica).
        #: None = unreplicated single manager, the byte-identical default.
        self.replicator = None
        #: Standby replicas apply the log without emitting monitoring
        #: events or metrics (only the active primary is observable).
        self.passive = False
        #: Optional :class:`~repro.blobseer.rpc.GroupCommitGate`: when
        #: set, the per-RPC entry CPU goes through vectorized group
        #: commit instead of one full charge per request.  None (the
        #: default) keeps the original per-request charge bit-for-bit.
        self.batch_gate = None

    # -- blob registry (local forms) --------------------------------------------
    def create_blob(self, chunk_size_mb: float) -> int:
        if chunk_size_mb <= 0:
            raise ValueError("chunk_size_mb must be positive")
        blob_id = self._next_blob_id
        self.apply_create(blob_id, chunk_size_mb)
        return blob_id

    def apply_create(self, blob_id: int, chunk_size_mb: float) -> None:
        """Materialize blob *blob_id*; idempotent (log replay safe)."""
        if blob_id >= self._next_blob_id:
            self._next_blob_id = blob_id + self.id_stride
        if blob_id in self.blobs:
            return
        self.blobs[blob_id] = BlobInfo(blob_id=blob_id, chunk_size_mb=chunk_size_mb)
        self._locks[blob_id] = Resource(self.env, capacity=1)

    def blob_info(self, blob_id: int) -> BlobInfo:
        info = self.blobs.get(blob_id)
        if info is None:
            raise BlobNotFound(blob_id)
        return info

    def latest(self, blob_id: int) -> Tuple[int, float, float]:
        """(version, size_mb, chunk_size_mb) of the latest published version."""
        info = self.blob_info(blob_id)
        return info.latest, info.size_mb, info.chunk_size_mb

    def lookup(
        self, blob_id: int, version: Optional[int] = None
    ) -> Tuple[int, float, float]:
        """:meth:`latest`, or the same triple for published *version*."""
        if version is None:
            return self.latest(blob_id)
        record = self.version_record(blob_id, version)
        return version, record.size_mb, self.blobs[blob_id].chunk_size_mb

    def version_record(self, blob_id: int, version: int) -> VersionRecord:
        info = self.blob_info(blob_id)
        record = info.versions.get(version)
        if record is None or not record.published:
            raise VersionNotFound(blob_id, version)
        return record

    # -- ticketing ---------------------------------------------------------------
    def _peek_ticket(
        self,
        blob_id: int,
        size_mb: float,
        offset_mb: Optional[float],
    ) -> Tuple[int, Optional[int], float, float, float]:
        """Compute (version, prev, offset, prev_size, new_size) without
        mutating.

        ``prev`` is the latest *published* version, not ``version - 1``:
        abandoned tickets burn version numbers whose metadata tree was
        never written, and chaining the copy-on-write tree onto such a
        hole would silently drop every earlier chunk.  Tickets serialize
        per blob, so at issue time all prior versions are published or
        abandoned and ``info.latest`` is the correct parent — and
        ``info.size_mb`` its size.
        """
        info = self.blob_info(blob_id)
        version = info.next_version
        prev = info.latest if info.latest > 0 else None
        if offset_mb is None:  # append: tail of the blob as of the previous ticket
            offset_mb = info.size_mb
        new_size = max(info.size_mb, offset_mb + size_mb)
        return version, prev, offset_mb, info.size_mb, new_size

    def apply_ticket(
        self,
        blob_id: int,
        version: int,
        size_mb: float,
        writer: str,
        offset_mb: float,
        new_size_mb: float,
        time: Optional[float] = None,
    ) -> None:
        """Record a granted ticket; idempotent (log replay safe)."""
        info = self.blob_info(blob_id)
        if version >= info.next_version:
            info.next_version = version + 1
        if version in info.versions:
            return
        info.versions[version] = VersionRecord(
            blob_id=blob_id,
            version=version,
            size_mb=new_size_mb,
            writer=writer,
            ticket_time=self.env.now if time is None else time,
            written_range=(offset_mb, size_mb),
        )
        self.tickets_issued += 1
        if not self.passive:
            self._emit(EV_TICKET, client_id=writer, blob_id=blob_id,
                       version=version, size_mb=size_mb)

    def _issue_ticket(
        self,
        blob_id: int,
        size_mb: float,
        writer: str,
        offset_mb: Optional[float],
    ) -> Ticket:
        version, prev, offset_mb, prev_size, new_size = self._peek_ticket(
            blob_id, size_mb, offset_mb
        )
        self.apply_ticket(blob_id, version, size_mb, writer, offset_mb, new_size)
        return Ticket(
            blob_id=blob_id,
            version=version,
            prev_version=prev,
            offset_mb=offset_mb,
            prev_size_mb=prev_size,
            new_size_mb=new_size,
        )

    def _unpublished(self, blob_id: int, version: int) -> Optional[VersionRecord]:
        """The record of a ticket that is still to be published, or None
        when the version is already out.

        Publishing is idempotent: the server cannot tell a retry whose
        predecessor published but lost the reply (or a re-send after a
        failover) from a duplicate, and publishing twice changes
        nothing, so a re-sent complete just acks.  A burned ticket
        (writer gave up, or a failover revoked all in-flight tickets)
        must never be resurrected by a late complete: successor
        versions already chain past it.
        """
        record = self.blob_info(blob_id).versions.get(version)
        if record is None:
            raise VersionNotFound(blob_id, version)
        if record.abandoned:
            raise TicketRevoked(blob_id, version)
        return None if record.published else record

    def _publish(self, record: VersionRecord, time: Optional[float] = None) -> None:
        """Publish *record* (resolved by the caller: not yet published,
        not abandoned)."""
        info = self.blobs[record.blob_id]
        record.publish_time = self.env.now if time is None else time
        # Tickets are serialized per blob, so versions publish in order.
        info.latest = record.version
        info.size_mb = record.size_mb
        self.versions_published += 1
        if self.passive:
            return
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("vm.versions_published").inc()
            metrics.histogram("vm.publish_latency_s").observe(
                self.env.now - record.ticket_time
            )
        self._emit(EV_PUBLISH, client_id=record.writer, blob_id=record.blob_id,
                   version=record.version, blob_size_mb=record.size_mb,
                   latency_s=self.env.now - record.ticket_time)

    def apply_abandon(self, blob_id: int, version: int) -> None:
        """Burn a version; idempotent (log replay safe)."""
        info = self.blobs.get(blob_id)
        record = info.versions.get(version) if info is not None else None
        if record is not None and not record.published:
            record.abandoned = True

    # -- replication apply (standby mirror + promotion replay) -------------------
    def apply_record(self, kind: str, payload: dict) -> None:
        """Apply one replicated log record.  Every branch is idempotent,
        so a full log replay (promotion, rejoin catch-up) converges to
        the same state as incremental application."""
        if kind == "create":
            self.apply_create(payload["blob_id"], payload["chunk_size_mb"])
        elif kind == "ticket":
            self.apply_ticket(
                payload["blob_id"], payload["version"], payload["size_mb"],
                payload["writer"], payload["offset_mb"], payload["new_size_mb"],
                time=payload.get("time"),
            )
        elif kind == "publish":
            info = self.blobs.get(payload["blob_id"])
            record = info.versions.get(payload["version"]) if info else None
            if record is not None and not record.published and not record.abandoned:
                self._publish(record, time=payload.get("time"))
        elif kind == "abandon":
            self.apply_abandon(payload["blob_id"], payload["version"])
        else:  # pragma: no cover - log corruption guard
            raise BlobSeerError(f"unknown replication record kind {kind!r}")

    def reset_state(self) -> None:
        """Drop all state (divergent rejoiner about to replay a fresh log)."""
        self.blobs.clear()
        self._locks.clear()
        self._held.clear()
        self._next_blob_id = self.id_start
        self.tickets_issued = 0
        self.versions_published = 0

    def release_all_held(self) -> None:
        """Free every held per-blob lock (failover promotion: the lock
        holders were the old primary's RPC requests and no longer exist
        here; their tickets have just been burned)."""
        for (blob_id, _version), request in list(self._held.items()):
            lock = self._locks.get(blob_id)
            if lock is not None:
                lock.release(request)
        self._held.clear()

    # -- replicated mutation helpers ----------------------------------------------
    # Each helper is a generator that, unreplicated, returns before its
    # first yield (zero added events: replicas=1 runs stay byte-identical
    # per seed) and, replicated, commits the mutation through the
    # replica's sequenced log (quorum ack) before applying it.
    def _do_create(self, chunk_size_mb: float):
        if chunk_size_mb <= 0:
            raise ValueError("chunk_size_mb must be positive")
        if self.replicator is None:
            return self.create_blob(chunk_size_mb)
        payload = yield from self.replicator.commit(
            "create",
            lambda: {"blob_id": self._next_blob_id,
                     "chunk_size_mb": chunk_size_mb},
        )
        return payload["blob_id"]

    def _grant_ticket(self, blob_id, size_mb, writer, offset_mb):
        """Generator: mint the ticket (the per-blob lock is already held)."""
        if self.replicator is None:
            return self._issue_ticket(blob_id, size_mb, writer, offset_mb)

        def build():
            version, prev, off, prev_size, new_size = self._peek_ticket(
                blob_id, size_mb, offset_mb
            )
            return {
                "blob_id": blob_id, "version": version, "prev_version": prev,
                "size_mb": size_mb, "offset_mb": off,
                "prev_size_mb": prev_size, "new_size_mb": new_size,
                "writer": writer, "time": self.env.now,
            }

        payload = yield from self.replicator.commit("ticket", build)
        return Ticket(
            blob_id=blob_id,
            version=payload["version"],
            prev_version=payload["prev_version"],
            offset_mb=payload["offset_mb"],
            prev_size_mb=payload["prev_size_mb"],
            new_size_mb=payload["new_size_mb"],
        )

    def _do_publish(self, record: VersionRecord):
        if self.replicator is None:
            self._publish(record)
            return
        yield from self.replicator.commit(
            "publish",
            lambda: {"blob_id": record.blob_id, "version": record.version,
                     "time": self.env.now},
        )

    def _fence(self) -> None:
        """Reject the request unless this replica is the active primary."""
        if self.replicator is not None and not self.replicator.serving():
            raise NotActivePrimary(self.node.name, self.replicator.role)

    # -- remote operations (what clients call) -------------------------------------
    # Each handler is one body, run once per attempt (see rpc.attempts):
    # request leg + entry work (_receive), the operation, reply leg.
    # timeout_s=None means no timer (see repro.blobseer.rpc).
    def remote_create_blob(
        self,
        caller: PhysicalNode,
        chunk_size_mb: float,
        timeout_s: Optional[float] = None,
        retry=None,
    ):
        def attempt():
            tracer = self.env.tracer
            span = None
            if tracer.enabled:
                span = tracer.begin("vm.create_blob", track=self.node.name,
                                    cat="rpc", caller=caller.name)
            try:
                trip = yield from self._receive(caller, "vm.create_blob", timeout_s)
                blob_id = yield from self._do_create(chunk_size_mb)
                yield from trip.reply()
            except BaseException as exc:
                if span is not None:
                    span.fail(exc)
                raise
            if span is not None:
                span.finish()
            return blob_id

        blob_id = yield from attempts(self.env, attempt, retry)
        return blob_id

    def remote_ticket(
        self,
        caller: PhysicalNode,
        blob_id: int,
        size_mb: float,
        writer: str,
        offset_mb: Optional[float] = None,
        timeout_s: Optional[float] = None,
        retry=None,
    ):
        """Generator: blocks until the per-blob metadata lock is acquired.

        With *timeout_s*, the whole RPC (including lock queueing) races a
        deadline; on expiry the queued lock request is withdrawn and
        :class:`~repro.blobseer.errors.RpcTimeout` is raised.  A ticket
        whose reply cannot be delivered — deadline, or the writer's node
        died while it queued — is abandoned, on every path.
        """
        def attempt():
            # The span covers lock queueing, so ticket contention is visible
            # in the trace as stacked vm.ticket spans.
            tracer = self.env.tracer
            span = None
            if tracer.enabled:
                span = tracer.begin("vm.ticket", track=self.node.name, cat="rpc",
                                    blob=blob_id, writer=writer)
            try:
                trip = yield from self._receive(caller, "vm.ticket", timeout_s)
                lock = self._locks.get(blob_id)
                if lock is None:
                    raise BlobNotFound(blob_id)
                # A free lock is held from here (born processed) and
                # ``wait`` does not yield; a queued one is waited for.
                request = lock.request()
                try:
                    yield from trip.wait(request)
                except RpcTimeout:
                    # Withdraw from the lock queue (or release, if it was
                    # granted — on the spot past the deadline, or racing
                    # it) so later writers are not wedged.
                    if request.triggered:
                        lock.release(request)
                    else:
                        request.cancel()
                    raise
                try:
                    ticket = yield from self._grant_ticket(
                        blob_id, size_mb, writer, offset_mb
                    )
                except BaseException:
                    # Commit failed (e.g. quorum lost): free the blob.
                    lock.release(request)
                    raise
                if span is not None:
                    span.annotate(version=ticket.version)
                self._held[ticket.version_key()] = request
                try:
                    yield from trip.reply()
                except Exception:
                    # The client will never learn this version number: burn
                    # it and release the lock so the blob stays writable.
                    self.abandon(ticket)
                    raise
            except BaseException as exc:
                if span is not None:
                    span.fail(exc)
                raise
            if span is not None:
                span.finish()
            return ticket

        ticket = yield from attempts(self.env, attempt, retry)
        return ticket

    def remote_complete(
        self,
        caller: PhysicalNode,
        ticket: Ticket,
        timeout_s: Optional[float] = None,
        retry=None,
    ):
        """Generator: publish the version and release the blob lock.
        Idempotent: completing an already-published ticket acks."""
        def attempt():
            tracer = self.env.tracer
            span = None
            if tracer.enabled:
                span = tracer.begin("vm.publish", track=self.node.name, cat="rpc",
                                    blob=ticket.blob_id, version=ticket.version)
            try:
                trip = yield from self._receive(caller, "vm.publish", timeout_s)
                record = self._unpublished(ticket.blob_id, ticket.version)
                if record is not None:
                    yield from self._do_publish(record)
                    request = self._held.pop(ticket.version_key(), None)
                    if request is not None:
                        self._locks[ticket.blob_id].release(request)
                yield from trip.reply()
            except BaseException as exc:
                if span is not None:
                    span.fail(exc)
                raise
            if span is not None:
                span.finish()
            return ticket.version

        version = yield from attempts(self.env, attempt, retry)
        return version

    def abandon(self, ticket: Ticket) -> None:
        """Give up a ticket without publishing (writer failed/blocked).

        The version number is burned: it stays unpublished forever, and
        the lock is released so later writers proceed.  Readers only see
        published versions, so consistency is preserved.
        """
        request = self._held.pop(ticket.version_key(), None)
        if request is not None:
            self.apply_abandon(ticket.blob_id, ticket.version)
            if self.replicator is not None:
                # Synchronous append + fire-and-forget ship: an unacked
                # abandon lost with this primary is re-burned by the next
                # primary's in-flight-ticket sweep.
                self.replicator.log_abandon(ticket.blob_id, ticket.version)
            self._locks[ticket.blob_id].release(request)
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.instant("vm.abandon", track=self.node.name, cat="rpc",
                               blob=ticket.blob_id, version=ticket.version)

    def remote_get_latest(
        self,
        caller: PhysicalNode,
        blob_id: int,
        version: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retry=None,
    ):
        """Generator: :meth:`lookup` over the network — the latest
        published version, or the published *version* asked for
        (:class:`VersionNotFound` otherwise: readers never see a version
        before its writer has completed it)."""
        def attempt():
            tracer = self.env.tracer
            span = None
            if tracer.enabled:
                span = tracer.begin("vm.get_latest", track=self.node.name,
                                    cat="rpc", blob=blob_id, caller=caller.name)
            try:
                trip = yield from self._receive(caller, "vm.get_latest", timeout_s)
                result = self.lookup(blob_id, version)
                yield from trip.reply()
            except BaseException as exc:
                if span is not None:
                    span.fail(exc)
                raise
            if span is not None:
                span.finish()
            return result

        result = yield from attempts(self.env, attempt, retry)
        return result

    # -- plumbing -----------------------------------------------------------------
    def _entry_compute(self):
        """Per-RPC entry CPU, as the generator to wait on: group-committed
        when a batch gate is set, otherwise the full per-request charge."""
        if self.batch_gate is not None:
            return self.batch_gate.submit()
        return self.node.compute(self.op_cpu_s)

    def _receive(self, caller: PhysicalNode, op: str, timeout_s: Optional[float]):
        """Generator: the request leg of one attempt, then the server's
        entry work (primary fence, entry CPU).  Returns the
        :class:`~repro.blobseer.rpc.RoundTrip` the handler replies on."""
        trip = RoundTrip(self.net, caller.name, self.node.name, op, timeout_s,
                         host=self.node)
        yield from trip.request()
        self._fence()
        yield from self._entry_compute()
        return trip

    def _emit(self, event_type: str, client_id=None, blob_id=None, **fields) -> None:
        if not self.sink.enabled:
            return
        self.sink.emit(MonitoringEvent(
            time=self.env.now,
            actor_type="vmanager",
            actor_id=self.actor_id,
            event_type=event_type,
            client_id=client_id,
            blob_id=blob_id,
            fields=fields,
        ))
