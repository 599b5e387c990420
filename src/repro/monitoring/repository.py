"""The introspection layer's storage back end.

"We designed a flexible storage schema for the monitored parameters,
which pass through the data filters and then are sent to a set of
distributed storage servers.  We also built a caching mechanism for the
storage servers, so as to enable them to cope with bursts of monitoring
data generated when the system is under heavy load." (paper §III-B)

Each storage server persists events at a bounded rate; a FIFO ingest
buffer absorbs transient bursts.  Enabling the burst cache extends that
buffer (backed by server memory).  When the buffer overflows, events are
dropped and counted — ABL-4 measures exactly this.

Query side: ``records_since`` is the time-ordered view, sorted on
demand (its one consumer, ``IntrospectionLayer``, runs after the run or
once per dashboard refresh during it, and sorts only the records at or
after its cut).  For consumers that poll — the security framework's
history pull — a :class:`RepositoryCursor` returns only the records
persisted since the previous call.
"""

from __future__ import annotations

import hashlib
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.instrument import MonitoringEvent
    from ..cluster.node import PhysicalNode


__all__ = ["StorageServer", "StorageRepository", "RepositoryCursor"]

_TIME_KEY = attrgetter("time")


class StorageServer:
    """One monitoring-data storage server."""

    #: Server memory one burst-cached event occupies.
    CACHE_EVENT_MB = 0.001

    def __init__(
        self,
        node: PhysicalNode,
        server_id: str,
        write_rate_eps: float = 2000.0,
        buffer_capacity: int = 500,
        burst_cache_capacity: int = 0,
    ) -> None:
        self.node = node
        self.env = node.env
        self.server_id = server_id
        self.write_rate_eps = write_rate_eps
        self.buffer_capacity = buffer_capacity
        self.burst_cache_capacity = burst_cache_capacity
        self.buffer: deque[MonitoringEvent] = deque()
        #: Persisted events in arrival order (append-only: cursors rely
        #: on positions never shifting).
        self.records: List[MonitoringEvent] = []
        self.dropped = 0
        self.cached_peak = 0
        self._writer_running = False
        if burst_cache_capacity > 0:
            # Reserve server memory for the cache (visible to introspection).
            node.memory.put(burst_cache_capacity * self.CACHE_EVENT_MB)

    @property
    def total_capacity(self) -> int:
        return self.buffer_capacity + self.burst_cache_capacity

    def offer(self, events: Sequence[MonitoringEvent]) -> int:
        """Enqueue a batch; returns how many were dropped."""
        dropped = 0
        for event in events:
            if len(self.buffer) >= self.total_capacity:
                dropped += 1
                continue
            self.buffer.append(event)
        self.cached_peak = max(self.cached_peak, max(0, len(self.buffer) - self.buffer_capacity))
        self.dropped += dropped
        if self.buffer and not self._writer_running:
            self._writer_running = True
            self.env.process(self._drain(), name=f"repo-writer-{self.server_id}")
        return dropped

    def _drain(self):
        """Persist buffered events at the bounded write rate."""
        try:
            while self.buffer and self.node.alive:
                # Write in small batches to keep event count manageable.
                batch_size = min(len(self.buffer), max(1, int(self.write_rate_eps * 0.1)))
                yield self.env.timeout(batch_size / self.write_rate_eps)
                for _ in range(min(batch_size, len(self.buffer))):
                    self.records.append(self.buffer.popleft())
        finally:
            self._writer_running = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StorageServer {self.server_id} stored={len(self.records)} "
            f"buffered={len(self.buffer)} dropped={self.dropped}>"
        )


class RepositoryCursor:
    """Incremental consumer position over a repository's stored records.

    Each :meth:`advance` returns only the records persisted since the
    previous call, merged across servers in time order.  Positions are
    per server, so the cost of a poll is proportional to *new* data —
    the paper's introspection consumers poll continuously, and re-sorting
    the whole history every tick is what this replaces.
    """

    def __init__(self, repository: "StorageRepository") -> None:
        self.repository = repository
        self._positions: Dict[str, int] = {
            server.server_id: 0 for server in repository.servers
        }

    def pending(self) -> int:
        """How many persisted records the next :meth:`advance` will return."""
        total = 0
        for server in self.repository.servers:
            total += len(server.records) - self._positions.get(server.server_id, 0)
        return total

    def advance(self) -> List[MonitoringEvent]:
        batches: List[List[MonitoringEvent]] = []
        for server in self.repository.servers:
            pos = self._positions.get(server.server_id, 0)
            records = server.records
            if pos < len(records):
                batches.append(records[pos:])
                self._positions[server.server_id] = len(records)
        if not batches:
            return []
        if len(batches) == 1:
            out = batches[0]
        else:
            out = [event for batch in batches for event in batch]
        # Arrival order is nearly time order, so timsort is ~linear here.
        out.sort(key=_TIME_KEY)
        return out


class StorageRepository:
    """Hash-partitioned set of storage servers + a unified query view."""

    def __init__(self, servers: Sequence[StorageServer]) -> None:
        if not servers:
            raise ValueError("need at least one storage server")
        self.servers = list(servers)
        #: Parameter key -> its shard: a parameter is hashed once.
        self._placement: Dict[tuple, StorageServer] = {}

    def server_for(self, parameter_name: str) -> StorageServer:
        digest = hashlib.md5(parameter_name.encode()).digest()
        return self.servers[int.from_bytes(digest[:4], "little") % len(self.servers)]

    def route(
        self, events: Sequence[MonitoringEvent]
    ) -> Dict[StorageServer, List[MonitoringEvent]]:
        """Group *events* by the shard that owns their parameter, shards
        in order of first appearance."""
        placement = self._placement
        routed: Dict[StorageServer, List[MonitoringEvent]] = {}
        for event in events:
            key = event.parameter_key()
            server = placement.get(key)
            if server is None:
                server = placement[key] = self.server_for(event.parameter_name())
            routed.setdefault(server, []).append(event)
        return routed

    def store(self, events: Sequence[MonitoringEvent], routed=None) -> int:
        """Route events to their shard; returns number dropped.  A caller
        that already holds ``route(events)`` hands it over as *routed*."""
        if routed is None:
            routed = self.route(events)
        dropped = 0
        for server, batch in routed.items():
            dropped += server.offer(batch)
        return dropped

    # -- query API (used by introspection) -----------------------------------
    def cursor(self) -> RepositoryCursor:
        """A fresh incremental cursor positioned at the start of history."""
        return RepositoryCursor(self)

    def all_records(self) -> List[MonitoringEvent]:
        return self.records_since(float("-inf"))

    def records_since(self, t0: float) -> List[MonitoringEvent]:
        """Records with ``time >= t0``, time-ordered across servers.

        A stable sort of the per-server records concatenated in server
        order: ties keep server order, then arrival order (batches from
        different monitoring services interleave, so arrival order is
        usually — but not always — time order).
        """
        return sorted(
            (event for server in self.servers for event in server.records
             if event.time >= t0),
            key=_TIME_KEY,
        )

    @property
    def stored_count(self) -> int:
        return sum(len(s.records) for s in self.servers)

    @property
    def dropped_count(self) -> int:
        return sum(s.dropped for s in self.servers)
