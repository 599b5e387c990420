"""Monitoring services: the MonALISA-equivalent gathering layer.

"The monitoring layer has to handle the non-trivial task of gathering
data coming from all the instrumented BlobSeer nodes and to make them
available to the upper layer." (paper §III-B)

Each :class:`MonitoringService` runs on its own node, receives event
batches pushed by node agents (see :mod:`repro.monitoring.pipeline`),
runs its filter chain, and forwards the surviving events to the storage
repository over the network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from .filters import DataFilter, FilterChain
from .repository import StorageRepository

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.instrument import MonitoringEvent
    from ..cluster.node import PhysicalNode

__all__ = ["MonitoringService"]

#: Wire size of one monitoring event, agent -> service -> storage server.
EVENT_WIRE_MB = 0.0002
#: CPU a service spends receiving and filtering one event.
PER_EVENT_CPU_S = 2e-6


class MonitoringService:
    """One gathering service of the monitoring layer."""

    def __init__(
        self,
        node: PhysicalNode,
        service_id: str,
        repository: StorageRepository,
        filters: Optional[Sequence[DataFilter]] = None,
    ) -> None:
        self.node = node
        self.env = node.env
        self.net = node.network
        self.service_id = service_id
        self.repository = repository
        self.chain = FilterChain(*(filters or []))
        self.received = 0
        self.forwarded = 0

    def ingest(self, batch: List[MonitoringEvent]):
        """Generator: process one batch (filter, then persist).

        Called from the pushing agent's process *after* the batch has
        been transferred to this service's node.
        """
        if not batch or not self.node.alive:
            return 0
        self.received += len(batch)
        yield from self.node.compute(PER_EVENT_CPU_S * len(batch))
        filtered = self.chain.apply(batch)
        if not filtered:
            return 0
        # Forward to the repository shard(s) over the network: size scales
        # with the event count.
        routed = self.repository.route(filtered)
        by_node = {}
        for server, events in routed.items():
            name = server.node.name
            by_node[name] = by_node.get(name, 0) + len(events)
        for node_name, count in by_node.items():
            if node_name != self.node.name and node_name in self.net.nodes:
                yield self.net.transfer(
                    self.node.name, node_name, EVENT_WIRE_MB * count
                )
        self.repository.store(filtered, routed)
        self.forwarded += len(filtered)
        return len(filtered)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MonitoringService {self.service_id} received={self.received} "
            f"forwarded={self.forwarded}>"
        )
