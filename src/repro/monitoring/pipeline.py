"""The full monitoring stack: agents → services → storage repository.

This module wires the paper's three-layer introspection architecture
onto a testbed:

- **instrumentation**: BlobSeer actors emit :class:`MonitoringEvent`s into
  this stack (it is an ``EventSink``);
- **monitoring layer**: per-node agents buffer events and push batches to
  their assigned :class:`MonitoringService` every ``flush_interval_s``
  over the simulated network (MonALISA's farm/service topology);
- **introspection storage**: services filter and forward to the
  :class:`StorageRepository` (distributed storage servers with the burst
  cache of §III-B).

Optionally, per-node *physical sensors* sample CPU/memory/disk/NIC and
feed the same pipeline (the "physical parameters" of the visualization
tool, §IV-A).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..blobseer.instrument import EV_NODE_PHYSICAL, MonitoringEvent
from ..blobseer.rpc import TRANSPORT_ERRORS
from .repository import StorageRepository, StorageServer
from .service import EVENT_WIRE_MB, MonitoringService

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.deployment import BlobSeerDeployment
    from ..cluster.node import PhysicalNode
    from ..cluster.testbed import Testbed

__all__ = ["MonitoringConfig", "MonitoringStack"]

#: CPU an instrumented node spends sending one event to its service.
INSTRUMENTATION_CPU_S = 1e-6
#: Events a storage server of the stack buffers for its writer, and
#: those its burst cache (§III-B) absorbs beyond that before dropping.
BUFFER_CAPACITY = 500
BURST_CACHE_CAPACITY = 2000


@dataclass
class MonitoringConfig:
    """Shape and timing of the monitoring stack."""

    services: int = 2
    storage_servers: int = 2
    flush_interval_s: float = 1.0
    physical_sample_interval_s: float = 0.0  # 0 disables sensors
    sensor_stop_at: float = float("inf")


class MonitoringStack:
    """Deployable monitoring + introspection-storage stack.

    Acts as an ``EventSink``: pass it (or add it) as the deployment's
    sink, or call :meth:`attach` on an existing deployment.
    """

    def __init__(
        self,
        testbed: Testbed,
        config: Optional[MonitoringConfig] = None,
    ) -> None:
        self.testbed = testbed
        self.env = testbed.env
        self.config = config or MonitoringConfig()
        #: actor id -> the node its events are shipped from; nobody's
        #: until :meth:`attach` learns the deployment's actor nodes.
        self.node_resolver: Callable[[str], Optional[PhysicalNode]] = (
            lambda actor_id: None)

        self.storage_servers: List[StorageServer] = []
        for i in range(self.config.storage_servers):
            node = testbed.add_node(f"mon-store-{i}")
            self.storage_servers.append(StorageServer(
                node,
                f"store-{i}",
                buffer_capacity=BUFFER_CAPACITY,
                burst_cache_capacity=BURST_CACHE_CAPACITY,
            ))
        self.repository = StorageRepository(self.storage_servers)

        self.services: List[MonitoringService] = []
        for i in range(self.config.services):
            node = testbed.add_node(f"mon-svc-{i}")
            self.services.append(MonitoringService(
                node, f"svc-{i}", self.repository))

        #: Per-actor outbound buffers, drained by the service flushers.
        self._buffers: Dict[str, List[MonitoringEvent]] = {}
        #: Keys of the parameters seen (``MonitoringEvent.parameter_key``).
        self._parameters: set[tuple] = set()
        #: Actor id -> the service its events go to: hashed once.
        self._service_of: Dict[str, MonitoringService] = {}
        self.events_emitted = 0
        self.events_shipped = 0
        self._monitored_nodes: List[PhysicalNode] = []
        self._started = False

    # -- EventSink interface -------------------------------------------------------
    enabled = True

    def emit(self, event: MonitoringEvent) -> None:
        self.events_emitted += 1
        self._parameters.add(event.parameter_key())
        self._buffers.setdefault(event.actor_id, []).append(event)
        self._ensure_started()

    def parameter_count(self) -> int:
        """Distinct monitoring parameters generated so far (paper §IV-B)."""
        return len(self._parameters)

    # -- wiring ---------------------------------------------------------------------
    def attach(self, deployment: BlobSeerDeployment, sensors: bool = True) -> None:
        """Instrument a BlobSeer deployment with this stack."""
        deployment.sink.add(self)
        self.node_resolver = lambda actor_id: deployment.actor_nodes.get(actor_id)
        if sensors and self.config.physical_sample_interval_s > 0:
            for node in deployment.actor_nodes.values():
                self.monitor_node(node)

    def monitor_node(self, node: PhysicalNode) -> None:
        """Start a physical-parameter sensor on *node*."""
        if node in self._monitored_nodes:
            return
        self._monitored_nodes.append(node)
        self.env.process(self._sensor(node), name=f"sensor-{node.name}")

    def _sensor(self, node: PhysicalNode):
        interval = self.config.physical_sample_interval_s
        while node.alive and self.env.now < self.config.sensor_stop_at:
            yield self.env.timeout(interval)
            out_rate, in_rate = node.network_load()
            self.emit(MonitoringEvent(
                time=self.env.now,
                actor_type="node",
                actor_id=node.name,
                event_type=EV_NODE_PHYSICAL,
                fields={
                    "cpu_util": node.cpu_utilization,
                    "memory_mb": node.memory_used_mb,
                    "disk_used_mb": node.disk_used_mb,
                    "net_out_mbps": out_rate,
                    "net_in_mbps": in_rate,
                },
            ))

    # -- flushers ----------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        for service in self.services:
            self.env.process(self._flusher(service), name=f"flusher-{service.service_id}")

    def _service_for(self, actor_id: str) -> MonitoringService:
        service = self._service_of.get(actor_id)
        if service is None:
            digest = hashlib.md5(actor_id.encode()).digest()
            service = self._service_of[actor_id] = self.services[
                int.from_bytes(digest[:4], "little") % len(self.services)]
        return service

    def _flusher(self, service: MonitoringService):
        interval = self.config.flush_interval_s
        while service.node.alive:
            yield self.env.timeout(interval)
            # Collect this service's share of every actor buffer.
            by_source: Dict[Optional[str], List[MonitoringEvent]] = {}
            for actor_id in list(self._buffers):
                if self._service_for(actor_id) is not service:
                    continue
                batch = self._buffers.pop(actor_id, [])
                if not batch:
                    continue
                source = self.node_resolver(actor_id)
                key = source.name if source is not None and source.alive else None
                by_source.setdefault(key, []).extend(batch)
            for source_name, batch in by_source.items():
                if source_name is not None and source_name in service.net.nodes:
                    source_node = self.testbed.nodes.get(source_name)
                    try:
                        if source_node is not None:
                            # Sending cost charged to the instrumented node.
                            yield from source_node.compute(
                                INSTRUMENTATION_CPU_S * len(batch))
                        yield service.net.transfer(
                            source_name,
                            service.node.name,
                            EVENT_WIRE_MB * len(batch),
                        )
                    except TRANSPORT_ERRORS:
                        continue  # the batch died with its link: lost
                self.events_shipped += len(batch)
                yield from service.ingest(batch)

    # -- reporting -------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "emitted": self.events_emitted,
            "shipped": self.events_shipped,
            "stored": self.repository.stored_count,
            "dropped": self.repository.dropped_count,
            "parameters": self.parameter_count(),
        }
