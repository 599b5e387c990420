"""Instrumentation layer (layer 3 of the paper's introspection stack).

Every BlobSeer actor calls :meth:`EventSink.emit` at the points the paper
instruments: chunk writes/reads at data providers, tickets and publishes
at the version manager, allocations at the provider manager, and
operation start/end at clients.  The monitoring layer (``repro.monitoring``)
plugs in as the sink; by default a :class:`NullSink` makes instrumentation
free, which is how the "BlobSeer without monitoring" baseline of
experiment IV-B is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol

__all__ = [
    "MonitoringEvent",
    "EventSink",
    "NullSink",
    "CompositeSink",
    "RecordingSink",
    # event type constants
    "EV_CHUNK_WRITE",
    "EV_CHUNK_READ",
    "EV_CHUNK_DELETE",
    "EV_STORAGE_LEVEL",
    "EV_TICKET",
    "EV_PUBLISH",
    "EV_ALLOCATION",
    "EV_OP_START",
    "EV_OP_END",
    "EV_PROVIDER_JOIN",
    "EV_PROVIDER_LEAVE",
    "EV_NODE_PHYSICAL",
    "EV_REPLICA_REPAIR",
]

# Event taxonomy — mirrors the parameters the paper's introspection layer
# extracts (physical parameters, storage space, access patterns, BLOB
# distribution, per-client activity).
EV_CHUNK_WRITE = "chunk_write"
EV_CHUNK_READ = "chunk_read"
EV_CHUNK_DELETE = "chunk_delete"
EV_STORAGE_LEVEL = "storage_level"
EV_TICKET = "ticket"
EV_PUBLISH = "publish"
EV_ALLOCATION = "allocation"
EV_OP_START = "op_start"
EV_OP_END = "op_end"
EV_PROVIDER_JOIN = "provider_join"
EV_PROVIDER_LEAVE = "provider_leave"
EV_NODE_PHYSICAL = "node_physical"
EV_REPLICA_REPAIR = "replica_repair"


@dataclass(frozen=True)
class MonitoringEvent:
    """One instrumented occurrence inside a BlobSeer actor."""

    time: float
    actor_type: str  # "provider" | "vmanager" | "pmanager" | "client" | "node"
    actor_id: str
    event_type: str
    client_id: Optional[str] = None
    blob_id: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def parameter_name(self) -> str:
        """The monitoring-parameter identity this event feeds.

        Chunk-level events are chunk-level parameters (the paper's §IV-B
        counts ~10,000 generated parameters with 80 clients precisely
        because "the more fine-grained BLOBs we use, the more monitoring
        information has to be processed").
        """
        base = f"{self.actor_type}.{self.actor_id}.{self.event_type}"
        chunk = self.fields.get("chunk")
        if chunk is not None:
            return f"{base}.{chunk}"
        return base

    def parameter_key(self) -> tuple:
        """The parts :meth:`parameter_name` spells out, as a hashable
        key: what the monitoring layer counts and places parameters by,
        so that a name is formatted (and hashed) once per parameter, not
        once per event."""
        return (self.actor_type, self.actor_id, self.event_type,
                self.fields.get("chunk"))


class EventSink(Protocol):
    """Where instrumented events go (implemented by the monitoring layer).
    While ``enabled`` is false (the tracer's idiom) an ``emit`` would
    reach nobody, so the actors build no event at all."""

    enabled: bool

    def emit(self, event: MonitoringEvent) -> None:  # pragma: no cover - protocol
        ...


class NullSink:
    """Discards everything: the un-instrumented baseline deployment."""

    enabled = False

    def emit(self, event: MonitoringEvent) -> None:
        pass


class CompositeSink:
    """Fan-out to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks: List[EventSink] = list(sinks)
        #: Read by every actor before it builds an event; kept by add().
        self.enabled = bool(self.sinks)

    def add(self, sink: EventSink) -> None:
        self.sinks.append(sink)
        self.enabled = True

    def emit(self, event: MonitoringEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)


class RecordingSink:
    """Keeps every event in memory — handy for tests and offline analysis."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[MonitoringEvent] = []

    def emit(self, event: MonitoringEvent) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> List[MonitoringEvent]:
        return [e for e in self.events if e.event_type == event_type]

    def __len__(self) -> int:
        return len(self.events)
