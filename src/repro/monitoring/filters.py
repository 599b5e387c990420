"""Data filters applied at the monitoring services.

The paper's introspection layer "implement[s] a set of data filters at
the level of the monitoring services to aggregate the BlobSeer-specific
data".  Filters transform batches of raw instrumentation events before
they are persisted to the storage repository.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Protocol, Sequence, Set

from ..blobseer.instrument import MonitoringEvent

__all__ = [
    "DataFilter",
    "TypeFilter",
    "SamplingFilter",
    "WindowAggregateFilter",
    "FilterChain",
]


class DataFilter(Protocol):
    """Batch-in, batch-out transformation."""

    def apply(self, events: Sequence[MonitoringEvent]) -> List[MonitoringEvent]:
        ...  # pragma: no cover - protocol


class TypeFilter:
    """Keep only an allow-list of event types."""

    def __init__(self, allowed: Iterable[str]) -> None:
        self.allowed: Set[str] = set(allowed)

    def apply(self, events: Sequence[MonitoringEvent]) -> List[MonitoringEvent]:
        return [e for e in events if e.event_type in self.allowed]


class SamplingFilter:
    """Deterministically keep one event in *every* per parameter stream.

    Sampling is per parameter so that a chatty actor cannot starve a
    quiet one out of the sample.
    """

    def __init__(self, every: int) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self._counters: Dict[str, int] = {}

    def apply(self, events: Sequence[MonitoringEvent]) -> List[MonitoringEvent]:
        kept = []
        for event in events:
            key = event.parameter_name()
            count = self._counters.get(key, 0)
            if count % self.every == 0:
                kept.append(event)
            self._counters[key] = count + 1
        return kept


class WindowAggregateFilter:
    """Collapse numeric fields of same-parameter events inside a batch.

    Emits one synthetic event per (parameter, client) carrying ``count``
    and the sum of the events' sizes — the classic pre-aggregation
    MonALISA filters perform to keep repository traffic bounded.
    """

    #: The numeric field summed over a group.
    SUM_FIELD = "size_mb"

    def __init__(self, event_types: Iterable[str]) -> None:
        self.event_types = set(event_types)

    def apply(self, events: Sequence[MonitoringEvent]) -> List[MonitoringEvent]:
        out: List[MonitoringEvent] = []
        groups: Dict[tuple, List[MonitoringEvent]] = {}
        for event in events:
            if event.event_type not in self.event_types:
                out.append(event)
                continue
            groups.setdefault(
                (event.actor_type, event.actor_id, event.event_type, event.client_id),
                [],
            ).append(event)
        for (actor_type, actor_id, event_type, client_id), group in groups.items():
            total = sum(float(e.fields.get(self.SUM_FIELD, 0.0)) for e in group)
            out.append(MonitoringEvent(
                time=group[-1].time,
                actor_type=actor_type,
                actor_id=actor_id,
                event_type=event_type,
                client_id=client_id,
                blob_id=group[-1].blob_id,
                fields={
                    "count": len(group),
                    self.SUM_FIELD: total,
                    "aggregated": True,
                },
            ))
        return out


class FilterChain:
    """Apply filters in sequence."""

    def __init__(self, *filters: DataFilter) -> None:
        self.filters = list(filters)

    def apply(self, events: Sequence[MonitoringEvent]) -> List[MonitoringEvent]:
        batch = list(events)
        for data_filter in self.filters:
            batch = data_filter.apply(batch)
        return batch
