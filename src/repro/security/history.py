"""User Activity History: the security framework's only input.

"To access user events, [the policy management module] relies on the
User Activity History module, a container for monitoring data collected
through monitoring mechanisms specific to each storage system."
(paper §III-C)

The history is system-independent: it stores normalized
:class:`UserEvent` records.  For BlobSeer, :class:`IntrospectionActivitySource`
periodically pulls client-attributed monitoring records out of the
introspection storage and normalizes them — so detection latency
includes the real monitoring-pipeline lag, as it did on Grid'5000.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..blobseer.instrument import (
    EV_CHUNK_READ,
    EV_CHUNK_WRITE,
    EV_OP_END,
    EV_OP_START,
    MonitoringEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..monitoring.repository import StorageRepository

__all__ = ["UserEvent", "UserActivityHistory", "IntrospectionActivitySource"]


@dataclass(frozen=True)
class UserEvent:
    """One normalized user-activity record."""

    time: float
    client_id: str
    kind: str  # "op_start" | "op_end" | "chunk_write" | "chunk_read"
    op: Optional[str] = None  # "write" | "append" | "read" | ...
    bytes_mb: float = 0.0
    blob_id: Optional[int] = None
    ok: bool = True


class UserActivityHistory:
    """Append-only, per-client indexed store of user events."""

    def __init__(self, retention_s: float = 3600.0) -> None:
        self.retention_s = retention_s
        self._events: Dict[str, List[UserEvent]] = {}
        self._times: Dict[str, List[float]] = {}
        self.total_recorded = 0

    def record(self, event: UserEvent) -> None:
        events = self._events.setdefault(event.client_id, [])
        times = self._times.setdefault(event.client_id, [])
        # Events may arrive slightly out of order across monitoring
        # services; keep per-client lists sorted.
        index = bisect_right(times, event.time)
        events.insert(index, event)
        times.insert(index, event.time)
        self.total_recorded += 1

    def clients(self) -> List[str]:
        return list(self._events)

    def events(
        self,
        client_id: str,
        since: float = 0.0,
        until: float = float("inf"),
        kind: Optional[str] = None,
    ) -> List[UserEvent]:
        events = self._events.get(client_id, [])
        times = self._times.get(client_id, [])
        lo = bisect_left(times, since)
        hi = bisect_right(times, until)
        window = events[lo:hi]
        if kind is not None:
            window = [e for e in window if e.kind == kind]
        return window

    def prune(self, now: float) -> int:
        """Drop events older than the retention horizon; returns count."""
        horizon = now - self.retention_s
        dropped = 0
        for client_id in list(self._events):
            times = self._times[client_id]
            cut = bisect_left(times, horizon)
            if cut:
                del times[:cut]
                del self._events[client_id][:cut]
                dropped += cut
        return dropped

    def __len__(self) -> int:
        return sum(len(v) for v in self._events.values())


def normalize(event: MonitoringEvent) -> Optional[UserEvent]:
    """Convert a client-attributed monitoring record to a UserEvent."""
    if event.client_id is None:
        return None
    if event.event_type not in (EV_OP_START, EV_OP_END, EV_CHUNK_WRITE, EV_CHUNK_READ):
        return None
    return UserEvent(
        time=event.time,
        client_id=event.client_id,
        kind=event.event_type,
        op=event.fields.get("op"),
        bytes_mb=float(event.fields.get("size_mb", 0.0)),
        blob_id=event.blob_id,
        ok=bool(event.fields.get("ok", True)),
    )


class IntrospectionActivitySource:
    """Pulls client activity from the introspection storage into a history.

    Runs as a periodic simulated process; its ``pull_interval_s`` is part
    of the end-to-end detection delay measured in EXP-C3.
    """

    def __init__(
        self,
        repository: StorageRepository,
        history: UserActivityHistory,
        pull_interval_s: float = 2.0,
    ) -> None:
        self.history = history
        self.pull_interval_s = pull_interval_s
        #: Positions are per storage server, so records stored late (storage
        #: lags emission) are still consumed, which a time cutoff would miss.
        self._cursor = repository.cursor()
        self.pulled = 0

    def pull_once(self, now: float) -> int:
        """Ingest records stored since the last pull; returns count."""
        count = 0
        for record in self._cursor.advance():
            user_event = normalize(record)
            if user_event is not None:
                self.history.record(user_event)
                count += 1
        self.pulled += count
        return count

    def run(self, env):
        """Generator: periodic pull loop (start with ``env.process``)."""
        while True:
            yield env.timeout(self.pull_interval_s)
            self.pull_once(env.now)
            self.history.prune(env.now)
