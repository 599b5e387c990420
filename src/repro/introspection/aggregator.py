"""Introspection layer: turns raw monitoring records into high-level data.

"The introspection layer processes the data received from the monitoring
layer ... to identify and generate relevant information related to the
state and the behavior of the system, which can be fed as input to
various higher-level self-* components." (paper §III-B)

Everything here is a *query* over the storage repository: the same
records feed the visualization tool (§IV-A), the security framework's
user-activity history (§III-C), and the adaptation engines (§V).  This
class is the repository's one reader; windows over metrics series are
:class:`~repro.introspection.query.QueryEngine`'s.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..blobseer.instrument import (
    EV_CHUNK_DELETE,
    EV_CHUNK_READ,
    EV_CHUNK_WRITE,
    EV_NODE_PHYSICAL,
    EV_OP_END,
    EV_STORAGE_LEVEL,
    MonitoringEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..monitoring.repository import StorageRepository

__all__ = ["BlobAccessStats", "IntrospectionLayer"]

Series = List[Tuple[float, float]]


@dataclass
class BlobAccessStats:
    """Access pattern of one BLOB."""

    blob_id: int
    chunk_writes: int = 0
    chunk_reads: int = 0
    bytes_written_mb: float = 0.0
    bytes_read_mb: float = 0.0
    versions_published: int = 0
    readers: set = field(default_factory=set)
    writers: set = field(default_factory=set)


class IntrospectionLayer:
    """Query layer over the monitoring repository."""

    def __init__(self, repository: StorageRepository) -> None:
        self.repository = repository

    # -- raw access --------------------------------------------------------------
    def records(
        self,
        since: float = 0.0,
        event_type: Optional[str] = None,
    ) -> List[MonitoringEvent]:
        return [event for event in self.repository.records_since(since)
                if event_type is None or event.event_type == event_type]

    def window(self, window_s: float, now: float) -> List[MonitoringEvent]:
        """Records with ``now - window_s < t <= now``, time-ordered."""
        lo = now - window_s
        return [event for event in self.repository.records_since(lo)
                if lo < event.time <= now]

    # -- the live view: data-path rate and hot blobs over a window ------------------
    def data_rate_mbps(self, window_s: float, now: float) -> float:
        """Chunk MB the providers wrote and served per second over the
        window ``now - window_s < t <= now``."""
        total = 0.0
        for event in self.window(window_s, now):
            if (event.actor_type == "provider"
                    and event.event_type in (EV_CHUNK_READ, EV_CHUNK_WRITE)):
                total += float(event.fields.get("size_mb", 0.0))
        return total / window_s

    def hot_blobs(self, window_s: float, now: float,
                  top: int = 5) -> List[Tuple[int, int, float]]:
        """Most-accessed blobs over the window: ``(blob_id, chunk
        accesses, MB touched)``, most accesses first, ties by blob id."""
        accesses: Dict[int, int] = {}
        volume: Dict[int, float] = {}
        for event in self.window(window_s, now):
            if (event.blob_id is None
                    or event.event_type not in (EV_CHUNK_READ, EV_CHUNK_WRITE)):
                continue
            blob = event.blob_id
            accesses[blob] = accesses.get(blob, 0) + int(event.fields.get("count", 1))
            volume[blob] = volume.get(blob, 0.0) + float(
                event.fields.get("size_mb", 0.0))
        ranked = sorted(accesses.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(blob, n, volume[blob]) for blob, n in ranked[:top]]

    # -- storage space (per provider and system-wide) --------------------------------
    def provider_storage_latest(self) -> Dict[str, float]:
        """Most recent used_mb per provider."""
        latest: Dict[str, Tuple[float, float]] = {}
        for event in self.records(event_type=EV_STORAGE_LEVEL):
            current = latest.get(event.actor_id)
            if current is None or event.time >= current[0]:
                latest[event.actor_id] = (event.time, float(event.fields["used_mb"]))
        return {pid: used for pid, (_t, used) in latest.items()}

    def system_storage_timeline(self, bucket_s: float = 5.0) -> Series:
        """System-wide stored MB over time (sum of last-known per provider)."""
        events = self.records(event_type=EV_STORAGE_LEVEL)
        if not events:
            return []
        horizon = max(e.time for e in events)
        buckets = np.arange(0.0, horizon + bucket_s, bucket_s)
        state: Dict[str, float] = {}
        series: Series = []
        index = 0
        events.sort(key=lambda e: e.time)
        for edge in buckets[1:]:
            while index < len(events) and events[index].time <= edge:
                state[events[index].actor_id] = float(events[index].fields["used_mb"])
                index += 1
            series.append((float(edge), sum(state.values())))
        return series

    # -- physical parameters -----------------------------------------------------------
    def node_physical_timeline(self, node_name: str, metric: str) -> Series:
        series = []
        for event in self.records(event_type=EV_NODE_PHYSICAL):
            if event.actor_id != node_name:
                continue
            series.append((event.time, float(event.fields[metric])))
        return series

    # -- BLOB access patterns ------------------------------------------------------------
    def blob_access_stats(self, since: float = 0.0) -> Dict[int, BlobAccessStats]:
        stats: Dict[int, BlobAccessStats] = {}
        for event in self.records(since=since):
            if event.blob_id is None:
                continue
            entry = stats.setdefault(event.blob_id, BlobAccessStats(event.blob_id))
            size = float(event.fields.get("size_mb", 0.0))
            if event.event_type == EV_CHUNK_WRITE:
                entry.chunk_writes += int(event.fields.get("count", 1))
                entry.bytes_written_mb += size
                if event.client_id:
                    entry.writers.add(event.client_id)
            elif event.event_type == EV_CHUNK_READ:
                entry.chunk_reads += int(event.fields.get("count", 1))
                entry.bytes_read_mb += size
                if event.client_id:
                    entry.readers.add(event.client_id)
            elif event.event_type == "publish":
                entry.versions_published += 1
        return stats

    def blob_distribution(self) -> Dict[int, Dict[str, int]]:
        """blob -> provider -> live chunk count (from write/delete events)."""
        distribution: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for event in self.records():
            if event.blob_id is None:
                continue
            if event.event_type == EV_CHUNK_WRITE:
                distribution[event.blob_id][event.actor_id] += int(
                    event.fields.get("count", 1)
                )
            elif event.event_type == EV_CHUNK_DELETE:
                distribution[event.blob_id][event.actor_id] -= int(
                    event.fields.get("count", 1)
                )
        return {b: dict(p) for b, p in distribution.items()}

    # -- throughput (the headline series of §IV-C) ----------------------------------------
    def throughput_timeline(
        self,
        bucket_s: float = 5.0,
        clients: Optional[Sequence[str]] = None,
        op: Optional[str] = None,
    ) -> Series:
        """Average per-client application throughput per time bucket.

        Computed from op_end events: each finished operation contributes
        its bytes to the bucket(s) it spans, then each bucket's total is
        divided by the number of distinct active clients — matching the
        paper's "average throughput of concurrent clients" metric.
        """
        wanted = set(clients) if clients is not None else None
        ops = []
        for event in self.records(event_type=EV_OP_END):
            if not event.fields.get("ok", True):
                continue
            if wanted is not None and event.client_id not in wanted:
                continue
            if op is not None and event.fields.get("op") != op:
                continue
            duration = float(event.fields.get("duration_s", 0.0))
            size = float(event.fields.get("size_mb", 0.0))
            if duration <= 0 or size <= 0:
                continue
            ops.append((event.time - duration, event.time, size, event.client_id))
        if not ops:
            return []
        horizon = max(end for _s, end, _z, _c in ops)
        edges = np.arange(0.0, horizon + bucket_s, bucket_s)
        series: Series = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            total = 0.0
            active = set()
            for start, end, size, client_id in ops:
                overlap = min(end, hi) - max(start, lo)
                if overlap <= 0:
                    continue
                total += size * overlap / (end - start)
                active.add(client_id)
            if active:
                series.append((float(hi), total / bucket_s / len(active)))
            else:
                series.append((float(hi), 0.0))
        return series
