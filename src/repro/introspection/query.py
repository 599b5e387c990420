"""Sliding-window introspection queries for the self-* components.

The paper's introspection layer must "identify and generate relevant
information related to the state and the behavior of the system ... fed
as input to various higher-level self-* components" (§III-B).  This
module is that query surface: windowed statistics over
:class:`~repro.telemetry.metrics.MetricsRegistry` time series, and
windowed rollups over the monitoring repository's event records —
per-site, hot-blob and hot-chunk access patterns.

Two design points keep continuous polling cheap:

* Metrics series are append-only and time-ordered, so every window is a
  bisect, never a scan of history.  The cut is
  :meth:`TimeSeries.window <repro.telemetry.metrics.TimeSeries.window>`
  — the only one in the repository — and the fold is
  :meth:`QueryEngine.window_stat`: every reader of the self-* stack
  (cache tuner, elasticity smoothing, health rules, ``SignalRef``,
  journal effect windows, scorecard) sees the same window, and every
  statistic is computed one way.  Nothing is pre-aggregated or cached:
  the windows the engines ask for hold a handful of points.
* Repository records arrive through an incremental
  :class:`~repro.monitoring.repository.RepositoryCursor`: each
  :meth:`QueryEngine.refresh` consumes only records persisted since the
  last call and retains just the retention horizon in memory.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from math import fsum
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..blobseer.instrument import EV_CHUNK_READ, EV_CHUNK_WRITE, MonitoringEvent
from ..telemetry.metrics import nearest_rank

__all__ = ["WindowRollup", "QueryEngine"]


@dataclass
class WindowRollup:
    """Windowed data-path activity of one site."""

    key: str
    window_s: float
    chunk_reads: int = 0
    chunk_writes: int = 0
    mb_read: float = 0.0
    mb_written: float = 0.0
    events: int = 0
    actors: set = field(default_factory=set)

    @property
    def ops(self) -> int:
        return self.chunk_reads + self.chunk_writes

    @property
    def mb_per_s(self) -> float:
        total = self.mb_read + self.mb_written
        return total / self.window_s if self.window_s > 0 else 0.0


class QueryEngine:
    """Windowed queries over metrics series and monitoring records.

    Parameters
    ----------
    metrics:
        A :class:`MetricsRegistry` (or ``None`` if only repository
        queries are wanted).
    repository:
        A :class:`StorageRepository` (or ``None`` for series-only use).
    env:
        Environment supplying ``now`` when queries omit it.
    window_s:
        Default sliding-window width.
    retention_s:
        How much repository history to keep buffered; must cover the
        largest window queried.
    site_of:
        Maps an actor id (``provider-3``) to its site/rack name for
        :meth:`site_rollup` — a dict or a callable.  Unknown actors fall
        into site ``"?"``.
    """

    def __init__(
        self,
        metrics=None,
        repository=None,
        env=None,
        window_s: float = 60.0,
        retention_s: Optional[float] = None,
        site_of: "Mapping[str, str] | Callable[[str], str] | None" = None,
    ) -> None:
        self.metrics = metrics
        self.repository = repository
        self.env = env
        self.window_s = float(window_s)
        self.retention_s = float(retention_s) if retention_s is not None else max(
            300.0, 5.0 * self.window_s
        )
        if callable(site_of):
            self._site_of = site_of
        elif site_of is not None:
            mapping = dict(site_of)
            self._site_of = lambda actor: mapping.get(actor, "?")
        else:
            self._site_of = lambda actor: "?"
        self._cursor = repository.cursor() if repository is not None else None
        self._events: deque[MonitoringEvent] = deque()

    # -- time plumbing ---------------------------------------------------------
    def _resolve_now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        if self.env is not None:
            return self.env.now
        if self._events:
            return self._events[-1].time
        return 0.0

    # -- metrics series windows ------------------------------------------------
    def window_points(
        self,
        name: str,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Series points with ``now - window < t <= now`` (bisect, no scan)."""
        if self.metrics is None:
            return []
        now = self._resolve_now(now)
        width = self.window_s if window_s is None else window_s
        return self.metrics.series(name).window(now - width, now)

    def window_stat(
        self,
        name: str,
        statistic: str = "mean",
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """One windowed statistic of a series; ``None`` with no data.

        Statistics: ``mean``, ``min``, ``max``, ``sum``, ``latest``,
        ``count``, ``rate`` (samples/s), ``value_rate`` (sum/s), and
        percentiles ``p50``/``p90``/``p95``/``p99`` (nearest rank).
        Sums and means use ``math.fsum`` (correctly rounded).
        """
        width = self.window_s if window_s is None else window_s
        points = self.window_points(name, window_s, now)
        if not points:
            return None
        values = [v for _t, v in points]
        if statistic == "mean":
            return fsum(values) / len(values)
        if statistic == "min":
            return min(values)
        if statistic == "max":
            return max(values)
        if statistic == "sum":
            return fsum(values)
        if statistic == "latest":
            return values[-1]
        if statistic == "count":
            return float(len(values))
        if statistic == "rate":
            return len(values) / width if width > 0 else 0.0
        if statistic == "value_rate":
            return fsum(values) / width if width > 0 else 0.0
        if statistic.startswith("p"):
            return nearest_rank(sorted(values), float(statistic[1:]))
        raise ValueError(f"unknown statistic {statistic!r}")

    # -- repository event windows ----------------------------------------------
    def refresh(self, now: Optional[float] = None) -> int:
        """Pull newly persisted records through the cursor; returns count.

        Evicts buffered events older than the retention horizon, so a
        long-running consumer holds O(retention) state, not O(history).
        """
        if self._cursor is None:
            return 0
        fresh = self._cursor.advance()
        self._events.extend(fresh)
        horizon = self._resolve_now(now) - self.retention_s
        while self._events and self._events[0].time < horizon:
            self._events.popleft()
        return len(fresh)

    def events_in_window(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
        event_type: Optional[str] = None,
        actor_type: Optional[str] = None,
    ) -> List[MonitoringEvent]:
        self.refresh(now)
        now = self._resolve_now(now)
        width = self.window_s if window_s is None else window_s
        lo = now - width
        out = []
        for event in self._events:
            if event.time <= lo or event.time > now:
                continue
            if event_type is not None and event.event_type != event_type:
                continue
            if actor_type is not None and event.actor_type != actor_type:
                continue
            out.append(event)
        return out

    def site_rollup(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, WindowRollup]:
        """Windowed data-path activity keyed by site (via ``site_of``)."""
        width = self.window_s if window_s is None else window_s
        rollups: Dict[str, WindowRollup] = {}
        events = self.events_in_window(window_s, now, actor_type="provider")
        for event in events:
            key = self._site_of(event.actor_id)
            entry = rollups.get(key)
            if entry is None:
                entry = rollups[key] = WindowRollup(key, width)
            entry.events += 1
            entry.actors.add(event.actor_id)
            count = int(event.fields.get("count", 1))
            size = float(event.fields.get("size_mb", 0.0))
            if event.event_type == EV_CHUNK_WRITE:
                entry.chunk_writes += count
                entry.mb_written += size
            elif event.event_type == EV_CHUNK_READ:
                entry.chunk_reads += count
                entry.mb_read += size
        return rollups

    # -- access-pattern reports (§III-B) ----------------------------------------
    def hot_blobs(
        self,
        top: int = 5,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[int, int, float]]:
        """Most-accessed blobs: (blob_id, accesses, MB touched), desc."""
        accesses: Counter = Counter()
        volume: Dict[int, float] = {}
        for event in self.events_in_window(window_s, now):
            if event.blob_id is None:
                continue
            if event.event_type not in (EV_CHUNK_READ, EV_CHUNK_WRITE):
                continue
            count = int(event.fields.get("count", 1))
            accesses[event.blob_id] += count
            volume[event.blob_id] = volume.get(event.blob_id, 0.0) + float(
                event.fields.get("size_mb", 0.0)
            )
        ranked = sorted(accesses.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(blob, n, volume.get(blob, 0.0)) for blob, n in ranked[:top]]

    def hot_chunks(
        self,
        top: int = 5,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[str, int]]:
        """Most-accessed chunk keys: (storage_key, accesses), desc."""
        accesses: Counter = Counter()
        for event in self.events_in_window(window_s, now):
            if event.event_type not in (EV_CHUNK_READ, EV_CHUNK_WRITE):
                continue
            chunk = event.fields.get("chunk")
            if chunk is None:
                continue
            accesses[chunk] += int(event.fields.get("count", 1))
        return sorted(accesses.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    # -- cache rollups (repro.cache tiers) -----------------------------------------
    #: ``cache.<name>.<field>`` series fields and how each is rolled up:
    #: rates/ratios average over the window, occupancy takes the latest.
    _CACHE_FIELDS = {
        "hit_rate": "mean",
        "lookups_per_s": "mean",
        "evictions_per_s": "mean",
        "bytes_mb": "latest",
        "capacity_mb": "latest",
    }

    def cache_stats(
        self,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Windowed per-cache rollup keyed by cache name.

        Consumes the ``cache.<name>.<field>`` series published by the
        :class:`~repro.adaptation.CacheTuner` (or any other sampler).
        Fields without samples in the window are omitted, so a cache
        appears as soon as any of its series has data.
        """
        if self.metrics is None:
            return {}
        out: Dict[str, Dict[str, float]] = {}
        for series_name in self.metrics.series_names("cache."):
            body = series_name[len("cache."):]
            name, _, field_name = body.rpartition(".")
            statistic = self._CACHE_FIELDS.get(field_name)
            if not name or statistic is None:
                continue
            value = self.window_stat(series_name, statistic, window_s, now)
            if value is None:
                continue
            out.setdefault(name, {})[field_name] = value
        return out

    # -- convenience constructors ------------------------------------------------
    @classmethod
    def for_deployment(
        cls,
        deployment,
        monitoring=None,
        window_s: float = 60.0,
        retention_s: Optional[float] = None,
    ) -> "QueryEngine":
        """Wire an engine to a deployment (+ optional MonitoringStack).

        Sites come from the deployment's actor→node map; metrics from
        ``env.metrics`` (may be ``None`` when telemetry is disabled).
        """
        actor_nodes = getattr(deployment, "actor_nodes", {})
        sites = {actor: node.site for actor, node in actor_nodes.items()}
        repository = None
        if monitoring is not None:
            repository = getattr(monitoring, "repository", monitoring)
        return cls(
            metrics=deployment.env.metrics,
            repository=repository,
            env=deployment.env,
            window_s=window_s,
            retention_s=retention_s,
            site_of=sites,
        )
