"""Sliding-window introspection queries for the self-* components.

The paper's introspection layer must "identify and generate relevant
information related to the state and the behavior of the system ... fed
as input to various higher-level self-* components" (§III-B).  This
module is that query surface over
:class:`~repro.telemetry.metrics.MetricsRegistry` time series; the
monitoring repository's records have their one reader in
:class:`~repro.introspection.aggregator.IntrospectionLayer`.

Metrics series are append-only and time-ordered, so every window is a
bisect, never a scan of history.  The cut is
:meth:`TimeSeries.window <repro.telemetry.metrics.TimeSeries.window>` —
the only one in the repository — and the fold is
:meth:`QueryEngine.window_stat`: every reader of the self-* stack (cache
tuner, elasticity smoothing, health rules, ``SignalRef``, journal effect
windows, scorecard) sees the same window, and every statistic is
computed one way.  Nothing is pre-aggregated or cached: the windows the
engines ask for hold a handful of points.
"""

from __future__ import annotations

from math import fsum
from typing import Dict, List, Optional, Tuple

from ..telemetry.metrics import nearest_rank

__all__ = ["QueryEngine"]


class QueryEngine:
    """Windowed queries over metrics series.

    Parameters
    ----------
    metrics:
        A :class:`MetricsRegistry` (``None``: every window is empty).
    env:
        Environment supplying ``now`` when queries omit it.
    window_s:
        Default sliding-window width.
    """

    def __init__(self, metrics=None, env=None, window_s: float = 60.0) -> None:
        self.metrics = metrics
        self.env = env
        self.window_s = float(window_s)

    # -- time plumbing ---------------------------------------------------------
    def _resolve_now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        if self.env is not None:
            return self.env.now
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
    def for_deployment(cls, deployment, window_s: float = 60.0) -> "QueryEngine":
        """An engine over the deployment's ``env.metrics`` (may be
        ``None`` when telemetry is disabled)."""
        return cls(metrics=deployment.env.metrics, env=deployment.env,
                   window_s=window_s)
