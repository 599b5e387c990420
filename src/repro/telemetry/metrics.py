"""Metrics registry: counters, gauges, histograms and sim-time series.

The registry complements the tracer: spans answer "what happened when",
metrics answer "how much / how fast over time".  Time series are keyed
to ``env.now`` so every sample lines up with the trace timeline.

Stdlib-only (the simulation kernel may hold a registry).
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "cut_window",
    "nearest_rank",
]

_POINT_TIME = lambda p: p[0]  # noqa: E731 - bisect key for (time, value)


def cut_window(points: Sequence[Tuple[float, float]], lo: float,
               hi: float) -> Sequence[Tuple[float, float]]:
    """The samples of time-ordered *points* with ``lo < t <= hi``.

    The one place a window is cut out of a series: two bisects over the
    append-only, time-ordered sample list, never a scan of history.
    Empty when ``lo >= hi``.
    """
    i = bisect_right(points, lo, key=_POINT_TIME)
    j = bisect_right(points, hi, key=_POINT_TIME)
    return points[i:j]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sorted list."""
    last = len(ordered) - 1
    return ordered[max(0, min(last, int(round(q / 100.0 * last))))]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, pool size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary of a distribution (count/sum/min/max + samples).

    Up to ``max_samples`` samples are retained for percentile queries via
    reservoir sampling (Vitter's Algorithm R): past the cap each new
    observation replaces a uniformly chosen slot, so the retained set
    stays an unbiased sample of the whole stream instead of freezing on
    the first-``max_samples`` warm-up values.  The reservoir RNG is
    seeded from the histogram name (``crc32``, stable across processes),
    keeping percentiles deterministic per seed.  Running aggregates
    (count/sum/min/max) are always exact.
    """

    __slots__ = (
        "name", "count", "total", "min", "max",
        "_samples", "max_samples", "_rng", "_sorted",
    )

    def __init__(self, name: str, max_samples: int = 100_000) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
            self._sorted = None
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.max_samples:
                self._samples[slot] = value
                self._sorted = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ordered(self) -> List[float]:
        """Sorted view of the reservoir, cached between observations."""
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over retained samples (q in 0..100)."""
        if not self._samples:
            return 0.0
        return nearest_rank(self._ordered(), q)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class TimeSeries:
    """(sim-time, value) samples, append-only and time-ordered."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        self.points.append((float(time), float(value)))

    @property
    def values(self) -> List[float]:
        return [v for _t, v in self.points]

    def latest(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    def window(self, lo: float, hi: float) -> List[Tuple[float, float]]:
        """Samples with ``lo < t <= hi`` (see :func:`cut_window`)."""
        return cut_window(self.points, lo, hi)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "series", "points": [[t, v] for t, v in self.points]}

    def __len__(self) -> int:
        return len(self.points)


#: Export order of :meth:`MetricsRegistry.to_dict`: kind, then name.
_KINDS = (Counter, Gauge, Histogram, TimeSeries)


class MetricsRegistry:
    """Get-or-create registry for all four instrument kinds.

    One name is one instrument: asking for a registered name as another
    kind raises :class:`ValueError` (an export keyed by name could only
    show one of the two).  When built with an environment,
    :meth:`sample` stamps series points with ``env.now`` automatically.
    """

    def __init__(self, env=None) -> None:
        self.env = env
        self._instruments: Dict[str, Any] = {}

    # -- instruments -----------------------------------------------------------
    def _instrument(self, name: str, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = kind(name)
        elif type(instrument) is not kind:
            raise ValueError(
                f"metric {name!r} is registered as a "
                f"{type(instrument).__name__}, not a {kind.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def series(self, name: str) -> TimeSeries:
        return self._instrument(name, TimeSeries)

    @property
    def now(self) -> float:
        """The time :meth:`sample` stamps a point with; a sampler that
        holds its :class:`TimeSeries` records under the same stamp."""
        return self.env.now if self.env is not None else 0.0

    def sample(self, name: str, value: float, time: Optional[float] = None) -> None:
        """Append one series point, stamped with ``env.now`` by default."""
        self.series(name).record(self.now if time is None else time, value)

    # -- export ----------------------------------------------------------------
    def _names(self, kind, prefix: str = "") -> List[str]:
        return sorted(name for name, instrument in self._instruments.items()
                      if type(instrument) is kind and name.startswith(prefix))

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """All instruments, grouped by kind and sorted by name within a
        kind (stable for serialization)."""
        return {name: self._instruments[name].to_dict()
                for kind in _KINDS for name in self._names(kind)}

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def series_names(self, prefix: str = "") -> List[str]:
        """Registered time-series names, optionally filtered by prefix."""
        return self._names(TimeSeries, prefix)

    def __len__(self) -> int:
        return len(self._instruments)
