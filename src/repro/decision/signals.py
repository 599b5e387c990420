"""Typed sensors: windowed-statistic references resolved per step.

A :class:`SignalRef` names one sliding-window statistic of one metrics
series — the unit of observation every planner consumes.  References are
immutable and hashable, so a planner's sensor set doubles as part of its
comparable configuration, and resolution goes through the introspection
:class:`~repro.introspection.query.QueryEngine`: a planner's sensor
reads the same window, folded the same way, as every other reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["SignalRef"]


@dataclass(frozen=True)
class SignalRef:
    """One windowed statistic of one series, e.g. ``mean`` of
    ``cache.client-chunk.evictions_per_s`` over the engine's window."""

    series: str
    stat: str = "mean"
    window_s: Optional[float] = None

    def resolve(self, query, now: Optional[float] = None) -> Optional[float]:
        """The current value through *query*; ``None`` without history."""
        if query is None:
            return None
        return query.window_stat(self.series, self.stat, self.window_s, now=now)

    @property
    def key(self) -> str:
        """Stable evidence/provenance key for this reference."""
        window = "engine" if self.window_s is None else f"{self.window_s:g}s"
        return f"{self.series}:{self.stat}@{window}"

