"""Introspection layer: high-level aggregated system state + visualization."""

from .aggregator import BlobAccessStats, ClientActivity, IntrospectionLayer
from .health import EwmaZScore, HealthEvent, HealthMonitor, SLORule
from .provenance import DecisionJournal, JournalEntry
from .quality import (
    AdaptationScorecard,
    Disturbance,
    SignalSpec,
    overshoot,
    settling_time,
    slo_violation_seconds,
)
from .query import QueryEngine, WindowRollup
from .visualization import (
    Dashboard,
    adaptation_scorecard,
    bar_chart,
    journal_tail,
    sparkline,
    table,
)

__all__ = [
    "IntrospectionLayer",
    "ClientActivity",
    "BlobAccessStats",
    "QueryEngine",
    "WindowRollup",
    "DecisionJournal",
    "JournalEntry",
    "AdaptationScorecard",
    "SignalSpec",
    "Disturbance",
    "settling_time",
    "overshoot",
    "slo_violation_seconds",
    "HealthEvent",
    "HealthMonitor",
    "SLORule",
    "EwmaZScore",
    "Dashboard",
    "sparkline",
    "bar_chart",
    "table",
    "journal_tail",
    "adaptation_scorecard",
]
