"""Introspection layer: high-level aggregated system state + visualization."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aggregator": ["IntrospectionLayer", "BlobAccessStats"],
    "query": ["QueryEngine"],
    "provenance": ["DecisionJournal", "JournalEntry"],
    "quality": ["AdaptationScorecard", "SignalSpec", "Disturbance",
                "settling_time", "overshoot", "slo_violation_seconds"],
    "health": ["HealthEvent", "HealthMonitor", "SLORule", "EwmaZScore"],
    "visualization": ["Dashboard", "sparkline", "bar_chart", "table",
                      "journal_tail", "adaptation_scorecard"],
})
