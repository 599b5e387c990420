"""Cross-layer telemetry: sim-time spans, metrics, kernel profiling.

Usage::

    from repro import telemetry

    deployment = BlobSeerDeployment(...)
    t = telemetry.enable(deployment)        # installs tracer/metrics/profiler
    ...run the scenario...
    t.write_chrome_trace("trace.json")       # open in chrome://tracing / Perfetto
    print(t.summary())

By default every :class:`~repro.simulation.engine.Environment` carries a
:class:`NullTracer` (and no metrics/profiler), so un-instrumented runs —
the paper's "without monitoring" baselines — pay nothing.

NOTE: the simulation kernel imports this package for its defaults, so
module-level imports here must stay stdlib-only (``export.summary``
imports the visualization helpers lazily).
"""

from __future__ import annotations

from typing import Optional

from .critical_path import CriticalPathReport, PathStep, PhaseStat, analyze
from .export import chrome_trace, chrome_trace_json, summary, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries
from .profiler import KernelProfiler
from .tracer import NULL_TRACER, Instant, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Instant",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "KernelProfiler",
    "Telemetry",
    "enable",
    "analyze",
    "CriticalPathReport",
    "PhaseStat",
    "PathStep",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "summary",
]


class Telemetry:
    """Bundle of tracer + metrics + kernel profiler for one environment."""

    def __init__(self, env, profile: bool = True, max_spans: int = 1_000_000) -> None:
        self.env = env
        self.tracer = Tracer(env, max_spans=max_spans)
        self.metrics = MetricsRegistry(env)
        self.profiler: Optional[KernelProfiler] = KernelProfiler() if profile else None
        env.tracer = self.tracer
        env.metrics = self.metrics
        env.profiler = self.profiler

    def uninstall(self) -> None:
        """Return the environment to the free, un-instrumented defaults."""
        self.env.tracer = NULL_TRACER
        self.env.metrics = None
        self.env.profiler = None

    # -- export conveniences ---------------------------------------------------
    def write_chrome_trace(self, path: str, journal=None) -> str:
        return write_chrome_trace(self.tracer, path, journal=journal)

    def chrome_trace_json(self, journal=None) -> str:
        return chrome_trace_json(self.tracer, journal=journal)

    def summary(self) -> str:
        return summary(self.tracer, self.metrics, self.profiler)


def enable(target, profile: bool = True, max_spans: int = 1_000_000) -> Telemetry:
    """Install telemetry on *target* (an Environment, or anything with
    an ``.env`` attribute: Testbed, BlobSeerDeployment, scenario...)."""
    env = getattr(target, "env", target)
    return Telemetry(env, profile=profile, max_spans=max_spans)
