"""Cross-layer telemetry: sim-time spans, metrics, kernel profiling.

Usage::

    from repro import telemetry

    deployment = BlobSeerDeployment(...)
    t = telemetry.enable(deployment)        # installs tracer/metrics/profiler
    ...run the scenario...
    t.write_chrome_trace("trace.json")       # open in chrome://tracing / Perfetto

By default every :class:`~repro.simulation.engine.Environment` carries a
:class:`NullTracer` (and no metrics/profiler), so un-instrumented runs —
the paper's "without monitoring" baselines — pay nothing.
"""

from __future__ import annotations

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "tracer": ["Span", "Instant", "Tracer", "NullTracer", "NULL_TRACER"],
    "metrics": ["MetricsRegistry", "Counter", "Gauge", "Histogram",
                "TimeSeries"],
    "profiler": ["KernelProfiler"],
    "critical_path": ["analyze", "CriticalPathReport", "PhaseStat", "PathStep"],
    "export": ["chrome_trace", "chrome_trace_json", "write_chrome_trace"],
})
__all__ += ["Telemetry", "enable"]


class Telemetry:
    """Bundle of tracer + metrics + kernel profiler for one environment."""

    def __init__(self, env, profile: bool = True, max_spans: int = 1_000_000) -> None:
        from .metrics import MetricsRegistry
        from .profiler import KernelProfiler
        from .tracer import Tracer

        self.env = env
        self.tracer = Tracer(env, max_spans=max_spans)
        self.metrics = MetricsRegistry(env)
        self.profiler = KernelProfiler() if profile else None
        env.tracer = self.tracer
        env.metrics = self.metrics
        env.profiler = self.profiler

    def uninstall(self) -> None:
        """Return the environment to the free, un-instrumented defaults."""
        from .tracer import NULL_TRACER

        self.env.tracer = NULL_TRACER
        self.env.metrics = None
        self.env.profiler = None

    # -- export conveniences ---------------------------------------------------
    def write_chrome_trace(self, path: str, journal=None) -> str:
        from .export import write_chrome_trace

        return write_chrome_trace(self.tracer, path, journal=journal)


def enable(target, profile: bool = True, max_spans: int = 1_000_000) -> Telemetry:
    """Install telemetry on *target* (an Environment, or anything with
    an ``.env`` attribute: Testbed, BlobSeerDeployment, scenario...)."""
    env = getattr(target, "env", target)
    return Telemetry(env, profile=profile, max_spans=max_spans)
