"""SLO and anomaly health signals for the self-* control loops.

The introspection layer's last mile: turn windowed observables into
structured :class:`HealthEvent`\\ s that adaptation engines can consume
directly (the paper's "input to various higher-level self-* components",
§III-B).  Two detector families run side by side:

* **SLO rules** (:class:`SLORule`): static thresholds on a windowed
  statistic of a metrics series — e.g. "mean client throughput over 30 s
  must stay above 20 MB/s".  Rules are edge-triggered: one event when
  the SLO is first violated, one ``recovery`` event when it heals, so a
  sustained violation does not flood the series.
* **EWMA z-score anomaly detection** (:class:`EwmaZScore`): an
  exponentially weighted running mean/variance per watched series; a
  sample whose z-score exceeds the threshold emits an ``anomaly`` event.
  This needs no tuned threshold per signal, catching regime changes
  (load spikes, capacity loss) the static rules were not written for.

A :class:`HealthMonitor` periodically evaluates both under simulation
time and records every event in :attr:`~HealthMonitor.events`, into
sim-time series (``health.events`` plus a per-signal series) and as
tracer instants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .query import QueryEngine

__all__ = ["HealthEvent", "SLORule", "EwmaZScore", "HealthMonitor"]

#: Severity as a number, for the ``health.events`` series.
_SEVERITY_RANK = {"info": 0, "warning": 1, "critical": 2}


@dataclass(frozen=True)
class HealthEvent:
    """One structured health signal."""

    time: float
    signal: str          # series or rule the event refers to
    kind: str            # "slo" | "anomaly" | "recovery"
    severity: str        # "info" | "warning" | "critical"
    value: float         # observed value (or z-score for anomalies)
    reference: float     # violated threshold / EWMA mean
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - display aid
        return (
            f"[{self.time:10.3f}s] {self.kind:>8} {self.severity:>8} "
            f"{self.signal}: value={self.value:.4g} ref={self.reference:.4g}"
        )


@dataclass
class SLORule:
    """Static threshold on a windowed statistic of one metrics series."""

    signal: str                        # metrics series name
    statistic: str = "mean"            # any QueryEngine.window_stat statistic
    max_value: Optional[float] = None  # violated when stat > max_value
    min_value: Optional[float] = None  # violated when stat < min_value
    window_s: float = 30.0
    severity: str = "critical"
    description: str = ""

    def check(self, value: float) -> Optional[float]:
        """Violated threshold, or ``None`` if the value honours the SLO."""
        if self.max_value is not None and value > self.max_value:
            return self.max_value
        if self.min_value is not None and value < self.min_value:
            return self.min_value
        return None

    @property
    def key(self) -> str:
        return f"{self.signal}:{self.statistic}"


class EwmaZScore:
    """Incremental EWMA mean/variance tracker with z-score scoring.

    ``score_and_update`` returns the sample's z-score against the
    *current* estimate (``None`` during warm-up), then folds the sample
    in — so an outlier is judged before it contaminates the baseline.
    """

    __slots__ = ("mean", "var", "count")

    #: Weight of the newest sample in the running mean and variance.
    ALPHA = 0.2
    #: Samples folded in before the first one is scored (warm-up).
    MIN_SAMPLES = 8

    def __init__(self) -> None:
        self.mean = 0.0
        self.var = 0.0
        self.count = 0

    def score_and_update(self, value: float) -> Optional[float]:
        z: Optional[float] = None
        if self.count >= self.MIN_SAMPLES:
            std = math.sqrt(self.var)
            if std > 1e-12:
                z = (value - self.mean) / std
            else:
                z = 0.0 if abs(value - self.mean) < 1e-12 else math.inf
        if self.count == 0:
            self.mean = value
            self.var = 0.0
        else:
            delta = value - self.mean
            self.mean += self.ALPHA * delta
            # Standard EWMA variance recursion (Roberts/EWMA control chart).
            self.var = (1.0 - self.ALPHA) * (self.var + self.ALPHA * delta * delta)
        self.count += 1
        return z


class HealthMonitor:
    """Periodic SLO/anomaly evaluation over a :class:`QueryEngine`.

    Every *interval_s* of simulation time it evaluates the SLO rules,
    scores new samples of the watched anomaly series, appends the
    resulting :class:`HealthEvent`\\ s to :attr:`events` and mirrors them
    into metrics series + tracer instants.
    """

    def __init__(
        self,
        engine: QueryEngine,
        rules: Sequence[SLORule] = (),
        anomaly_signals: Sequence[str] = (),
        interval_s: float = 5.0,
        z_threshold: float = 3.0,
        warmup_s: float = 0.0,
    ) -> None:
        self.engine = engine
        self.rules = list(rules)
        self.anomaly_signals = list(anomaly_signals)
        self.interval_s = interval_s
        self.z_threshold = z_threshold
        self.warmup_s = warmup_s
        self.events: List[HealthEvent] = []
        self._trackers: Dict[str, EwmaZScore] = {
            name: EwmaZScore() for name in self.anomaly_signals
        }
        self._series_pos: Dict[str, int] = {name: 0 for name in self.anomaly_signals}
        self._violating: Dict[str, bool] = {rule.key: False for rule in self.rules}

    # -- lifecycle --------------------------------------------------------------
    def start(self, env):
        """Spawn the periodic evaluation process; returns it."""
        return env.process(self.run(env), name="health-monitor")

    def run(self, env):
        while True:
            yield env.timeout(self.interval_s)
            self.check(env.now)

    # -- evaluation -------------------------------------------------------------
    def check(self, now: Optional[float] = None) -> List[HealthEvent]:
        """One evaluation pass; returns the events it emitted."""
        engine = self.engine
        now = engine._resolve_now(now)
        fresh: List[HealthEvent] = []
        if now < self.warmup_s:
            return fresh

        for rule in self.rules:
            value = engine.window_stat(rule.signal, rule.statistic, rule.window_s, now)
            if value is None:
                continue
            threshold = rule.check(value)
            was_violating = self._violating.get(rule.key, False)
            if threshold is not None and not was_violating:
                self._violating[rule.key] = True
                fresh.append(HealthEvent(
                    time=now, signal=rule.signal, kind="slo",
                    severity=rule.severity, value=value, reference=threshold,
                    detail={"statistic": rule.statistic,
                            "window_s": rule.window_s,
                            "description": rule.description},
                ))
            elif threshold is None and was_violating:
                self._violating[rule.key] = False
                fresh.append(HealthEvent(
                    time=now, signal=rule.signal, kind="recovery",
                    severity="info", value=value,
                    reference=rule.max_value if rule.max_value is not None
                    else (rule.min_value or 0.0),
                    detail={"statistic": rule.statistic},
                ))

        metrics = engine.metrics
        for name in self.anomaly_signals:
            if metrics is None:
                break
            points = metrics.series(name).points
            pos = self._series_pos.get(name, 0)
            tracker = self._trackers[name]
            for t, value in points[pos:]:
                if t > now:
                    break
                pos += 1
                z = tracker.score_and_update(value)
                if z is not None and abs(z) >= self.z_threshold and t >= self.warmup_s:
                    fresh.append(HealthEvent(
                        time=t, signal=name, kind="anomaly", severity="warning",
                        value=z, reference=tracker.mean,
                        detail={"sample": value},
                    ))
            self._series_pos[name] = pos

        for event in fresh:
            self._publish(event)
        self.events.extend(fresh)
        return fresh

    def _publish(self, event: HealthEvent) -> None:
        env = self.engine.env
        metrics = self.engine.metrics
        if metrics is not None:
            metrics.sample("health.events",
                           float(_SEVERITY_RANK.get(event.severity, 0)),
                           time=event.time)
            metrics.sample(f"health.{event.kind}.{event.signal}", event.value,
                           time=event.time)
            metrics.counter(f"health.{event.kind}_total").inc()
        if env is not None and env.tracer.enabled:
            env.tracer.instant(
                f"health.{event.kind}", track="health", cat="health",
                signal=event.signal, severity=event.severity,
                value=event.value, reference=event.reference,
            )
