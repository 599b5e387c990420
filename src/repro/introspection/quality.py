"""Quality-of-adaptation metrics (SEAMS survey, arXiv:2103.11481).

Recording *that* the system adapted (the
:class:`~repro.introspection.provenance.DecisionJournal`) is half the
story; this module scores *how well* it adapted, using the control-
theoretic quality metrics the self-adaptive-systems community reports —
so alternative decision techniques become drop-in comparable on the
same disturbance scenario (RDMSim, arXiv:2105.01978, is the exemplar):

- **settling time** — seconds from a disturbance until the watched
  signal re-enters its target band *and stays there* for ``hold_s``;
- **overshoot** — the worst excursion beyond the band after the
  disturbance, as a fraction of the band edge;
- **SLO-violation seconds** — total time the signal spent outside its
  band (sample-and-hold integration over the series);
- **decision churn & oscillation** — decisions per minute, and
  antagonistic action pairs (grow→shrink of the same subject) within an
  oscillation window — the "control effort" side of quality;
- **time-to-effect** — from the journal's effect attribution: how long
  after a decision the watched signal had moved half of its eventual
  delta.

Everything computes from data already recorded (metrics series + the
journal); nothing here touches the simulation, so scoring a run is
side-effect-free and repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..telemetry.metrics import cut_window

__all__ = [
    "SignalSpec",
    "Disturbance",
    "settling_time",
    "overshoot",
    "slo_violation_seconds",
    "AdaptationScorecard",
]

#: Antagonistic action pairs per engine: a decision followed by its
#: inverse on the same subject within the oscillation window counts as
#: one oscillation.
ANTAGONISTS: Dict[str, List[Tuple[str, str, str]]] = {
    # (action, inverse action, detail key identifying the subject)
    "cache-tuner": [("cache_grow", "cache_shrink", "cache")],
    "elasticity": [("scale_up", "scale_down", "")],
    "replication": [("promote", "demote", "chunk")],
}
#: An action and its antagonist on the same subject within this many
#: seconds count as one oscillation.
OSCILLATION_WINDOW_S = 60.0


@dataclass
class SignalSpec:
    """One watched signal and its target band.

    ``min_value``/``max_value`` bound the acceptable band (either may be
    ``None`` for one-sided SLOs).  ``hold_s`` is how long the signal must
    stay in band to count as settled.
    """

    series: str
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    hold_s: float = 10.0
    #: Human label for scorecard rendering; defaults to the series name.
    label: str = ""

    def __post_init__(self) -> None:
        if self.min_value is None and self.max_value is None:
            raise ValueError("a SignalSpec needs min_value or max_value")
        if not self.label:
            self.label = self.series

    def in_band(self, value: float) -> bool:
        if self.min_value is not None and value < self.min_value:
            return False
        if self.max_value is not None and value > self.max_value:
            return False
        return True

    def excursion(self, value: float) -> float:
        """Fractional distance beyond the violated band edge (0 in band)."""
        if self.min_value is not None and value < self.min_value:
            scale = abs(self.min_value) or 1.0
            return (self.min_value - value) / scale
        if self.max_value is not None and value > self.max_value:
            scale = abs(self.max_value) or 1.0
            return (value - self.max_value) / scale
        return 0.0


@dataclass
class Disturbance:
    """One labeled disturbance instant in the scenario."""

    time: float
    label: str


def settling_time(
    points: Sequence[Tuple[float, float]],
    spec: SignalSpec,
    t0: float,
    t1: float,
) -> Optional[float]:
    """Seconds after *t0* until the signal stays in band for ``hold_s``.

    Returns 0.0 if the signal never left the band after the disturbance,
    ``None`` if it never settled before *t1* (or there is no data).
    """
    window = cut_window(points, t0, t1)
    if not window:
        return None
    candidate: Optional[float] = None  # start of the current in-band run
    for t, v in window:
        if spec.in_band(v):
            if candidate is None:
                candidate = t
            if t - candidate >= spec.hold_s:
                return max(0.0, candidate - t0)
        else:
            candidate = None
    # An in-band run reaching the end of observation counts as settled
    # (the run may simply have ended before hold_s elapsed).
    if candidate is not None and window[-1][0] - candidate >= 0.0 \
            and t1 - candidate >= spec.hold_s:
        return max(0.0, candidate - t0)
    return None


def overshoot(
    points: Sequence[Tuple[float, float]],
    spec: SignalSpec,
    t0: float,
    t1: float,
) -> float:
    """Worst fractional excursion beyond the band in (t0, t1]."""
    window = cut_window(points, t0, t1)
    worst = 0.0
    for _t, v in window:
        worst = max(worst, spec.excursion(v))
    return worst


def slo_violation_seconds(
    points: Sequence[Tuple[float, float]],
    spec: SignalSpec,
    t0: float,
    t1: float,
) -> float:
    """Total seconds the signal spent out of band in (t0, t1].

    Sample-and-hold: each sample's state extends to the next sample (or
    to *t1* for the last one), so irregular sampling integrates
    correctly and the result is deterministic.
    """
    window = cut_window(points, t0, t1)
    if not window:
        return 0.0
    violated = 0.0
    for (t, v), (t_next, _v_next) in zip(window, window[1:]):
        if not spec.in_band(v):
            violated += t_next - t
    last_t, last_v = window[-1]
    if not spec.in_band(last_v):
        violated += max(0.0, t1 - last_t)
    return violated


class AdaptationScorecard:
    """Scores one run: per-signal SEAMS metrics + per-engine effort.

    Parameters
    ----------
    journal:
        The run's :class:`DecisionJournal` (may be ``None``: signal
        metrics still compute, decision metrics come out empty).
    metrics:
        The :class:`MetricsRegistry` holding the watched series.
    signals:
        The SLO band per watched series.
    disturbances:
        Labeled disturbance instants; settling time and overshoot are
        reported per (disturbance, signal) pair.
    """

    def __init__(
        self,
        journal=None,
        metrics=None,
        signals: Sequence[SignalSpec] = (),
        disturbances: Sequence[Disturbance] = (),
    ) -> None:
        self.journal = journal
        self.metrics = metrics
        self.signals = list(signals)
        self.disturbances = list(disturbances)

    # -- decision-side metrics ---------------------------------------------------
    def _oscillations(self, entries) -> int:
        """Antagonistic action pairs within the oscillation window."""
        count = 0
        by_engine: Dict[str, List] = {}
        for entry in entries:
            by_engine.setdefault(entry.engine, []).append(entry)
        for engine, engine_entries in by_engine.items():
            for action, inverse, subject_key in ANTAGONISTS.get(engine, ()):
                # Most recent time each subject saw `action`.
                last_seen: Dict[Any, float] = {}
                for entry in engine_entries:
                    subject = (entry.detail.get(subject_key)
                               if subject_key else "")
                    if entry.action == action:
                        last_seen[subject] = entry.time
                    elif entry.action == inverse:
                        seen = last_seen.get(subject)
                        if (seen is not None
                                and entry.time - seen
                                <= OSCILLATION_WINDOW_S):
                            count += 1
        return count

    def engine_report(self, t0: float, t1: float) -> Dict[str, Dict[str, Any]]:
        """Per-engine decision effort over (t0, t1]."""
        if self.journal is None:
            return {}
        self.journal.resolve_effects()
        span_min = max(1e-9, (t1 - t0) / 60.0)
        out: Dict[str, Dict[str, Any]] = {}
        for engine in self.journal.engines():
            entries = [e for e in self.journal.for_engine(engine)
                       if t0 < e.time <= t1]
            if not entries:
                continue
            latencies = [e.latency_s for e in entries
                         if e.latency_s is not None]
            ttes: List[float] = []
            for entry in entries:
                if not entry.effect:
                    continue
                for vals in entry.effect.values():
                    tte = vals.get("time_to_effect_s")
                    if tte is not None:
                        ttes.append(tte)
            actions: Dict[str, int] = {}
            for entry in entries:
                actions[entry.action] = actions.get(entry.action, 0) + 1
            out[engine] = {
                "decisions": len(entries),
                "actions": actions,
                "churn_per_min": len(entries) / span_min,
                "oscillations": self._oscillations(entries),
                "mean_latency_s": (sum(latencies) / len(latencies)
                                   if latencies else None),
                "mean_time_to_effect_s": (sum(ttes) / len(ttes)
                                          if ttes else None),
            }
            planner = getattr(self.journal, "planner_of",
                              lambda _e: None)(engine)
            if planner is not None:
                out[engine]["planner"] = planner.get("name")
                out[engine]["planner_params"] = dict(
                    planner.get("params") or {})
        return out

    # -- signal-side metrics -----------------------------------------------------
    def signal_report(self, t0: float, t1: float) -> Dict[str, Dict[str, Any]]:
        """Per-signal SEAMS metrics over (t0, t1]."""
        out: Dict[str, Dict[str, Any]] = {}
        if self.metrics is None:
            return out
        for spec in self.signals:
            points = self.metrics.series(spec.series).points
            entry: Dict[str, Any] = {
                "series": spec.series,
                "band": [spec.min_value, spec.max_value],
                "samples": len(cut_window(points, t0, t1)),
                "slo_violation_s": slo_violation_seconds(points, spec, t0, t1),
                "disturbances": {},
            }
            for disturbance in self.disturbances:
                if not (t0 <= disturbance.time <= t1):
                    continue
                entry["disturbances"][disturbance.label] = {
                    "at": disturbance.time,
                    "settling_s": settling_time(
                        points, spec, disturbance.time, t1),
                    "overshoot": overshoot(
                        points, spec, disturbance.time, t1),
                }
            out[spec.label] = entry
        return out

    # -- the scorecard -----------------------------------------------------------
    def compute(self, t0: float = 0.0, t1: Optional[float] = None) -> Dict[str, Any]:
        """The full scorecard dict for the observation span (t0, t1]."""
        if t1 is None:
            env = getattr(self.journal, "env", None)
            t1 = env.now if env is not None else 0.0
        signals = self.signal_report(t0, t1)
        engines = self.engine_report(t0, t1)
        total_violation = sum(s["slo_violation_s"] for s in signals.values())
        settlings = [
            d["settling_s"]
            for s in signals.values()
            for d in s["disturbances"].values()
            if d["settling_s"] is not None
        ]
        overshoots = [
            d["overshoot"]
            for s in signals.values()
            for d in s["disturbances"].values()
        ]
        return {
            "span": [t0, t1],
            "signals": signals,
            "engines": engines,
            "fleet": {
                "slo_violation_s": total_violation,
                "max_settling_s": max(settlings) if settlings else None,
                "max_overshoot": max(overshoots) if overshoots else 0.0,
                "decisions": sum(e["decisions"] for e in engines.values()),
                "oscillations": sum(e["oscillations"]
                                    for e in engines.values()),
            },
        }
