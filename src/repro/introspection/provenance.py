"""Adaptation provenance: the unified decision journal.

The self-* engines (paper §V) each keep a private ``decisions`` list,
which answers *what* the system did but not *why* or *to what effect*.
The :class:`DecisionJournal` is the missing causal record: every
:class:`~repro.adaptation.controller.AdaptationDecision` any
:class:`~repro.adaptation.controller.ControlLoop` executes is journaled
together with

- the **evidence** the engine consumed while planning (the windowed
  stats it read through the introspection
  :class:`~repro.introspection.query.QueryEngine` — each engine stashes
  them in ``ControlLoop.evidence`` as it computes them),
- the active **trace context** (trace/span id of the innermost open
  span, when tracing is enabled), and
- a post-decision **effect-attribution window**: for each watched
  metrics series the journal snapshots the windowed mean just before
  the decision and, once ``effect_window_s`` of simulated time has
  passed, the mean just after — yielding the measured delta and the
  time-to-effect (first sample that moved half of the eventual delta).

Replication :class:`~repro.robustness.replication.FailoverEvent`\\ s and
chaos invariant checks feed the same journal, so one timeline holds the
complete adaptation history of a run.

Determinism contract
--------------------
The journal is **observably inert** because it only reads: it never
schedules simulation events and never records a metric, and its windows
are cut by :meth:`TimeSeries.window
<repro.telemetry.metrics.TimeSeries.window>` — the same cut the
:class:`~repro.introspection.query.QueryEngine` answers the engines
from, which keeps no state about who asked.  Effect windows resolve
lazily, on access, from data already recorded.  A journal-on run is
byte-identical per seed to a journal-off run in every simulated
observable (asserted in ``tests/test_provenance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["JournalEntry", "DecisionJournal"]

#: Entry kinds.
DECISION = "decision"
FAILOVER = "failover"
INVARIANT = "invariant"


@dataclass
class JournalEntry:
    """One journaled adaptation event with its causal context."""

    seq: int
    time: float
    kind: str  # decision | failover | invariant
    engine: str
    action: str
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Windowed stats the engine consumed while planning this action.
    evidence: Dict[str, Any] = field(default_factory=dict)
    #: Trace context at record time (0 when tracing is disabled).
    trace_id: int = 0
    span_id: int = 0
    #: Wall-clock seconds the planner spent producing this decision.
    latency_s: Optional[float] = None
    #: Per-watched-series before/after attribution, filled once the
    #: effect window has elapsed: ``{series: {"before": .., "after": ..,
    #: "delta": .., "time_to_effect_s": ..}}``.
    effect: Optional[Dict[str, Dict[str, Optional[float]]]] = None
    #: Sim instant at which the effect window closes.
    effect_at: Optional[float] = None

    def __str__(self) -> str:
        bits = [f"[t={self.time:8.2f}] {self.engine:<14} {self.action}"]
        if self.detail:
            keys = sorted(self.detail)[:3]
            bits.append(" ".join(f"{k}={self.detail[k]}" for k in keys))
        if self.effect:
            deltas = ", ".join(
                f"{name.split('.')[-1]}Δ={vals['delta']:+.3g}"
                for name, vals in sorted(self.effect.items())
                if vals.get("delta") is not None
            )
            if deltas:
                bits.append(f"→ {deltas}")
        return "  ".join(bits)


class DecisionJournal:
    """Ring-buffered, causally-annotated record of every adaptation.

    Parameters
    ----------
    env:
        Environment supplying ``now`` and (optionally) the tracer whose
        open-span context decisions are stamped with.
    metrics:
        A :class:`~repro.telemetry.metrics.MetricsRegistry` to read
        watched series from for effect attribution.  ``None`` disables
        attribution (entries still record evidence + trace).
    capacity:
        Retained-entry bound.  Older entries are dropped (counted in
        :attr:`dropped`); :attr:`total` keeps the all-time count.
    effect_window_s:
        Width of both the pre-decision baseline window and the
        post-decision attribution window.
    """

    def __init__(
        self,
        env,
        metrics=None,
        capacity: int = 4096,
        effect_window_s: float = 20.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.metrics = metrics if metrics is not None else getattr(
            env, "metrics", None)
        self.capacity = capacity
        self.effect_window_s = effect_window_s
        self.entries: List[JournalEntry] = []
        self.total = 0
        self.dropped = 0
        #: engine name -> series names to attribute effects against.
        self._watched: Dict[str, Tuple[str, ...]] = {}
        #: engine name -> {"name": .., "params": {..}}: which decision
        #: technique produced that engine's entries (set automatically
        #: by ``ControlLoop.attach_journal`` via ``planner_info()``).
        self.planners: Dict[str, Dict[str, Any]] = {}
        #: Entries whose effect window has not yet been resolved.
        self._pending: List[JournalEntry] = []
        self._seq = 0

    # -- configuration -----------------------------------------------------------
    def watch(self, engine: str, series: Sequence[str]) -> "DecisionJournal":
        """Attribute *engine*'s decisions against these metrics series."""
        self._watched[engine] = tuple(series)
        return self

    def set_planner(self, engine: str, name: str,
                    params: Optional[Dict[str, Any]] = None) -> "DecisionJournal":
        """Record which planner (and parameters) drives *engine*."""
        self.planners[engine] = {"name": name, "params": dict(params or {})}
        return self

    def planner_of(self, engine: str) -> Optional[Dict[str, Any]]:
        return self.planners.get(engine)

    # -- recording ---------------------------------------------------------------
    def record_decision(
        self,
        decision,
        evidence: Optional[Dict[str, Any]] = None,
        latency_s: Optional[float] = None,
    ) -> JournalEntry:
        """Journal one executed :class:`AdaptationDecision`."""
        entry = self._new_entry(
            time=decision.time,
            kind=DECISION,
            engine=decision.engine,
            action=decision.action,
            detail=dict(decision.detail),
            evidence=dict(evidence) if evidence else {},
            latency_s=latency_s,
        )
        series = self._watched.get(decision.engine)
        if series and self.metrics is not None:
            entry.effect_at = entry.time + self.effect_window_s
            entry.effect = {
                name: {
                    "before": self._window_mean(
                        name, entry.time - self.effect_window_s, entry.time),
                    "after": None,
                    "delta": None,
                    "time_to_effect_s": None,
                }
                for name in series
            }
            self._pending.append(entry)
        return entry

    def record_failover(self, event) -> JournalEntry:
        """Journal a completed version-manager failover."""
        detail = {
            "epoch": event.epoch,
            "winner": event.winner,
            "old_primary": event.old_primary,
            "crashed_at": event.crashed_at,
            "confirmed_at": event.confirmed_at,
            "promoted_at": event.promoted_at,
        }
        latency = getattr(event, "failover_latency_s", None)
        if latency is not None:
            detail["failover_latency_s"] = latency
        return self._new_entry(
            time=getattr(event, "promoted_at", None) or self._now(),
            kind=FAILOVER,
            engine="vm-replication",
            action="failover",
            detail=detail,
        )

    def record_invariant(
        self, invariant: str, ok: bool, detail: Optional[Dict[str, Any]] = None,
        time: Optional[float] = None,
    ) -> JournalEntry:
        """Journal one chaos invariant check (violations and summaries)."""
        return self._new_entry(
            time=self._now() if time is None else time,
            kind=INVARIANT,
            engine="chaos",
            action=invariant,
            detail=dict(detail or {}, ok=ok),
        )

    def _new_entry(self, **kwargs) -> JournalEntry:
        self._seq += 1
        trace_id = span_id = 0
        tracer = getattr(self.env, "tracer", None)
        if tracer is not None and tracer.enabled:
            span = tracer.current()
            if span is not None:
                trace_id, span_id = span.trace_id, span.span_id
        entry = JournalEntry(seq=self._seq, trace_id=trace_id,
                             span_id=span_id, **kwargs)
        self.entries.append(entry)
        self.total += 1
        if len(self.entries) > self.capacity:
            overflow = len(self.entries) - self.capacity
            evicted = self.entries[:overflow]
            del self.entries[:overflow]
            self.dropped += overflow
            if self._pending:
                gone = set(id(e) for e in evicted)
                self._pending = [e for e in self._pending
                                 if id(e) not in gone]
        return entry

    # -- effect attribution ------------------------------------------------------
    def _window(self, name: str, lo: float, hi: float) -> List[Tuple[float, float]]:
        if self.metrics is None:
            return []
        return self.metrics.series(name).window(lo, hi)

    def _window_mean(self, name: str, lo: float, hi: float) -> Optional[float]:
        """Mean of series samples with ``lo < t <= hi`` (fsum)."""
        window = self._window(name, lo, hi)
        if not window:
            return None
        return fsum([v for _t, v in window]) / len(window)

    def _time_to_effect(
        self, name: str, t0: float, t1: float,
        before: float, after: float,
    ) -> Optional[float]:
        """First instant in (t0, t1] where the signal crossed halfway
        from its pre-decision mean to its post-window mean."""
        delta = after - before
        if delta == 0.0:
            return None
        halfway = before + 0.5 * delta
        for t, v in self._window(name, t0, t1):
            if (v >= halfway) if delta > 0 else (v <= halfway):
                return t - t0
        return None

    def resolve_effects(self, now: Optional[float] = None) -> int:
        """Fill in the effect of every entry whose window has elapsed.

        Lazy and read-only: called automatically by the accessors below,
        safe to call any number of times.  Returns how many entries were
        resolved this call.
        """
        now = self._now() if now is None else now
        if not self._pending:
            return 0
        resolved = 0
        still: List[JournalEntry] = []
        for entry in self._pending:
            if entry.effect_at is None or entry.effect_at > now:
                still.append(entry)
                continue
            assert entry.effect is not None
            for name, vals in entry.effect.items():
                after = self._window_mean(name, entry.time, entry.effect_at)
                vals["after"] = after
                before = vals["before"]
                if before is not None and after is not None:
                    vals["delta"] = after - before
                    vals["time_to_effect_s"] = self._time_to_effect(
                        name, entry.time, entry.effect_at, before, after)
            resolved += 1
        self._pending = still
        return resolved

    # -- accessors ---------------------------------------------------------------
    def _now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def tail(self, n: int = 10) -> List[JournalEntry]:
        """The most recent *n* retained entries (effects resolved)."""
        self.resolve_effects()
        return self.entries[-n:]

    def for_engine(self, engine: str) -> List[JournalEntry]:
        self.resolve_effects()
        return [e for e in self.entries if e.engine == engine]

    def engines(self) -> List[str]:
        return sorted({e.engine for e in self.entries})

    def __len__(self) -> int:
        return len(self.entries)
