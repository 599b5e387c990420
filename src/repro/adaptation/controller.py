"""MAPE-K control loop base for the self-* engines (paper §V).

All adaptation engines share the same skeleton: a periodic simulated
process that Monitors (via the introspection layer), Analyzes, Plans and
Executes, with shared Knowledge in the engine's own state.  Decisions
are logged so benches can report *when* and *why* the system adapted.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["AdaptationDecision", "ControlLoop"]


@dataclass
class AdaptationDecision:
    """One executed adaptation action."""

    time: float
    engine: str
    action: str
    detail: Dict[str, Any] = field(default_factory=dict)


class ControlLoop:
    """Periodic monitor→analyze→plan→execute loop.

    Subclasses implement :meth:`step`, which inspects the system and
    returns a list of decisions (possibly empty).  A cooldown suppresses
    oscillation: after any non-empty step, the loop holds off for
    ``cooldown_s``.

    Provenance: :attr:`decisions` is a **bounded** window — the newest
    ``max_decisions`` survive, :attr:`decisions_total` counts all-time —
    and each executed step resets :attr:`evidence`, a dict subclasses
    fill with the windowed stats they consulted while planning.  With a
    :class:`~repro.introspection.provenance.DecisionJournal` attached
    (:meth:`attach_journal`), every decision is journaled together with
    that evidence, the active trace context and the planner's wall-clock
    latency (also kept in :attr:`last_step_wall_s`; never written to the
    metrics registry, whose snapshots must stay byte-identical per seed).
    """

    name = "control-loop"

    def __init__(
        self,
        interval_s: float = 5.0,
        cooldown_s: float = 0.0,
        max_decisions: int = 2048,
    ) -> None:
        if max_decisions < 1:
            raise ValueError("max_decisions must be >= 1")
        self.interval_s = interval_s
        self.cooldown_s = cooldown_s
        #: Retained decision window (plain list: slicing keeps working).
        self.decisions: List[AdaptationDecision] = []
        self.max_decisions = max_decisions
        #: All-time executed-decision count (survives ring eviction).
        self.decisions_total = 0
        self.decisions_dropped = 0
        self._cooldown_until = -float("inf")
        self.enabled = True
        self.steps = 0
        #: Windowed stats consumed during the current/last executed step;
        #: reset before each step, filled by subclasses via :meth:`note`.
        self.evidence: Dict[str, Any] = {}
        #: Optional DecisionJournal recording decisions with provenance.
        self.journal = None
        #: Wall-clock seconds the most recent executed step took.
        self.last_step_wall_s: Optional[float] = None

    def attach_journal(self, journal) -> "ControlLoop":
        """Record every decision (with evidence) into *journal*.

        Also registers this engine's planner (name + parameters, from
        :meth:`planner_info`) with the journal, so scorecards and
        timeline exports can say *which* decision technique produced
        each engine's numbers.
        """
        self.journal = journal
        info = self.planner_info()
        if info and hasattr(journal, "set_planner"):
            journal.set_planner(self.name, info.get("name"),
                                info.get("params"))
        return self

    def planner_info(self) -> Optional[Dict[str, Any]]:
        """Name + parameters of this engine's decision technique.

        ``None`` (the base default) means unadvertised.
        :class:`~repro.decision.loop.DecisionLoop` engines report their
        attached planner, or the built-in law they override ``plan`` with.
        """
        return None

    def note(self, **evidence: Any) -> None:
        """Stash planning evidence for provenance (cheap, unconditional)."""
        self.evidence.update(evidence)

    def step(self, now: float) -> List[AdaptationDecision]:
        """Inspect + adapt; implemented by subclasses."""
        raise NotImplementedError

    def run(self, env):
        """Generator: start with ``env.process(loop.run(env))``."""
        while True:
            yield env.timeout(self.interval_s)
            if not self.enabled or env.now < self._cooldown_until:
                continue
            self.steps += 1
            self.evidence = {}
            started = _time.perf_counter()
            decisions = self.step(env.now)
            wall_s = _time.perf_counter() - started
            self.last_step_wall_s = wall_s
            if decisions:
                self.decisions.extend(decisions)
                self.decisions_total += len(decisions)
                if len(self.decisions) > self.max_decisions:
                    overflow = len(self.decisions) - self.max_decisions
                    del self.decisions[:overflow]
                    self.decisions_dropped += overflow
                self._cooldown_until = env.now + self.cooldown_s
                tracer = env.tracer
                metrics = env.metrics
                journal = self.journal
                for decision in decisions:
                    if tracer.enabled:
                        tracer.instant(
                            f"adapt.{decision.action}", track=self.name,
                            cat="adaptation", engine=decision.engine,
                            **{k: v for k, v in decision.detail.items()
                               if isinstance(v, (str, int, float, bool))},
                        )
                    if metrics is not None:
                        metrics.counter(
                            f"adaptation.{decision.action}"
                        ).inc()
                    if journal is not None:
                        journal.record_decision(
                            decision,
                            evidence=self.evidence,
                            latency_s=wall_s,
                        )

    def decisions_of(self, action: str) -> List[AdaptationDecision]:
        """Decisions with *action* in the retained window."""
        return [d for d in self.decisions if d.action == action]
