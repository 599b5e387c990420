"""The MAPE-K control loop every self-* engine runs on (paper §V).

All five engines — cache tuner, elasticity, replication, data removal
and self-protection — are one :class:`ControlLoop` with five control
laws: a periodic simulated process that Monitors and Analyzes (through
the introspection layer) and Plans in the engine's :meth:`~ControlLoop.plan`,
then Executes what the plan yields, every costed
:class:`~repro.decision.actions.Action` funded through the optional
:class:`~repro.decision.arbiter.Arbiter` before its ``apply`` hook runs.
The Knowledge is the engine's own state.  Decisions are logged so
benches can report *when* and *why* the system adapted.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..decision.actions import Action

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

    Subclasses implement :meth:`plan`, a generator of the actions this
    step takes.  :meth:`step` applies each action **as the plan yields
    it** (no batch barrier): a plan that reads the system after yielding
    a shrink sees the post-shrink state, and a replica dropped by one
    action frees the disk the next action's target pick can use.  An
    action the arbiter refuses to fund is not applied; one whose
    ``apply`` raises applied nothing, so its settled cost is refunded.
    A cooldown suppresses oscillation: after any step that applied an
    action, the loop holds off for ``cooldown_s``.

    Provenance: :attr:`decisions` is a **bounded** window — the newest
    ``max_decisions`` survive, :attr:`decisions_total` counts all-time —
    and each executed step resets :attr:`evidence`, a dict the plan
    fills (:meth:`note`) with the windowed stats it consulted.  With a
    :class:`~repro.introspection.provenance.DecisionJournal` attached
    (:meth:`attach_journal`), every decision is journaled together with
    that evidence, the active trace context and the step's wall-clock
    latency (never written to the metrics registry, whose snapshots must
    stay byte-identical per seed).
    """

    name = "control-loop"

    def __init__(
        self,
        interval_s: float = 5.0,
        cooldown_s: float = 0.0,
        arbiter=None,
        max_decisions: int = 2048,
    ) -> None:
        if max_decisions < 1:
            raise ValueError("max_decisions must be >= 1")
        self.interval_s = interval_s
        self.cooldown_s = cooldown_s
        #: Optional Arbiter; actions it refuses to fund are not applied.
        self.arbiter = arbiter
        #: Retained decision window (plain list: slicing keeps working).
        self.decisions: List[AdaptationDecision] = []
        self.max_decisions = max_decisions
        #: All-time executed-decision count (survives ring eviction).
        self.decisions_total = 0
        self.decisions_dropped = 0
        #: Actions the arbiter refused to fund.
        self.denied = 0
        self._cooldown_until = -float("inf")
        self.steps = 0
        #: Windowed stats consumed during the current/last executed step;
        #: reset before each step, filled by the plan via :meth:`note`.
        self.evidence: Dict[str, Any] = {}
        #: Optional DecisionJournal recording decisions with provenance.
        self.journal = None

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

        ``None`` (the base default) means unadvertised; an engine reports
        its attached planner, or the control law its ``plan`` implements.
        """
        return None

    def note(self, **evidence: Any) -> None:
        """Stash planning evidence for provenance (cheap, unconditional)."""
        self.evidence.update(evidence)

    def plan(self, now: float) -> Iterable[Action]:
        """Analyze + plan: yield this step's actions; each engine's law."""
        raise NotImplementedError

    def step(self, now: float) -> List[AdaptationDecision]:
        """Execute the plan: fund and apply each action as it is yielded."""
        arbiter = self.arbiter
        decisions: List[AdaptationDecision] = []
        for action in self.plan(now):
            if arbiter is not None and not arbiter.admit(action):
                self.denied += 1
                continue
            try:
                action.execute()
            except BaseException:
                # Nothing was applied: the debit must not stay on the ledger.
                if arbiter is not None:
                    arbiter.refund(action)
                raise
            decisions.append(action.decision(now))
        return decisions

    def run(self, env):
        """Generator: start with ``env.process(loop.run(env))``."""
        while True:
            yield env.timeout(self.interval_s)
            if env.now < self._cooldown_until:
                continue
            self.steps += 1
            self.evidence = {}
            started = _time.perf_counter()
            decisions = self.step(env.now)
            wall_s = _time.perf_counter() - started
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
