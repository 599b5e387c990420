"""DecisionLoop: the MAPE-K shell every self-* engine runs on.

A :class:`DecisionLoop` is a standard
:class:`~repro.adaptation.controller.ControlLoop` whose step is wired
from the framework's parts: a ``sense`` hook (Monitor — publish fresh
samples), a ``plan`` stage yielding costed
:class:`~repro.decision.actions.Action`\\ s (Analyze + Plan), and
arbitrated execution (Execute — every action is funded through the
:class:`~repro.decision.arbiter.Arbiter` before its ``apply`` hook
runs).  The plan is either an attached, swappable
:class:`~repro.decision.planners.Planner` over a knob domain (the cache
tuner) or the engine's own control law, written as a ``plan`` override
(elasticity's watermarks, replication's directory sweep,
self-protection's policy scan).  Because the shell *is* a ControlLoop,
every engine has the same provenance surface: cooldown, the bounded
decision ring, ``adapt.*`` trace
instants, ``adaptation.*`` counters, and journaling via
:meth:`attach_journal`, which also registers the planner's name and
parameters so the scorecard can report *which* technique produced each
engine's quality numbers.

Actions are applied **as the plan yields them** (no batch barrier): a
generator plan that reads the system after yielding a shrink sees the
post-shrink state, and a replica dropped by one action frees the disk
the next action's target pick can use.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from ..adaptation.controller import AdaptationDecision, ControlLoop
from .actions import Action
from .planners import Planner

__all__ = ["DecisionLoop"]


class DecisionLoop(ControlLoop):
    """ControlLoop whose step is sense → plan → arbitrated execute."""

    name = "decision-loop"

    def __init__(
        self,
        planner: Optional[Planner] = None,
        domain=None,
        arbiter=None,
        interval_s: float = 5.0,
        cooldown_s: float = 0.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(interval_s=interval_s, cooldown_s=cooldown_s,
                         **kwargs)
        self.planner = planner
        self.domain = domain
        #: Optional Arbiter; actions it refuses to fund are not applied.
        self.arbiter = arbiter
        self.applied = 0
        self.denied = 0

    # -- framework hooks ---------------------------------------------------------
    def sense(self, now: float) -> None:
        """Monitor stage: publish fresh samples before planning."""

    def plan(self, now: float) -> Iterable[Action]:
        """Plan stage; defaults to the attached planner."""
        if self.planner is None:
            return ()
        return self.planner.plan(self, now)

    def planner_info(self) -> Optional[Dict[str, Any]]:
        if self.planner is None:
            return None
        return self.planner.info()

    # -- execution ---------------------------------------------------------------
    def submit(self, action: Action, now: float) -> Optional[AdaptationDecision]:
        """Fund and apply one action; None if the arbiter denied it."""
        if self.arbiter is not None and not self.arbiter.admit(action):
            self.denied += 1
            return None
        try:
            action.execute()
        except BaseException:
            # Nothing was applied: the debit must not stay on the ledger.
            if self.arbiter is not None:
                self.arbiter.refund(action)
            raise
        self.applied += 1
        return action.decision(now)

    def step(self, now: float) -> List[AdaptationDecision]:
        self.sense(now)
        decisions: List[AdaptationDecision] = []
        # Consume lazily: each action is funded and applied before the
        # plan resumes, so the plan observes post-apply state.
        for action in self.plan(now):
            decision = self.submit(action, now)
            if decision is not None:
                decisions.append(decision)
        return decisions
