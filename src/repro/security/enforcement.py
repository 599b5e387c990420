"""Policy Enforcement component (paper §III-C).

"The Policy Enforcement component is responsible for making a decision
based on the state of the system and on the impact of the attempted
attack on the typical performance of the system.  Such decisions range
from preventing the user from further accessing the system to logging
the illegal usage into the activity history."

Decisions combine three inputs: the policy's declared actions, the
client's trust value, and current system pressure (load factor supplied
by the introspection layer).  The decision is applied to an
:class:`EnforcementTarget` — for BlobSeer, blocking updates the access
table *and* aborts the attacker's in-flight transfers, which is what
makes the throughput of correct clients recover in EXP-C1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol

from .detection import Violation
from .policy import Action, Severity
from .trust import TrustManager

__all__ = [
    "EnforcementTarget",
    "Sanction",
    "PolicyEnforcement",
    "BlobSeerEnforcementTarget",
]


class EnforcementTarget(Protocol):
    """System-side effector the enforcement component drives."""

    def block(self, client_id: str, reason: str) -> None: ...  # pragma: no cover
    def throttle(self, client_id: str, cap_mbps: float) -> None: ...  # pragma: no cover


@dataclass
class Sanction:
    """One enforcement decision, as applied."""

    time: float
    client_id: str
    policy_name: str
    action: Action
    detail: str = ""


class PolicyEnforcement:
    """Decision maker + effector driver."""

    def __init__(
        self,
        target: EnforcementTarget,
        trust: Optional[TrustManager] = None,
        throttle_cap_mbps: float = 5.0,
        load_probe: Optional[Callable[[], float]] = None,
    ) -> None:
        self.target = target
        self.trust = trust
        self.throttle_cap_mbps = throttle_cap_mbps
        #: 0..1 system pressure; above 0.8 decisions escalate one step.
        self.load_probe = load_probe or (lambda: 0.0)
        self.sanctions: List[Sanction] = []
        self.log: List[str] = []

    # -- the decision function -------------------------------------------------------
    def decide(self, violation: Violation) -> Action:
        """Pick the action for a violation.

        Base action = strongest the policy allows, tempered by trust:
        trusted first-time offenders get the mildest listed action;
        low-trust or repeat offenders get the strongest.  High system
        pressure escalates one step (the "impact on typical
        performance" clause).
        """
        actions = sorted(violation.policy.actions, key=_action_rank)
        mildest, strongest = actions[0], actions[-1]
        now = violation.time

        if self.trust is not None:
            escalation = self.trust.recommended_escalation(violation.client_id, now)
        else:
            escalation = "block" if violation.policy.severity >= Severity.CRITICAL else "throttle"

        if violation.occurrence > 1:
            choice = strongest
        elif escalation == "block":
            choice = strongest
        elif escalation == "throttle":
            choice = _at_least(actions, Action.THROTTLE)
        else:
            choice = mildest

        # System under pressure: escalate one step.
        if self.load_probe() > 0.8:
            choice = _escalate(choice)
        # Never exceed what the policy allows, except LOG->ALERT is free.
        if _action_rank(choice) > _action_rank(strongest):
            choice = strongest
        return choice

    # -- application ------------------------------------------------------------------
    def apply(self, violation: Violation) -> Sanction:
        action = self.decide(violation)
        client = violation.client_id
        now = violation.time
        detail = ""
        if action is Action.BLOCK:
            self.target.block(client, reason=violation.policy.name)
            detail = "blocked"
        elif action is Action.THROTTLE:
            self.target.throttle(client, self.throttle_cap_mbps)
            detail = f"throttled to {self.throttle_cap_mbps} MB/s"
        elif action is Action.ALERT:
            detail = "alert raised"
        else:
            detail = "logged"
        if self.trust is not None:
            self.trust.punish(client, violation.policy.severity, now)
        sanction = Sanction(now, client, violation.policy.name, action, detail)
        self.sanctions.append(sanction)
        self.log.append(
            f"[{now:8.2f}s] {client}: {violation.policy.name} -> {action.value} ({detail})"
        )
        return sanction

    # -- reporting ---------------------------------------------------------------------
    def blocked_clients(self) -> List[str]:
        active = []
        for sanction in self.sanctions:
            if sanction.action is Action.BLOCK:
                if sanction.client_id not in active:
                    active.append(sanction.client_id)
        return active


_RANKS = {Action.LOG: 0, Action.ALERT: 1, Action.THROTTLE: 2, Action.BLOCK: 3}


def _action_rank(action: Action) -> int:
    return _RANKS[action]


def _escalate(action: Action) -> Action:
    order = [Action.LOG, Action.ALERT, Action.THROTTLE, Action.BLOCK]
    index = min(len(order) - 1, _RANKS[action] + 1)
    return order[index]


def _at_least(allowed: List[Action], floor: Action) -> Action:
    """Weakest allowed action that is at least *floor* (else strongest)."""
    for action in sorted(allowed, key=_action_rank):
        if _action_rank(action) >= _action_rank(floor):
            return action
    return sorted(allowed, key=_action_rank)[-1]


class BlobSeerEnforcementTarget:
    """Effector wired into a BlobSeer deployment.

    Blocking a client updates the deployment's access table (rejecting
    future operations) and aborts the client's in-flight data transfers,
    which immediately releases the bandwidth it was consuming.
    """

    def __init__(self, access_table, network) -> None:
        self.access_table = access_table
        self.network = network

    def block(self, client_id: str, reason: str) -> None:
        self.access_table.block(client_id, reason)
        self.network.abort_matching(
            lambda flow: flow.tag == client_id, reason=f"blocked: {reason}"
        )

    def throttle(self, client_id: str, cap_mbps: float) -> None:
        self.access_table.throttle(client_id, cap_mbps)
