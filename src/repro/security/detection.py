"""Security Violation Detection Engine (paper §III-C).

"The Security Violation Detection Engine scans the User Activity
History in order to find the malicious behavior patterns defined by the
security policies.  When such an attack is detected, the Policy
Enforcement component is notified..."

The engine is a periodic scanner: every ``scan_interval_s`` the
self-protection loop (:class:`~repro.security.framework.PolicyScanLoop`)
calls :meth:`DetectionEngine.scan_once`, which evaluates every policy
against every client's recent window and returns the new violations;
the loop hands each to the Policy Enforcement component as a
``sanction`` action.  Detection delay in EXP-C3 is
therefore a *measured* composition of: instrumentation → monitoring
flush → repository write → history pull → scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .history import UserActivityHistory
from .policy import MetricCondition, Policy
from .trust import TrustManager

__all__ = ["Violation", "DetectionEngine"]


@dataclass
class Violation:
    """One detected policy violation."""

    time: float
    client_id: str
    policy: Policy
    #: How often this (client, policy) pair has fired, including this one.
    occurrence: int = 1


class DetectionEngine:
    """Periodic scanner over the user activity history."""

    def __init__(
        self,
        history: UserActivityHistory,
        policies: Sequence[Policy],
        scan_interval_s: float = 5.0,
        trust: Optional[TrustManager] = None,
        refire_holdoff_s: float = 30.0,
        confirmations: int = 1,
    ) -> None:
        self.history = history
        self.policies = list(policies)
        self.scan_interval_s = scan_interval_s
        self.trust = trust
        #: After firing, a (client, policy) pair is silenced for this long
        #: so enforcement isn't re-notified every scan.
        self.refire_holdoff_s = refire_holdoff_s
        #: A violation must hold for this many *consecutive* scans before
        #: it fires — false-positive protection that also shapes the
        #: detection-delay distribution of EXP-C3.
        self.confirmations = max(1, int(confirmations))
        self._streak: Dict[Tuple[str, str], int] = {}
        self.violations: List[Violation] = []
        self._last_fired: Dict[Tuple[str, str], float] = {}
        self._fire_counts: Dict[Tuple[str, str], int] = {}
        self.scans = 0

    # -- scanning -------------------------------------------------------------------
    def scan_once(self, now: float) -> List[Violation]:
        """Evaluate all policies for all clients; returns new violations."""
        self.scans += 1
        found: List[Violation] = []
        for client_id in self.history.clients():
            for policy in self.policies:
                key = (client_id, policy.name)
                last = self._last_fired.get(key)
                if last is not None and now - last < self.refire_holdoff_s:
                    continue
                if self._evaluate(policy, client_id, now):
                    streak = self._streak.get(key, 0) + 1
                    self._streak[key] = streak
                    if streak < self.confirmations:
                        continue
                    self._streak[key] = 0
                    count = self._fire_counts.get(key, 0) + 1
                    self._fire_counts[key] = count
                    self._last_fired[key] = now
                    violation = Violation(now, client_id, policy, occurrence=count)
                    found.append(violation)
                    self.violations.append(violation)
                else:
                    self._streak[key] = 0
        return found

    def _evaluate(self, policy: Policy, client_id: str, now: float) -> bool:
        """Policy evaluation with trust-adaptive thresholds.

        When a trust manager is present, metric thresholds shrink for
        low-trust clients (the paper's "adaptive security policies
        specifically tuned for the history of each user").
        """
        if self.trust is None:
            return policy.evaluate(self.history, client_id, now)
        factor = self.trust.threshold_factor(client_id, now)
        if factor >= 0.999:
            return policy.evaluate(self.history, client_id, now)
        scaled = _scale_policy(policy, factor)
        return scaled.evaluate(self.history, client_id, now)

    # -- reporting ------------------------------------------------------------------
    def first_detection(self, client_id: str) -> Optional[float]:
        for violation in self.violations:
            if violation.client_id == client_id:
                return violation.time
        return None


def _scale_policy(policy: Policy, factor: float) -> Policy:
    """A copy of *policy* whose upper-bound thresholds shrink by *factor*."""
    import copy

    scaled = copy.deepcopy(policy)
    _scale_node(scaled.condition, factor)
    return scaled


def _scale_node(node, factor: float) -> None:
    if isinstance(node, MetricCondition):
        # Only scale "greater-than" style thresholds: lower bounds ("<")
        # describe shapes (e.g. small mean size), not quotas.
        if node.op in (">", ">="):
            node.threshold *= factor
        return
    for child in getattr(node, "parts", []) or []:
        _scale_node(child, factor)
    inner = getattr(node, "inner", None)
    if inner is not None:
        _scale_node(inner, factor)
