"""Policy Management module: the assembled security framework.

Wires the three components of §III-C (policy definition, violation
detection, enforcement) plus the trust manager of §V onto a monitored
BlobSeer deployment, and runs the whole thing as simulated processes so
detection delays are end-to-end measurements.

Self-protection is a MAPE-K engine like the others: the periodic scan
is a :class:`PolicyScanLoop` (a
:class:`~repro.adaptation.controller.ControlLoop`) whose plan yields one
``sanction`` action per new violation, and applying that action is the
enforcement.  So every sanction is a decision in the loop's ring, on
the ``adapt.*`` trace track, in the ``adaptation.*`` counters and — with
a journal attached — on the shared provenance timeline with its
policy/occurrence/trust evidence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from ..adaptation.controller import ControlLoop
from ..decision.actions import Action
from .detection import DetectionEngine, Violation
from .enforcement import BlobSeerEnforcementTarget, PolicyEnforcement
from .history import IntrospectionActivitySource, UserActivityHistory
from .policy import Policy
from .trust import TrustManager

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.access import AccessTable
    from ..blobseer.deployment import BlobSeerDeployment
    from ..monitoring.pipeline import MonitoringStack

__all__ = ["SecurityConfig", "PolicyScanLoop", "PolicyManagement"]

#: How much user activity the framework's history keeps.
HISTORY_RETENTION_S = 600.0


@dataclass
class SecurityConfig:
    """Timing + behaviour knobs of the policy-management loop."""

    scan_interval_s: float = 5.0
    history_pull_interval_s: float = 2.0
    confirmations: int = 1


class PolicyScanLoop(ControlLoop):
    """The self-protection loop: one policy scan per interval.

    Each new violation :meth:`DetectionEngine.scan_once` returns is
    yielded as a ``sanction`` action whose ``apply`` is
    :meth:`PolicyEnforcement.apply`, in detection order.  Evaluation
    reads only the activity history and each client's own trust, so a
    sanction applied after the scan sees what it would have seen during
    it.
    """

    name = "security"

    def __init__(self, env, detection: DetectionEngine,
                 enforcement: PolicyEnforcement) -> None:
        super().__init__(interval_s=detection.scan_interval_s)
        self.env = env
        self.detection = detection
        self.enforcement = enforcement

    def planner_info(self) -> Dict[str, Any]:
        return {"name": "policy-scan", "params": {
            "scan_interval_s": self.detection.scan_interval_s,
            "confirmations": self.detection.confirmations,
            "refire_holdoff_s": self.detection.refire_holdoff_s,
        }}

    def plan(self, now: float) -> Iterable[Action]:
        tracer = self.env.tracer
        metrics = self.env.metrics
        for violation in self.detection.scan_once(now):
            client = violation.client_id
            if tracer.enabled:
                tracer.instant(
                    "security.violation", track="detection-engine",
                    cat="security", client=client,
                    policy=violation.policy.name,
                    occurrence=violation.occurrence,
                )
            if metrics is not None:
                metrics.counter("security.violations").inc()
            yield Action(
                "sanction", self.name, subject=client,
                detail={"client": client, "policy": violation.policy.name},
                apply=functools.partial(self.enforcement.apply, violation),
            )
            # Resumed once the sanction is applied: the trust it left.
            self.note(**{
                f"{client}.policy": violation.policy.name,
                f"{client}.occurrence": violation.occurrence,
                f"{client}.trust": round(self.enforcement.trust.trust_of(
                    client, violation.time), 6),
            })
        self.note(scans=self.detection.scans,
                  violations=len(self.detection.violations))


class PolicyManagement:
    """The complete self-protection stack for a BlobSeer deployment.

    Usage::

        access = AccessTable()
        deployment = BlobSeerDeployment(config, access=access)
        monitoring = MonitoringStack(deployment.testbed, mon_config)
        monitoring.attach(deployment)
        security = PolicyManagement(deployment, monitoring,
                                    policies=[dos_flood_policy()],
                                    access_table=access)
        security.start()
    """

    def __init__(
        self,
        deployment: BlobSeerDeployment,
        monitoring: MonitoringStack,
        policies: Sequence[Policy],
        access_table: AccessTable,
        config: Optional[SecurityConfig] = None,
    ) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.config = config or SecurityConfig()

        self.history = UserActivityHistory(retention_s=HISTORY_RETENTION_S)
        self.source = IntrospectionActivitySource(
            monitoring.repository,
            self.history,
            pull_interval_s=self.config.history_pull_interval_s,
        )
        self.trust = TrustManager()
        self.engine = DetectionEngine(
            self.history,
            policies,
            scan_interval_s=self.config.scan_interval_s,
            trust=self.trust,
            confirmations=self.config.confirmations,
        )
        target = BlobSeerEnforcementTarget(access_table, deployment.net)
        self.enforcement = PolicyEnforcement(
            target,
            trust=self.trust,
            load_probe=self._system_load,
        )
        #: The scan loop: decisions, journal and planner info live here.
        self.loop = PolicyScanLoop(self.env, self.engine, self.enforcement)
        self._started = False

    def _system_load(self) -> float:
        """Aggregate provider NIC pressure, 0..1 (the "system state")."""
        providers = self.deployment.active_pmanager().active_providers()
        if not providers:
            return 0.0
        total = 0.0
        for provider in providers:
            total += provider.node.nic_utilization
        return total / len(providers)

    def attach_journal(self, journal) -> "PolicyManagement":
        """Journal every sanction (see :meth:`ControlLoop.attach_journal`)."""
        self.loop.attach_journal(journal)
        return self

    def start(self) -> None:
        """Launch the history-pull and policy-scan loops."""
        if self._started:
            return
        self._started = True
        self.env.process(self.source.run(self.env), name="security-history-pull")
        self.env.process(self.loop.run(self.env), name="security-scan")

    # -- reporting ----------------------------------------------------------------
    @property
    def violations(self) -> List[Violation]:
        return self.engine.violations

    def summary(self) -> dict:
        return {
            "history_events": len(self.history),
            "scans": self.engine.scans,
            "violations": len(self.engine.violations),
            "blocked": self.enforcement.blocked_clients(),
            "sanctions": len(self.enforcement.sanctions),
        }
