"""Trust management module (paper §V, self-protection direction).

"...a Trust management module, which will dynamically compute a trust
value for each user based on his past actions and on the real-time
system state.  The trust values will enable the system to support
adaptive security policies specifically tuned for the history of each
user."

Trust lives in [0, 1].  Violations cut it multiplicatively (scaled by
severity); sustained good behaviour recovers it linearly over time.
Two adaptive mechanisms consume it:

- **threshold scaling** — policies get stricter for low-trust users
  (``threshold_factor``), so repeat offenders trip earlier;
- **action escalation** — the enforcement component picks harsher
  actions for low-trust users (see ``enforcement.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .policy import Severity

__all__ = ["TrustRecord", "TrustManager"]

#: Multiplicative penalty per violation, by severity.
_PENALTY = {
    Severity.INFO: 0.95,
    Severity.WARNING: 0.8,
    Severity.SERIOUS: 0.5,
    Severity.CRITICAL: 0.25,
}
#: Trust never falls below this, so recovery always has a base to grow from.
_FLOOR = 0.01
#: Escalation bands: below the first a violation is answered with a
#: block, below the second with a throttle, otherwise with a log entry.
_BLOCK_BELOW = 0.2
_THROTTLE_BELOW = 0.5


@dataclass
class TrustRecord:
    client_id: str
    trust: float
    last_update: float
    violations: int = 0
    log: List[Tuple[float, str, float]] = field(default_factory=list)


class TrustManager:
    """Per-client trust values with decay-on-violation / recover-over-time."""

    def __init__(
        self,
        initial_trust: float = 0.8,
        recovery_per_s: float = 0.002,
    ) -> None:
        self.initial_trust = initial_trust
        self.recovery_per_s = recovery_per_s
        self._records: Dict[str, TrustRecord] = {}

    def record(self, client_id: str, now: float) -> TrustRecord:
        entry = self._records.get(client_id)
        if entry is None:
            entry = TrustRecord(client_id, self.initial_trust, now)
            self._records[client_id] = entry
        return entry

    def trust_of(self, client_id: str, now: float) -> float:
        """Current trust, applying time-based recovery lazily."""
        entry = self.record(client_id, now)
        elapsed = max(0.0, now - entry.last_update)
        if elapsed > 0:
            entry.trust = min(1.0, entry.trust + elapsed * self.recovery_per_s)
            entry.last_update = now
        return entry.trust

    def punish(self, client_id: str, severity: Severity, now: float) -> float:
        """Apply a violation penalty; returns the new trust."""
        trust = self.trust_of(client_id, now)  # applies pending recovery first
        entry = self._records[client_id]
        entry.trust = max(_FLOOR, trust * _PENALTY[severity])
        entry.violations += 1
        entry.last_update = now
        entry.log.append((now, severity.name, entry.trust))
        return entry.trust

    # -- adaptive hooks ----------------------------------------------------------
    def threshold_factor(self, client_id: str, now: float) -> float:
        """Scale factor for policy thresholds: 1.0 at full trust, down to
        0.25 at zero trust (low-trust users trip policies 4x earlier)."""
        trust = self.trust_of(client_id, now)
        return 0.25 + 0.75 * trust

    def recommended_escalation(self, client_id: str, now: float) -> str:
        """"block" | "throttle" | "log" depending on current trust."""
        trust = self.trust_of(client_id, now)
        if trust < _BLOCK_BELOW:
            return "block"
        if trust < _THROTTLE_BELOW:
            return "throttle"
        return "log"

    def all_records(self) -> List[TrustRecord]:
        return list(self._records.values())
