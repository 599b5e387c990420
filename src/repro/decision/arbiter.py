"""Arbitration: priority bands over conserved resource ledgers.

When several control loops compete for one physical budget — cache
bytes vs. the memory footprint of the provider pool — local decisions
can be jointly infeasible even though each loop is individually correct.
The :class:`Arbiter` is the conserved-resource referee:

- every shared budget is a :class:`ResourceLedger` with a hard
  ``capacity``; engines hold non-negative allocations against it, and
  the ledger's invariant — ``used() <= capacity`` at every instant — is
  checked on every mutation (:meth:`ResourceLedger.assert_conserved`);
- engines register with a **priority band** (lower = more important;
  the paper's ordering puts self-protection and self-configuration above
  background self-optimization);
- a positive-cost action is **granted** only if the ledger has room.
  When it does not, and the requester outranks an engine holding
  reclaimable allocation, the arbiter **preempts**: it invokes the
  lower-band holder's registered ``reclaim`` hook, which physically
  frees resource (e.g. shrinks a cache) and returns the amount released.
  If the shortfall still stands the action is **denied** — never
  partially applied (multi-resource grants roll back on failure).

Everything is synchronous and deterministic: grants, denials and
preemptions happen inside the requesting loop's step, in submission
order, with no randomness — so arbitrated runs stay byte-identical per
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .actions import Action

__all__ = ["ResourceLedger", "Arbiter"]

#: reclaim hook: (resource, amount_needed) -> amount actually freed (MB…).
ReclaimHook = Callable[[str, float], float]

_EPS = 1e-9


@dataclass
class ResourceLedger:
    """One conserved budget and who currently holds how much of it."""

    name: str
    capacity: float
    holdings: Dict[str, float] = field(default_factory=dict)
    peak_used: float = 0.0

    def used(self) -> float:
        return sum(self.holdings.values())

    def free(self) -> float:
        return self.capacity - self.used()

    def holding(self, engine: str) -> float:
        return self.holdings.get(engine, 0.0)

    def _settle(self, engine: str, delta: float) -> None:
        held = self.holdings.get(engine, 0.0) + delta
        if held <= _EPS:
            self.holdings.pop(engine, None)
        else:
            self.holdings[engine] = held
        self.peak_used = max(self.peak_used, self.used())
        self.assert_conserved()

    def assert_conserved(self) -> None:
        used = self.used()
        if used > self.capacity + _EPS:
            raise AssertionError(
                f"ledger {self.name!r} overspent: used {used:.6f} "
                f"> capacity {self.capacity:.6f} ({dict(self.holdings)})"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "used": self.used(),
            "peak_used": self.peak_used,
            "holdings": {k: round(v, 6)
                         for k, v in sorted(self.holdings.items())},
        }


class Arbiter:
    """Grants, denies, or preempts actions against conserved ledgers."""

    def __init__(self, env=None, journal=None) -> None:
        self.env = env
        #: Optional DecisionJournal: preemptions land on the timeline.
        self.journal = journal
        self.ledgers: Dict[str, ResourceLedger] = {}
        self._bands: Dict[str, int] = {}
        self._reclaims: Dict[str, ReclaimHook] = {}
        self.grants = 0
        self.denials = 0
        #: (time, requester, holder, resource, amount_freed) per preemption.
        self.preemptions: List[Tuple[float, str, str, str, float]] = []
        #: (time, engine, action, resource, shortfall) per denial.
        self.denied_log: List[Tuple[float, str, str, str, float]] = []

    # -- configuration -----------------------------------------------------------
    def ledger(self, name: str, capacity: Optional[float] = None) -> ResourceLedger:
        """Get (and with *capacity*, create) the ledger for *name*."""
        existing = self.ledgers.get(name)
        if existing is None:
            if capacity is None:
                raise KeyError(f"no ledger {name!r} (pass capacity to create)")
            existing = ResourceLedger(name, float(capacity))
            self.ledgers[name] = existing
        elif capacity is not None:
            existing.capacity = float(capacity)
            existing.assert_conserved()
        return existing

    def register(self, engine: str, band: int = 1,
                 reclaim: Optional[ReclaimHook] = None) -> "Arbiter":
        """Enroll *engine* in a priority band (lower = more important)."""
        self._bands[engine] = int(band)
        if reclaim is not None:
            self._reclaims[engine] = reclaim
        return self

    def band(self, engine: str) -> int:
        return self._bands.get(engine, 1)

    def assume(self, engine: str, resource: str, amount: float) -> "Arbiter":
        """Seed *engine*'s pre-existing allocation (initial capacities)."""
        if amount < 0:
            raise ValueError("assumed allocation must be >= 0")
        self.ledgers[resource]._settle(engine, amount)
        return self

    # -- arbitration -------------------------------------------------------------
    def _now(self) -> float:
        return self.env.now if self.env is not None else 0.0

    def _preempt(self, requester: str, resource: str,
                 shortfall: float) -> float:
        """Reclaim up to *shortfall* from lower-band holders; returns freed."""
        ledger = self.ledgers[resource]
        requester_band = self.band(requester)
        # Lowest-priority holders give way first; name breaks ties so the
        # victim order is deterministic.
        holders = sorted(
            (h for h in ledger.holdings
             if h != requester and self.band(h) > requester_band
             and h in self._reclaims),
            key=lambda h: (-self.band(h), h),
        )
        freed_total = 0.0
        for holder in holders:
            if freed_total >= shortfall - _EPS:
                break
            want = min(shortfall - freed_total, ledger.holding(holder))
            if want <= _EPS:
                continue
            freed = float(self._reclaims[holder](resource, want))
            if freed <= _EPS:
                continue
            freed = min(freed, ledger.holding(holder))
            ledger._settle(holder, -freed)
            freed_total += freed
            event = (self._now(), requester, holder, resource, freed)
            self.preemptions.append(event)
            if self.journal is not None:
                from ..adaptation.controller import AdaptationDecision

                self.journal.record_decision(AdaptationDecision(
                    event[0], "arbiter", "preempt",
                    {"for": requester, "from": holder,
                     "resource": resource, "freed": round(freed, 6)},
                ))
        return freed_total

    def admit(self, action: Action) -> bool:
        """Settle *action*'s cost; True = granted (caller may apply it).

        Credits (negative costs) always settle.  Debits settle only if
        the ledger has room, after preemption from lower-priority
        holders.  Multi-resource actions are atomic: a failed debit
        rolls back every resource already settled for this action.  A
        grant records what it moved in ``action.settled`` so that
        :meth:`refund` can reverse exactly that.
        """
        action.settled = []
        for resource in sorted(action.cost):
            amount = action.cost[resource]
            ledger = self.ledgers.get(resource)
            if ledger is None or abs(amount) <= _EPS:
                continue
            if amount < 0:
                release = min(-amount, ledger.holding(action.engine))
                ledger._settle(action.engine, -release)
                action.settled.append((resource, -release))
                continue
            if ledger.free() < amount - _EPS:
                self._preempt(action.engine, resource,
                              amount - ledger.free())
            if ledger.free() < amount - _EPS:
                shortfall = amount - ledger.free()
                self.denials += 1
                self.denied_log.append((
                    self._now(), action.engine, action.name, resource,
                    shortfall,
                ))
                self.refund(action)
                return False
            ledger._settle(action.engine, amount)
            action.settled.append((resource, amount))
        self.grants += 1
        return True

    def refund(self, action: Action) -> None:
        """Reverse what :meth:`admit` settled for *action* — a debit
        that could not complete, or a grant whose ``apply`` raised."""
        for resource, amount in reversed(action.settled):
            self.ledgers[resource]._settle(action.engine, -amount)
        action.settled = []

    # -- reporting ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "grants": self.grants,
            "denials": self.denials,
            "preemptions": len(self.preemptions),
            "ledgers": {name: ledger.to_dict()
                        for name, ledger in sorted(self.ledgers.items())},
            "bands": dict(sorted(self._bands.items())),
        }
