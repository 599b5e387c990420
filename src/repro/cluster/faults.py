"""Failure injection for availability experiments.

Used by the self-optimization (replication) and failure-detection
benches: crash storage nodes on a schedule or stochastically, optionally
recover them later, partition the network, degrade NICs (gray failures)
or drop messages probabilistically — all driven by the testbed's seeded
RNG streams, so a fault schedule replays bit-for-bit per seed.

Crash/recovery bookkeeping is epoch-guarded: crashing an already-dead
node is a no-op that does *not* schedule a spurious recovery, and
duplicate ``crash_recovery_later`` calls for the same crash coalesce, so
the :class:`FaultEvent` log is always a consistent alternating sequence
per node.

Network-level faults (partitions, message loss, latency-degrading gray
failures) install the injector as the :class:`FlowNetwork`'s fault-model
hook *lazily* — pure crash/recovery schedules leave the network's hot
path untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .node import PhysicalNode
from .testbed import Testbed

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.network import NetNode

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass
class FaultEvent:
    """Record of one injected fault (for post-run analysis)."""

    time: float
    node: str
    kind: str  # "crash" | "recover" | "partition" | "heal" | "degrade" | "restore"


class FaultInjector:
    """Schedules node crashes/recoveries and network faults in a testbed."""

    def __init__(self, testbed: Testbed) -> None:
        self.testbed = testbed
        self.env = testbed.env
        self.rng = testbed.rng.stream("faults")
        self.log: List[FaultEvent] = []
        #: Times this injector crashed each node (recovery-race guard).
        self._crash_epoch: Dict[str, int] = {}
        #: node name -> crash epoch a recovery is already scheduled for.
        self._pending_recovery: Dict[str, int] = {}
        #: Active partitions: id -> set of node names cut off from the rest.
        self._partitions: Dict[int, Set[str]] = {}
        self._partition_seq = itertools.count(1)
        #: Declarative-schedule partition labels -> partition id.
        self._labels: Dict[str, int] = {}
        #: Probabilistic message loss (0 = off); draws come from a
        #: dedicated sub-stream so enabling loss never perturbs the
        #: crash-schedule stream.
        self._loss_rate = 0.0
        self._loss_rng = None
        #: node name -> latency multiplier while its NIC is degraded.
        self._latency_factors: Dict[str, float] = {}
        #: node name -> (capacity_out, capacity_in) before degradation.
        self._nic_originals: Dict[str, Tuple[float, float]] = {}

    # -- deterministic schedules -------------------------------------------------
    def crash_at(self, node: PhysicalNode, at: float, recover_after: Optional[float] = None) -> None:
        """Crash *node* at absolute time *at*; optionally recover later."""
        self.env.process(self._crash_process(node, at, recover_after), name=f"fault-{node.name}")

    def _crash_process(self, node: PhysicalNode, at: float, recover_after: Optional[float]):
        delay = at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        crashed = self._do_crash(node)
        if recover_after is not None and crashed:
            # Only the crash we actually performed earns a recovery; a
            # node that was already dead belongs to someone else's
            # crash/recovery pair.
            epoch = self._crash_epoch[node.name]
            yield self.env.timeout(recover_after)
            self._do_recover(node, epoch)

    # -- stochastic failures ---------------------------------------------------
    def poisson_crashes(
        self,
        candidates: Sequence[PhysicalNode],
        rate_per_second: float,
        stop_at: float,
        recover_after: Optional[float] = None,
        max_crashes: Optional[int] = None,
    ) -> None:
        """Crash random candidates as a Poisson process until *stop_at*."""
        self.env.process(
            self._poisson_process(list(candidates), rate_per_second, stop_at, recover_after, max_crashes),
            name="fault-poisson",
        )

    def _poisson_process(self, candidates, rate, stop_at, recover_after, max_crashes):
        crashes = 0
        while self.env.now < stop_at:
            if max_crashes is not None and crashes >= max_crashes:
                return
            wait = float(self.rng.exponential(1.0 / rate))
            if self.env.now + wait > stop_at:
                return
            yield self.env.timeout(wait)
            alive = [n for n in candidates if n.alive]
            if not alive:
                return
            victim = alive[int(self.rng.integers(0, len(alive)))]
            self._do_crash(victim)
            crashes += 1
            if recover_after is not None:
                self.crash_recovery_later(victim, recover_after)

    def crash_recovery_later(self, node: PhysicalNode, delay: float) -> None:
        """Schedule one recovery for *node*'s current crash.

        Duplicate calls for the same crash coalesce (first wins), and a
        recovery never fires across crash epochs: if the node recovered
        and crashed again in the meantime, the stale timer is inert.
        """
        epoch = self._crash_epoch.get(node.name, 0)
        if self._pending_recovery.get(node.name) == epoch:
            return  # a recovery for this crash is already on the clock
        self._pending_recovery[node.name] = epoch

        def _recover():
            yield self.env.timeout(delay)
            if self._pending_recovery.get(node.name) == epoch:
                del self._pending_recovery[node.name]
            self._do_recover(node, epoch)

        self.env.process(_recover(), name=f"recover-{node.name}")

    # -- crash/recover primitives (epoch-guarded) --------------------------------
    def _do_crash(self, node: PhysicalNode) -> bool:
        if not node.alive:
            return False
        node.fail()
        self._crash_epoch[node.name] = self._crash_epoch.get(node.name, 0) + 1
        self.log.append(FaultEvent(self.env.now, node.name, "crash"))
        return True

    def _do_recover(self, node: PhysicalNode, epoch: int) -> bool:
        if self._crash_epoch.get(node.name, 0) != epoch or node.alive:
            return False
        node.recover()
        self.log.append(FaultEvent(self.env.now, node.name, "recover"))
        return True

    # -- network partitions ------------------------------------------------------
    def partition(
        self,
        nodes: Sequence[PhysicalNode | str],
        heal_after: Optional[float] = None,
        label: Optional[str] = None,
    ) -> int:
        """Cut *nodes* off from everyone else; returns a partition id.

        Messages crossing the cut are silently lost (black-holed) and
        in-flight transfers crossing it are aborted immediately, on both
        the reader and writer side.  Heal with :meth:`heal` or pass
        *heal_after* for automatic healing.
        """
        names = {n if isinstance(n, str) else n.name for n in nodes}
        if not names:
            raise ValueError("partition needs at least one node")
        self._ensure_hook()
        pid = next(self._partition_seq)
        self._partitions[pid] = names
        label = label or f"partition-{pid}"
        self.log.append(FaultEvent(self.env.now, label, "partition"))
        self.testbed.net.abort_matching(
            lambda f: (f.src.name in names) != (f.dst.name in names),
            reason=f"network {label}",
        )
        if heal_after is not None:
            def _heal():
                yield self.env.timeout(heal_after)
                self.heal(pid, label=label)

            self.env.process(_heal(), name=f"heal-{label}")
        return pid

    def partition_site(self, site: str, heal_after: Optional[float] = None) -> int:
        """Partition every testbed node at *site* from the other sites."""
        nodes = self.testbed.nodes_at(site)
        if not nodes:
            raise ValueError(f"no nodes at site {site!r}")
        return self.partition(nodes, heal_after=heal_after, label=f"partition-{site}")

    def heal(self, partition_id: int, label: Optional[str] = None) -> bool:
        """Remove a partition; idempotent (False if already healed)."""
        names = self._partitions.pop(partition_id, None)
        if names is None:
            return False
        self.log.append(FaultEvent(
            self.env.now, label or f"partition-{partition_id}", "heal"
        ))
        return True

    def active_partitions(self) -> int:
        return len(self._partitions)

    # -- gray failures -----------------------------------------------------------
    def degrade_nic(
        self,
        node: PhysicalNode,
        bandwidth_factor: float = 0.1,
        latency_factor: float = 1.0,
        duration_s: Optional[float] = None,
    ) -> None:
        """Gray failure: *node* stays alive but its NIC slows down.

        Bandwidth capacities are scaled by *bandwidth_factor* (in-flight
        flows re-converge immediately via water-filling); message latency
        through the node is multiplied by *latency_factor*.  Restore with
        :meth:`restore_nic` or pass *duration_s*.
        """
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")
        if node.name in self._nic_originals:
            raise ValueError(f"{node.name} is already degraded")
        netnode = node.netnode
        self._nic_originals[node.name] = (netnode.capacity_out, netnode.capacity_in)
        netnode.capacity_out *= bandwidth_factor
        netnode.capacity_in *= bandwidth_factor
        if latency_factor != 1.0:
            self._ensure_hook()
            self._latency_factors[node.name] = latency_factor
        self.testbed.net.refresh()
        self.log.append(FaultEvent(self.env.now, node.name, "degrade"))
        if duration_s is not None:
            def _restore():
                yield self.env.timeout(duration_s)
                self.restore_nic(node)

            self.env.process(_restore(), name=f"restore-{node.name}")

    def restore_nic(self, node: PhysicalNode) -> bool:
        """Undo :meth:`degrade_nic`; idempotent (False if not degraded)."""
        originals = self._nic_originals.pop(node.name, None)
        if originals is None:
            return False
        self._latency_factors.pop(node.name, None)
        if node.alive:
            # A crash/recovery cycle already rebuilt the NIC at full
            # capacity; re-asserting the originals is then a no-op.
            node.netnode.capacity_out, node.netnode.capacity_in = originals
            self.testbed.net.refresh()
        self.log.append(FaultEvent(self.env.now, node.name, "restore"))
        return True

    # -- probabilistic message loss ----------------------------------------------
    def set_message_loss(self, rate: float, stream: str = "faults.loss") -> None:
        """Drop each transfer with probability *rate* (0 disables).

        Draws come from the dedicated *stream* sub-stream, so the main
        fault schedule stays byte-identical whether loss is on or off.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self._loss_rate = rate
        if rate > 0.0:
            self._ensure_hook()
            if self._loss_rng is None:
                self._loss_rng = self.testbed.rng.stream(stream)

    # -- FlowNetwork fault-model hook ----------------------------------------------
    def _ensure_hook(self) -> None:
        net = self.testbed.net
        if net.fault_model is None:
            net.fault_model = self
        elif net.fault_model is not self:
            raise RuntimeError("another fault model is already installed")

    def on_transfer(self, src: NetNode, dst: NetNode) -> Optional[float]:
        """Consulted by the network on every transfer once armed.

        Returns None to swallow the message (partitioned or lost) or a
        latency multiplier (1.0 = untouched).
        """
        if self._partitions:
            src_name, dst_name = src.name, dst.name
            for names in self._partitions.values():
                if (src_name in names) != (dst_name in names):
                    return None
        if self._loss_rate > 0.0 and float(self._loss_rng.random()) < self._loss_rate:
            return None
        if self._latency_factors:
            return (
                self._latency_factors.get(src.name, 1.0)
                * self._latency_factors.get(dst.name, 1.0)
            )
        return 1.0

    # -- declarative schedules (plain dicts) ---------------------------------------
    #: Event kinds :meth:`apply_schedule` understands.
    SCHEDULE_KINDS = (
        "crash", "recover", "partition", "heal", "degrade", "restore",
        "message_loss",
    )

    def apply_schedule(self, events: Sequence[dict], resolve=None) -> int:
        """Arm a declarative fault schedule given as plain dicts.

        One format shared by the chaos harness, the benches and
        hand-written tests — JSON-serializable, so schedules can live in
        files or bench configs.  Each event is a dict with ``at``
        (absolute sim time), ``kind`` (one of :data:`SCHEDULE_KINDS`)
        and kind-specific fields::

            {"at": 10.0, "kind": "crash", "node": "vm-node",
             "recover_after": 20.0}                   # optional
            {"at": 35.0, "kind": "recover", "node": "vm-node"}
            {"at": 12.0, "kind": "partition", "nodes": ["provider-0-node"],
             "heal_after": 8.0, "label": "rack-0"}    # both optional
            {"at": 30.0, "kind": "heal", "label": "rack-0"}
            {"at": 5.0, "kind": "degrade", "node": "provider-1-node",
             "bandwidth_factor": 0.1, "latency_factor": 4.0,
             "duration_s": 10.0}                      # gray NIC
            {"at": 40.0, "kind": "restore", "node": "provider-1-node"}
            {"at": 0.0, "kind": "message_loss", "rate": 0.02}

        Node names pass through *resolve* (name -> PhysicalNode) **at
        fire time**, so harnesses can register role aliases such as
        ``"vm-primary"`` that track failovers; the default resolver is a
        testbed lookup.  Returns the number of events armed.
        """
        if resolve is None:
            resolve = self.testbed.node
        armed = 0
        for event in events:
            kind = event.get("kind")
            if kind not in self.SCHEDULE_KINDS:
                raise ValueError(f"unknown fault-schedule kind {kind!r}")
            self.env.process(
                self._schedule_one(dict(event), resolve),
                name=f"fault-sched-{kind}",
            )
            armed += 1
        return armed

    def _schedule_one(self, event: dict, resolve):
        delay = float(event.get("at", 0.0)) - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        kind = event["kind"]
        if kind == "crash":
            node = resolve(event["node"])
            crashed = self._do_crash(node)
            if crashed and event.get("recover_after") is not None:
                self.crash_recovery_later(node, float(event["recover_after"]))
        elif kind == "recover":
            node = resolve(event["node"])
            self._do_recover(node, self._crash_epoch.get(node.name, 0))
        elif kind == "partition":
            nodes = [resolve(n) for n in event["nodes"]]
            label = event.get("label")
            pid = self.partition(
                nodes, heal_after=event.get("heal_after"), label=label
            )
            if label is not None:
                self._labels[label] = pid
        elif kind == "heal":
            pid = self._labels.pop(event["label"], None)
            if pid is not None:
                self.heal(pid, label=event["label"])
        elif kind == "degrade":
            self.degrade_nic(
                resolve(event["node"]),
                bandwidth_factor=float(event.get("bandwidth_factor", 0.1)),
                latency_factor=float(event.get("latency_factor", 1.0)),
                duration_s=event.get("duration_s"),
            )
        elif kind == "restore":
            self.restore_nic(resolve(event["node"]))
        elif kind == "message_loss":
            self.set_message_loss(
                float(event["rate"]), stream=event.get("stream", "faults.loss")
            )

    def export_log(self) -> List[dict]:
        """The fault log as schedule-shaped plain dicts.

        Crash/recover entries round-trip through :meth:`apply_schedule`
        (replaying one run's faults as the next run's schedule); the
        network-level entries are markers of what fired, for reports.
        """
        return [
            {"at": e.time, "kind": e.kind, "node": e.node} for e in self.log
        ]

    # -- reporting ----------------------------------------------------------------
    def crash_count(self) -> int:
        return sum(1 for e in self.log if e.kind == "crash")

    def recovery_count(self) -> int:
        return sum(1 for e in self.log if e.kind == "recover")

    def events_of(self, kind: str) -> List[FaultEvent]:
        return [e for e in self.log if e.kind == kind]
