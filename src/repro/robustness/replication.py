"""Replicated control plane: hot-standby version managers + warm-standby
provider manager.

The paper's architecture funnels every publish through one version
manager and every allocation through one provider manager; PR 2 made
their crashes *detectable* but not *survivable*.  This module closes the
gap with a deliberately small, deterministic replication protocol:

Version manager (hot standbys, sequenced log)
---------------------------------------------
- The primary appends every mutation (create / ticket / publish /
  abandon) to a **sequenced log** and ships the tail to each standby
  over the simulated network before acknowledging the client; a
  mutation commits only once a **majority** of replicas (counting the
  primary) holds it.  Standbys apply records as they arrive, so their
  :class:`~repro.blobseer.version_manager.VersionManager` state mirrors
  the primary's.
- **Epoch fencing**: every message carries the sender's epoch.  A
  replica never accepts log records or leadership claims from an epoch
  older than one it has promised, and a primary that learns of a higher
  epoch (or fails to reach a quorum) deposes itself.  Together with
  majority commit this yields at-most-one-*effective* primary: a stale
  primary may believe it leads, but it can no longer commit anything.
- **Failover**: each replica runs a
  :class:`~repro.robustness.detector.HeartbeatFailureDetector` over its
  peers.  When the primary is *confirmed* dead, the highest-replica-id
  among the replicas the candidate believes alive runs an election:
  prepare messages gather promises for ``epoch+1`` from a majority; the
  candidate adopts the **longest log under the highest epoch** seen in
  the promise set (Raft's criterion — any client-acked record lives on
  a majority, every majority intersects the promise set, so the chosen
  log contains every acknowledged write), replays it through the
  idempotent ``apply_*`` layer, burns still-in-flight tickets, and
  starts serving.
- **Catch-up**: the primary heartbeats its log tail to every standby;
  a rejoining (or diverged) standby fails the shipment's prefix digest,
  resets, and is re-fed the log in bounded batches.

Provider manager (warm standby, soft state)
-------------------------------------------
Allocation state is soft — it is reconstructed from what providers
re-register — so the standby holds *no* mirrored state.  On confirmed
primary death it round-trips a re-registration probe to every provider
and starts allocating from the responses.

Client-side handles
-------------------
Clients never hold a manager directly once a group exists: they hold a
:class:`PrimaryHandle` / :class:`ProviderManagerHandle`.  Both are one
failover loop (:class:`_FailoverHandle`): send the call — always under a
deadline — to the group member believed active; on a
:data:`FAILOVER_ERRORS` failure forget that member, back off (seeded),
find the active member again and retry, up to ``MAX_SWITCHES`` times.
The two differ only in how the active member is found: the version
manager's primary is cached and re-resolved by probing every replica
over the network (no oracle); the provider manager pair is asked
directly.

Every message exchange in this module — log shipment, prepare, log
pull, primary probe, re-registration probe — is one
:class:`~repro.blobseer.rpc.RoundTrip` attempt through :func:`_ask`,
the same primitive the managers' client-facing handlers use.

Everything here is opt-in: a deployment built with ``vm_replicas=1``
and ``pm_standby=False`` (the defaults) constructs none of these
objects and stays byte-identical per seed.

Protocol constants
------------------
Detector settings, shipment / election / probe deadlines, batch sizes
and the handles' retry budget are the module constants below, each
beside the comment that explains it.  No deployment, test, bench or
example ever tuned them, so they are not constructor arguments
(``tests/test_config_surface.py`` pins the four constructor signatures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..blobseer.errors import NoActivePrimary, NotActivePrimary, StaleEpoch
from ..blobseer.rpc import RETRYABLE_RPC_ERRORS, RoundTrip
from ..simulation.events import Event
from ..simulation.resources import Resource
from .detector import HeartbeatFailureDetector

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import PhysicalNode

__all__ = [
    "PRIMARY",
    "STANDBY",
    "CANDIDATE",
    "DETECT_PERIOD_S",
    "DETECT_TIMEOUT_S",
    "CONFIRM_MISSES",
    "FAILOVER_ERRORS",
    "LogRecord",
    "FailoverEvent",
    "VMReplica",
    "ReplicatedVersionManager",
    "PrimaryHandle",
    "WarmStandbyProviderManager",
    "ProviderManagerHandle",
]

PRIMARY = "primary"
STANDBY = "standby"
CANDIDATE = "candidate"

#: One peer failure detector setting for both replica groups.  Detection
#: latency is ~ timeout + (misses - 1) * period = 4 s.
DETECT_PERIOD_S = 1.0
DETECT_TIMEOUT_S = 3.0
CONFIRM_MISSES = 2
#: Log shipping: heartbeat / lease period, one shipment's deadline, and
#: records per shipment or pulled page (bounded catch-up).
HEARTBEAT_PERIOD_S = 1.0
SHIP_TIMEOUT_S = 3.0
CATCHUP_BATCH = 256
#: Elections (prepare and log-pull round trips; the no-primary watchdog).
ELECTION_TIMEOUT_S = 3.0
ELECTION_CHECK_PERIOD_S = 1.0
#: Provider-manager takeover: one re-registration probe per provider.
REREGISTER_TIMEOUT_S = 2.0
#: Client handles.  A handle call always runs under a timeout: waiting
#: forever on a crashed (black-holed) primary would never fail over.
RPC_TIMEOUT_S = 5.0
PROBE_TIMEOUT_S = 1.5
MAX_SWITCHES = 6
RESOLVE_ROUNDS = 8
BACKOFF_BASE_S = 0.2
BACKOFF_MAX_S = 2.0

#: What makes a client handle drop its cached primary and re-resolve.
FAILOVER_ERRORS = RETRYABLE_RPC_ERRORS + (NotActivePrimary,)


def _peer_detector(node: PhysicalNode, peers, on_confirm) -> HeartbeatFailureDetector:
    """Start *node*'s detector over its replica-group *peers*."""
    detector = HeartbeatFailureDetector(
        node,
        period_s=DETECT_PERIOD_S,
        timeout_s=DETECT_TIMEOUT_S,
        confirm_misses=CONFIRM_MISSES,
    )
    for peer in peers:
        detector.watch(peer)
    detector.on_confirm(on_confirm)
    detector.start()
    return detector


def _ask(net, asker: str, peer: PhysicalNode, timeout_s: float, serve: Callable):
    """Generator: one replication round trip — request leg, ``serve()``
    on the live peer, reply leg — as a single
    :class:`~repro.blobseer.rpc.RoundTrip` attempt.  Returns what
    *serve* returned, or None when a leg is lost or times out or the
    peer is dead on arrival: a probe has nobody to raise to.  Whatever
    *serve* itself raises (``StaleEpoch``) propagates."""
    trip = RoundTrip(net, asker, peer.name, "replication", timeout_s, host=peer)
    try:
        yield from trip.request()
    except RETRYABLE_RPC_ERRORS:
        return None
    answer = serve()
    try:
        yield from trip.reply()
    except RETRYABLE_RPC_ERRORS:
        return None
    return answer


@dataclass
class LogRecord:
    """One sequenced mutation in the replicated publish log."""

    seq: int
    epoch: int
    kind: str  # create | ticket | publish | abandon
    payload: dict


@dataclass
class FailoverEvent:
    """One completed version-manager failover (for BENCH-AVAIL)."""

    epoch: int
    winner: str
    old_primary: Optional[str]
    #: Actual crash instant of the old primary (measurement only).
    crashed_at: Optional[float]
    #: When the winner's detector confirmed the old primary dead.
    confirmed_at: Optional[float]
    #: When the winner started serving.
    promoted_at: float = 0.0

    @property
    def failover_latency_s(self) -> Optional[float]:
        """Detection -> new primary serving."""
        if self.confirmed_at is None:
            return None
        return self.promoted_at - self.confirmed_at

    @property
    def outage_s(self) -> Optional[float]:
        """Crash -> new primary serving (includes detection latency)."""
        if self.crashed_at is None:
            return None
        return self.promoted_at - self.crashed_at


class VMReplica:
    """One member of a replicated version-manager group.

    Wraps a :class:`~repro.blobseer.version_manager.VersionManager`
    (whose ``replicator`` attribute points back here) with the log,
    epoch bookkeeping and the protocol loops.
    """

    def __init__(self, group: "ReplicatedVersionManager", index: int, vm) -> None:
        self.group = group
        self.index = index
        self.vm = vm
        self.node: PhysicalNode = vm.node
        self.env = vm.env
        self.net = vm.net
        self.log: List[LogRecord] = []
        #: Replica 0 boots as primary of epoch 1; everyone has promised it.
        self.epoch = 1
        self.promised_epoch = 1
        self.role = PRIMARY if index == 0 else STANDBY
        self.known_primary: Optional[str] = group.names[0]
        #: Serialize commits (one quorum round in flight at a time).
        self._commit_lock = Resource(self.env, capacity=1)
        #: Highest contiguous seq each peer has acknowledged.
        self._peer_acked: Dict[str, int] = {}
        #: Serialize shipments per peer so acked bookkeeping never races.
        self._ship_locks: Dict[str, Resource] = {}
        self._electing = False
        self.detector: Optional[HeartbeatFailureDetector] = None
        self._rng = group.testbed.rng.stream(f"replication.vm.{self.name}")
        vm.replicator = self
        vm.passive = self.role != PRIMARY
        self.node.on_recover(self._on_recover)

    # -- identity ----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.node.name

    def serving(self) -> bool:
        """Is this replica the active primary, as far as it knows?"""
        return self.role == PRIMARY and self.node.alive

    def peers(self) -> List["VMReplica"]:
        return [r for r in self.group.replicas if r is not self]

    def _believed_alive(self, peer: "VMReplica") -> bool:
        return self.detector is None or self.detector.thinks_alive(peer.name)

    def last_epoch(self) -> int:
        return self.log[-1].epoch if self.log else 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Attach the peer detector and launch the protocol loops."""
        self.detector = _peer_detector(
            self.node, [p.node for p in self.peers()], self._on_peer_confirmed_dead
        )
        self.env.process(self._pump_loop(), name=f"vm-rep-pump-{self.name}")
        self.env.process(self._watchdog_loop(), name=f"vm-rep-watch-{self.name}")

    def _on_recover(self, _node: PhysicalNode) -> None:
        """Cold restart: all volatile state is gone; rejoin as a blank
        standby and let the primary's heartbeat stream refill the log."""
        self._reset_for_refeed()
        self.role = STANDBY
        self.epoch = 0
        self.promised_epoch = 0
        self.known_primary = None
        self._electing = False

    def _reset_for_refeed(self) -> None:
        """Divergence detected: drop state, keep epoch promises."""
        self.log = []
        self.vm.reset_state()
        self.vm.passive = True
        self._peer_acked = {}

    def _depose(self) -> None:
        """Stop serving (superseded epoch or lost quorum)."""
        if self.role == PRIMARY:
            self.role = STANDBY
            self.vm.passive = True
            if self.known_primary == self.name:
                self.known_primary = None

    def _append(self, epoch: int, kind: str, payload: dict) -> LogRecord:
        """Append the next sequenced record to the local log."""
        record = LogRecord(seq=len(self.log) + 1, epoch=epoch, kind=kind,
                           payload=payload)
        self.log.append(record)
        return record

    # -- commit path (called from the version manager) ---------------------
    def commit(self, kind: str, build_payload):
        """Generator: replicate one mutation to a majority, then apply.

        ``build_payload`` runs under the commit lock, so the payload's
        reads of version-manager state (next ids, offsets) are atomic
        with the log append.  On a quorum shortfall the record stays in
        the log *unapplied* and :class:`NotActivePrimary` is raised —
        the client never saw an ack, and whether the record survives is
        the next election's call.
        """
        request = self._commit_lock.request()
        if not request.processed:
            yield request
        try:
            if not self.serving():
                raise NotActivePrimary(self.name, self.role)
            payload = build_payload()
            record = self._append(self.epoch, kind, payload)
            acks = yield from self._replicate(record.seq)
            if acks + 1 < self.group.quorum:
                self._depose()
                raise NotActivePrimary(self.name, "quorum-lost")
            self.vm.apply_record(kind, payload)
            return payload
        finally:
            self._commit_lock.release(request)

    def log_abandon(self, blob_id: int, version: int) -> None:
        """Synchronous append of an abandon record (already applied by
        the caller).  Shipped by the next heartbeat; if this primary dies
        first, the next primary's burn sweep re-burns the ticket."""
        self._append(self.epoch, "abandon", {"blob_id": blob_id, "version": version})

    def _replicate(self, seq: int):
        """Generator: ship the log through *seq* to believed-alive peers;
        return how many peers acknowledged at least *seq*."""
        targets = [p for p in self.peers() if self._believed_alive(p)]
        if not targets:
            return 0
        state = {"acks": 0, "pending": len(targets)}
        done = Event(self.env)

        def shipper(peer: "VMReplica"):
            try:
                yield from self._ship_to(peer)
                if self._peer_acked.get(peer.name, 0) >= seq:
                    state["acks"] += 1
            finally:
                state["pending"] -= 1
                if not done.triggered and (
                    state["acks"] + 1 >= self.group.quorum or state["pending"] == 0
                ):
                    done.succeed()

        for peer in targets:
            self.env.process(shipper(peer), name=f"vm-rep-ship-{self.name}-{peer.name}")
        yield done
        return state["acks"]

    def _ship_to_all(self, why: str) -> None:
        """Start a shipment to every believed-alive peer."""
        for peer in self.peers():
            if self._believed_alive(peer):
                self.env.process(
                    self._ship_to(peer), name=f"vm-rep-{why}-{self.name}-{peer.name}"
                )

    def _ship_to(self, peer: "VMReplica"):
        """Generator: one log shipment (possibly empty = heartbeat/lease)
        to *peer*.  Updates ``_peer_acked`` and deposes on a stale epoch."""
        lock = self._ship_locks.setdefault(peer.name, Resource(self.env, capacity=1))
        request = lock.request()
        if not request.processed:
            yield request
        try:
            if self.role != PRIMARY or not self.node.alive:
                return None
            start = min(self._peer_acked.get(peer.name, 0), len(self.log))
            batch = self.log[start : start + CATCHUP_BATCH]
            prev_epoch = self.log[start - 1].epoch if start > 0 else 0
            try:
                reply = yield from _ask(
                    self.net, self.name, peer.node, SHIP_TIMEOUT_S,
                    lambda: peer._on_ship(
                        self.name, self.epoch, start, prev_epoch, batch, len(self.log)
                    ),
                )
            except StaleEpoch:
                self._depose()
                return None
            if reply is None:
                return None
            if reply["promised_epoch"] > self.epoch:
                self._depose()
                return None
            acked = min(reply["acked"], len(self.log))
            if acked > self._peer_acked.get(peer.name, 0):
                self._peer_acked[peer.name] = acked
            return reply
        finally:
            lock.release(request)

    def _on_ship(
        self,
        sender: str,
        epoch: int,
        start: int,
        prev_epoch: int,
        batch: List[LogRecord],
        sender_total: int,
    ) -> dict:
        """Receiver side of a log shipment (runs between transfer legs)."""
        if epoch < self.promised_epoch or epoch < self.epoch:
            # Fence: the sender is a deposed primary.
            raise StaleEpoch(epoch, max(self.promised_epoch, self.epoch))
        if epoch > self.epoch:
            # A newer primary announced itself: adopt its epoch.
            self._depose()
            self.epoch = epoch
            self.promised_epoch = max(self.promised_epoch, epoch)
        self.known_primary = sender
        if self.role == CANDIDATE:
            self.role = STANDBY
        # Prefix digest: our record just before the batch must match the
        # primary's, and we must not hold records beyond the primary's
        # whole log (orphans from a dead epoch).  Any mismatch = diverged
        # -> reset and be re-fed from scratch.
        if start > len(self.log):
            return {"acked": len(self.log), "promised_epoch": self.promised_epoch}
        if start > 0 and self.log[start - 1].epoch != prev_epoch:
            self._reset_for_refeed()
            return {"acked": 0, "promised_epoch": self.promised_epoch}
        if len(self.log) > sender_total:
            self._reset_for_refeed()
            return {"acked": 0, "promised_epoch": self.promised_epoch}
        for record in batch:
            if record.seq <= len(self.log):
                if self.log[record.seq - 1].epoch != record.epoch:
                    self._reset_for_refeed()
                    return {"acked": 0, "promised_epoch": self.promised_epoch}
                continue  # already have it (duplicate shipment)
            self.log.append(record)
            self.vm.apply_record(record.kind, record.payload)
        return {"acked": len(self.log), "promised_epoch": self.promised_epoch}

    # -- primary heartbeat / lease loop ------------------------------------
    def _pump_loop(self):
        """While primary: ship the log tail (or an empty heartbeat) to
        every believed-alive standby each period.  Doubles as the lease
        check — replies reveal higher promised epochs and depose us."""
        while True:
            jitter = 1.0 + 0.1 * float(self._rng.random())
            yield self.env.timeout(HEARTBEAT_PERIOD_S * jitter)
            if self.node.alive and self.role == PRIMARY:
                self._ship_to_all("hb")

    # -- election ----------------------------------------------------------
    def _on_peer_confirmed_dead(self, view) -> None:
        if view.node.name == self.known_primary:
            self.env.process(
                self._consider_election(), name=f"vm-rep-elect-{self.name}"
            )

    def _watchdog_loop(self):
        """Backstop for the confirm-callback trigger: a replica that
        believes there is no live primary (e.g. everyone deposed after a
        partition) periodically re-checks whether it should stand."""
        while True:
            jitter = 1.0 + 0.2 * float(self._rng.random())
            yield self.env.timeout(ELECTION_CHECK_PERIOD_S * jitter)
            yield from self._consider_election()

    def _primary_believed_alive(self) -> bool:
        if self.known_primary is None or self.known_primary == self.name:
            return False
        return not self.detector.confirmed_dead(self.known_primary)

    def _am_best_candidate(self) -> bool:
        """Highest replica id among the replicas I believe alive."""
        for peer in self.peers():
            if peer.index > self.index and self._believed_alive(peer):
                return False
        return True

    def _consider_election(self):
        if (
            not self.node.alive
            or self.role == PRIMARY
            or self._electing
            or self._primary_believed_alive()
            or not self._am_best_candidate()
        ):
            return
        self._electing = True
        try:
            yield from self._run_election()
        finally:
            self._electing = False

    def _run_election(self):
        old_primary = self.known_primary
        view = (
            self.detector.view(old_primary) if old_primary is not None else None
        )
        target = max(self.epoch, self.promised_epoch) + 1
        self.role = CANDIDATE
        self.promised_epoch = target
        # promise tuples: (last_epoch, last_seq, replica)
        promises: List[Tuple[int, int, "VMReplica"]] = [
            (self.last_epoch(), len(self.log), self)
        ]
        for peer in self.peers():
            if not self._believed_alive(peer):
                continue
            reply = yield from _ask(
                self.net, self.name, peer.node, ELECTION_TIMEOUT_S,
                lambda: peer._on_prepare(self.name, target),
            )
            if reply is not None and reply.get("promised"):
                promises.append((reply["last_epoch"], reply["last_seq"], peer))
        if self.role != CANDIDATE:
            return  # a live primary's shipment demoted us mid-election
        if len(promises) < self.group.quorum:
            self.role = STANDBY
            return
        best_epoch, best_seq, best = max(promises, key=lambda p: (p[0], p[1]))
        if best is not self:
            ok = yield from self._pull_log(best, best_seq)
            if not ok or self.role != CANDIDATE:
                self.role = STANDBY if self.role == CANDIDATE else self.role
                return
        # Replay the adopted log through the idempotent apply layer, then
        # burn every still-in-flight ticket: its writer can no longer
        # complete against us with the old primary's lock state, and the
        # next writer must chain past it.
        for record in self.log:
            self.vm.apply_record(record.kind, record.payload)
        self._burn_inflight(target)
        self.vm.release_all_held()
        self.epoch = target
        self.role = PRIMARY
        self.vm.passive = False
        self.known_primary = self.name
        self._peer_acked = {}
        failover = FailoverEvent(
            epoch=target,
            winner=self.name,
            old_primary=old_primary,
            crashed_at=view.crashed_at if view is not None else None,
            confirmed_at=view.confirmed_at if view is not None else None,
            promoted_at=self.env.now,
        )
        self.group.failovers.append(failover)
        if self.group.journal is not None:
            self.group.journal.record_failover(failover)
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("replication.failovers").inc()
        # Announce immediately (heartbeats would get there anyway).
        self._ship_to_all("announce")

    def _on_prepare(self, candidate: str, target: int) -> dict:
        if target <= self.promised_epoch:
            return {"promised": False, "promised_epoch": self.promised_epoch}
        self.promised_epoch = target
        self._depose()
        return {
            "promised": True,
            "promised_epoch": self.promised_epoch,
            "last_epoch": self.last_epoch(),
            "last_seq": len(self.log),
        }

    def _pull_log(self, source: "VMReplica", upto: int):
        """Generator: page *source*'s log in (bounded catch-up).  Our own
        log must be a prefix of the source's — the log matching property
        guarantees it when last records agree; otherwise reset first."""
        if self.log:
            last = self.log[-1]
            if (
                len(source.log) < last.seq
                or source.log[last.seq - 1].epoch != last.epoch
            ):
                self._reset_for_refeed()
        while len(self.log) < upto:
            page = yield from _ask(
                self.net, self.name, source.node, ELECTION_TIMEOUT_S,
                lambda: source.log[len(self.log) : len(self.log) + CATCHUP_BATCH],
            )
            if not page:
                return False  # unreachable, or it lost the records (restarted)
            self.log.extend(page)
        return True

    def _burn_inflight(self, epoch: int) -> None:
        """Abandon every ticket that is neither published nor abandoned.

        These were never client-acked (publish commits synchronously),
        so burning them needs no quorum: if this primary dies before the
        records ship, the next one re-runs the same sweep."""
        for blob_id in sorted(self.vm.blobs):
            info = self.vm.blobs[blob_id]
            for version in sorted(info.versions):
                record = info.versions[version]
                if not record.published and not record.abandoned:
                    self._append(
                        epoch, "abandon", {"blob_id": blob_id, "version": version}
                    )
                    self.vm.apply_abandon(blob_id, version)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VMReplica {self.name} {self.role} epoch={self.epoch} "
            f"log={len(self.log)}>"
        )


class ReplicatedVersionManager:
    """The replica group: construction, membership and discovery."""

    def __init__(self, testbed, vmanagers) -> None:
        if len(vmanagers) < 2:
            raise ValueError("a replicated version manager needs >= 2 replicas")
        self.testbed = testbed
        self.env = testbed.env
        self.names = [vm.node.name for vm in vmanagers]
        self.replicas = [VMReplica(self, i, vm) for i, vm in enumerate(vmanagers)]
        self.failovers: List[FailoverEvent] = []
        #: Optional DecisionJournal: every completed failover is recorded
        #: alongside the adaptation engines' decisions.
        self.journal = None
        for replica in self.replicas:
            replica.start()

    def attach_journal(self, journal) -> "ReplicatedVersionManager":
        """Record every :class:`FailoverEvent` into *journal*."""
        self.journal = journal
        return self

    @property
    def quorum(self) -> int:
        return len(self.replicas) // 2 + 1

    def active_replica(self) -> Optional[VMReplica]:
        """The serving primary with the highest epoch, if any (oracle —
        for invariant checks and stats, never for client routing)."""
        serving = [r for r in self.replicas if r.serving()]
        if not serving:
            return None
        return max(serving, key=lambda r: r.epoch)

    def active_vm(self):
        replica = self.active_replica()
        return replica.vm if replica is not None else None

    def handle(self, rng) -> "PrimaryHandle":
        return PrimaryHandle(self, rng)

    def stats(self) -> dict:
        active = self.active_replica()
        latencies = [
            e.failover_latency_s
            for e in self.failovers
            if e.failover_latency_s is not None
        ]
        return {
            "replicas": len(self.replicas),
            "quorum": self.quorum,
            "active": active.name if active is not None else None,
            "epoch": active.epoch if active is not None else None,
            "failovers": len(self.failovers),
            "mean_failover_latency_s": (
                sum(latencies) / len(latencies) if latencies else None
            ),
        }


def _forwarded(method: str):
    """A handle method sending the manager's *method* (same signature)
    through the failover loop."""
    def forward(self, caller, *args, timeout_s=None, retry=None):
        return self._call(method, caller, args, timeout_s, retry)

    return forward


class _FailoverHandle:
    """The failover loop both client-side handles are (module docstring,
    "Client-side handles"); a subclass says only how the active group
    member is found (:meth:`_active`)."""

    def __init__(self, group, rng) -> None:
        self.group = group
        self.env = group.env
        self.rng = rng
        #: The member calls go to while it answers; dropped (None) on
        #: every failover error, for :meth:`_active` to find again.
        self._current = None
        self.switches = 0

    def _active(self, caller):
        """Generator: the manager the next attempt goes to."""
        raise NotImplementedError

    def _backoff(self, attempt: int) -> float:
        base = min(BACKOFF_BASE_S * (2 ** (attempt - 1)), BACKOFF_MAX_S)
        return base * (0.5 + float(self.rng.random()))

    def _call(self, method, caller, args, timeout_s, retry):
        if timeout_s is None:
            timeout_s = RPC_TIMEOUT_S
        switches = 0
        while True:
            manager = yield from self._active(caller)
            try:
                result = yield from getattr(manager, method)(
                    caller, *args, timeout_s=timeout_s, retry=retry
                )
                return result
            except FAILOVER_ERRORS:
                switches += 1
                self.switches += 1
                self._current = None
                if switches > MAX_SWITCHES:
                    raise
                yield self.env.timeout(self._backoff(switches))


class PrimaryHandle(_FailoverHandle):
    """Client-side view of the replica group.

    Duck-types the :class:`VersionManager` remote API the client and the
    Cumulus gateway consume (``remote_create_blob`` / ``remote_ticket`` /
    ``remote_complete`` / ``remote_get_latest`` / ``abandon``).  The
    active member is a cached primary, re-resolved by probing every
    replica over the network (no oracle) with seeded backoff between
    rounds.
    """

    def __init__(self, group: ReplicatedVersionManager, rng) -> None:
        super().__init__(group, rng)
        self.net = group.testbed.net
        self._current: Optional[VMReplica] = group.replicas[0]

    # -- duck-typed surface -------------------------------------------------
    def abandon(self, ticket) -> None:
        replica = self._current
        if replica is not None and replica.serving():
            replica.vm.abandon(ticket)

    remote_create_blob = _forwarded("remote_create_blob")
    remote_ticket = _forwarded("remote_ticket")
    remote_complete = _forwarded("remote_complete")
    remote_get_latest = _forwarded("remote_get_latest")

    # -- primary discovery ----------------------------------------------------
    def _active(self, caller):
        if self._current is not None:
            return self._current.vm
        for round_no in range(1, RESOLVE_ROUNDS + 1):
            claims: List[Tuple[int, VMReplica]] = []
            for replica in self.group.replicas:
                # Ask one replica for (role, epoch); None if down.
                status = yield from _ask(
                    self.net, caller.name, replica.node, PROBE_TIMEOUT_S,
                    lambda: (replica.role, replica.epoch),
                )
                if status is not None and status[0] == PRIMARY:
                    claims.append((status[1], replica))
            if claims:
                _, best = max(claims, key=lambda c: c[0])
                self._current = best
                return best.vm
            yield self.env.timeout(self._backoff(round_no))
        raise NoActivePrimary("version-manager", RESOLVE_ROUNDS)


class WarmStandbyProviderManager:
    """Active/standby provider-manager pair with re-registration takeover.

    Allocation state is soft (provider loads, membership), so the
    standby mirrors nothing.  Its failure detector watches the active
    manager's node; on confirmed death the standby round-trips a
    re-registration probe to every known provider node and starts
    allocating from whoever answered.  The deposed manager, should it
    recover, comes back as the (empty) standby.
    """

    def __init__(self, deployment, active, standby) -> None:
        self.deployment = deployment
        self.env = active.env
        self.net = active.net
        self.managers = [active, standby]
        self.active_idx = 0
        self.epoch = 1
        self.failovers: List[dict] = []
        standby.standby = True
        self._detectors = []
        for idx, manager in enumerate(self.managers):
            other = self.managers[1 - idx]

            def confirmed(view, idx=idx):
                if view.node.name == self.managers[1 - idx].node.name:
                    self._maybe_takeover(idx)

            self._detectors.append(
                _peer_detector(manager.node, [other.node], confirmed)
            )
            manager.node.on_recover(
                lambda _n, idx=idx: self._on_manager_recover(idx)
            )

    def active_pm(self):
        return self.managers[self.active_idx]

    def _maybe_takeover(self, idx: int) -> None:
        if idx == self.active_idx or not self.managers[idx].node.alive:
            return
        self.env.process(self._takeover(idx), name=f"pm-takeover-{idx}")

    def _takeover(self, idx: int):
        manager = self.managers[idx]
        confirmed_at = self.env.now
        view = self._detectors[idx].view(self.managers[1 - idx].node.name)
        recovered = 0
        # Re-registration sweep: one probe round trip per known provider;
        # responders rejoin the pool, the rest stay out until they
        # re-register on their own.
        for provider_id in sorted(self.deployment.providers):
            provider = self.deployment.providers[provider_id]
            answered = yield from _ask(
                self.net, manager.node.name, provider.node, REREGISTER_TIMEOUT_S,
                lambda: True,
            )
            if answered:
                manager.register(provider)
                recovered += 1
        manager.standby = False
        self.active_idx = idx
        self.epoch += 1
        self.failovers.append(
            {
                "epoch": self.epoch,
                "winner": manager.node.name,
                "crashed_at": view.crashed_at if view is not None else None,
                "confirmed_at": confirmed_at,
                "active_at": self.env.now,
                "providers_recovered": recovered,
            }
        )
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("replication.pm_takeovers").inc()

    def _on_manager_recover(self, idx: int) -> None:
        """A restarted manager holds stale soft state; it rejoins as an
        empty standby (the other one keeps or takes the active role)."""
        manager = self.managers[idx]
        if idx == self.active_idx:
            self.active_idx = 1 - idx
            self.managers[self.active_idx].standby = False
        manager.providers.clear()
        manager.standby = True

    def handle(self, rng) -> "ProviderManagerHandle":
        return ProviderManagerHandle(self, rng)


class ProviderManagerHandle(_FailoverHandle):
    """Client-side view of the provider-manager pair.

    Duck-types what :class:`~repro.blobseer.client.BlobSeerClient` uses:
    ``remote_allocate``, ``providers`` and ``pool_size``.  Reads and
    allocations follow whichever manager of the pair is active just then.
    """

    def _active(self, caller):
        # The pair knows its active member: nothing to cache or probe.
        return self.group.active_pm()
        yield  # pragma: no cover - a generator, like PrimaryHandle._active

    @property
    def providers(self):
        return self.group.active_pm().providers

    def pool_size(self) -> int:
        return self.group.active_pm().pool_size()

    remote_allocate = _forwarded("remote_allocate")
