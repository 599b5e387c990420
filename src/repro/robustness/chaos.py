"""Chaos soak harness: declarative fault schedules + invariant checks.

The SEAMS survey's complaint about self-adaptive systems (PAPERS.md,
arXiv:2103.11481) is that they are rarely evaluated under *sustained*
perturbation against *stated* guarantees.  This module is that harness
for the reproduction: it arms a declarative fault schedule (the plain
dicts of :meth:`repro.cluster.faults.FaultInjector.apply_schedule`)
against a running deployment, steps the simulation in slices, and after
every slice re-checks the system's core safety invariants:

``acked_writes_durable``
    Every write a client saw acknowledged is published — and stays
    published — at the authoritative version manager.
``gap_free_history``
    Per blob: every version number ever issued is accounted for
    (published, abandoned, or still in flight), ``latest`` is the
    highest published version, and publish times are monotone in
    version order.
``at_most_one_active_primary``
    No two version-manager replicas serve the same epoch, and failover
    epochs are strictly increasing (the epoch fence holds).
``read_your_writes``
    A read a client starts after its own acknowledged write returns at
    least that write's version.
``replicas_converged``
    (final check only) After faults heal and a settle period elapses,
    every live replica agrees with the authority on per-blob latest
    version, size, and published-version sets.

Violations are collected, not raised, so one soak reports everything it
found; :meth:`ChaosHarness.assert_clean` turns them into a test failure.

Fault targets may name roles — ``"vm-primary"``, ``"pm-active"`` — which
resolve to the node *currently* holding the role at fire time, so a
schedule can chase the primary through repeated failovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..blobseer.rpc import OP_ERRORS
from ..cluster.faults import FaultInjector

__all__ = ["InvariantViolation", "ChaosHarness", "steady_append_load"]


@dataclass
class InvariantViolation:
    """One invariant breach observed during a soak."""

    time: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.2f}] {self.invariant}: {self.detail}"


def steady_append_load(client, blob_id: int, size_mb: float,
                       period_s: float, stop_at: float):
    """Generator: append *size_mb* every *period_s* until *stop_at*.

    Failed ops are already recorded in ``client.history`` before the
    client re-raises; the load loop swallows the exception and keeps
    writing straight through outages — which is the point."""
    env = client.env
    while env.now < stop_at:
        try:
            yield from client.append(blob_id, size_mb)
        except OP_ERRORS:
            pass
        remaining = stop_at - env.now
        if remaining <= 0:
            break
        yield env.timeout(min(period_s, remaining))


class ChaosHarness:
    """Drive a fault schedule against a deployment, checking invariants."""

    def __init__(
        self,
        deployment,
        check_every_s: float = 5.0,
        settle_s: float = 30.0,
    ) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.injector = FaultInjector(deployment.testbed)
        self.check_every_s = check_every_s
        self.settle_s = settle_s
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0
        #: Checks skipped because no replica was serving at that instant
        #: (mid-failover); the final post-settle check never skips.
        self.checks_deferred = 0
        #: Optional DecisionJournal: invariant violations (and the final
        #: soak summary) land next to the adaptation decisions and
        #: failovers they interleave with.
        self.journal = None

    def attach_journal(self, journal) -> "ChaosHarness":
        """Record every invariant violation + soak summary into *journal*."""
        self.journal = journal
        for group in self.deployment.vm_groups:
            if group is not None and group.journal is None:
                group.attach_journal(journal)
        return self

    # -- fault-target resolution ------------------------------------------------
    def resolve_target(self, name: str):
        """Role aliases resolve at fire time; anything else is a node name.

        ``"vm-primary"`` is shard 0's primary; ``"vm-primary-s{i}"``
        chases shard *i*'s primary through its own failovers."""
        dep = self.deployment
        if name == "vm-primary" or name.startswith("vm-primary-s"):
            shard = 0 if name == "vm-primary" else int(name[len("vm-primary-s"):])
            group = dep.vm_groups[shard]
            if group is not None:
                replica = group.active_replica()
                if replica is not None:
                    return replica.node
            return dep.vm_shards[shard].node
        if name == "pm-active":
            return dep.active_pmanager().node
        return dep.testbed.node(name)

    def apply_schedule(self, events: Sequence[dict]) -> int:
        return self.injector.apply_schedule(events, resolve=self.resolve_target)

    # -- the soak loop ------------------------------------------------------------
    def run(self, until: float, clients=None) -> dict:
        """Step the simulation to *until* in ``check_every_s`` slices,
        checking invariants after each, then settle and check final
        convergence.  Returns :meth:`report`."""
        if clients is None:
            clients = list(self.deployment.clients.values())
        now = self.env.now
        while now < until:
            now = min(now + self.check_every_s, until)
            self.deployment.run(until=now)
            self.check_invariants(clients)
        if self.settle_s > 0:
            self.deployment.run(until=until + self.settle_s)
        self.check_invariants(clients, final=True)
        self.check_convergence()
        if self.journal is not None:
            self.journal.record_invariant(
                "soak_summary", ok=not self.violations,
                detail={"checks_run": self.checks_run,
                        "checks_deferred": self.checks_deferred,
                        "violations": len(self.violations)})
        return self.report()

    # -- invariant checks ---------------------------------------------------------
    def check_invariants(self, clients, final: bool = False) -> None:
        self.checks_run += 1
        vms = self.deployment.serving_vms()
        if any(vm is None for vm in vms):
            if final:
                for s, vm in enumerate(vms):
                    if vm is None:
                        self._flag(
                            "at_most_one_active_primary",
                            f"shard {s}: no serving primary after settle period",
                        )
            else:
                self.checks_deferred += 1
            return
        self.check_acked_writes_durable(vms, clients)
        for vm in vms:
            self.check_gap_free_history(vm, final=final)
        self.check_single_primary()
        self.check_read_your_writes(clients)

    def check_acked_writes_durable(self, vms, clients) -> None:
        for client in clients:
            for op in client.history:
                if op.op not in ("write", "append") or not op.ok:
                    continue
                if op.version is None or op.blob_id is None:
                    continue
                # A blob's owning shard is a pure function of its id.
                vm = vms[(op.blob_id - 1) % len(vms)]
                info = vm.blobs.get(op.blob_id)
                record = (
                    info.versions.get(op.version) if info is not None else None
                )
                if record is None:
                    self._flag(
                        "acked_writes_durable",
                        f"client {op.client_id} acked blob {op.blob_id} "
                        f"v{op.version} missing at {vm.node.name}",
                    )
                elif not record.published or record.abandoned:
                    self._flag(
                        "acked_writes_durable",
                        f"client {op.client_id} acked blob {op.blob_id} "
                        f"v{op.version} not published at {vm.node.name} "
                        f"(abandoned={record.abandoned})",
                    )

    def check_gap_free_history(self, vm, final: bool = False) -> None:
        for blob_id, info in vm.blobs.items():
            published: List[int] = []
            last_publish_time = None
            for version in range(1, info.next_version):
                record = info.versions.get(version)
                if record is None:
                    self._flag(
                        "gap_free_history",
                        f"blob {blob_id}: version {version} issued but "
                        f"unaccounted (no record)",
                    )
                    continue
                if record.published:
                    published.append(version)
                    if (
                        last_publish_time is not None
                        and record.publish_time < last_publish_time
                    ):
                        self._flag(
                            "gap_free_history",
                            f"blob {blob_id}: v{version} published at "
                            f"{record.publish_time:.3f} before its "
                            f"predecessor ({last_publish_time:.3f})",
                        )
                    last_publish_time = record.publish_time
            top = published[-1] if published else 0
            if info.latest != top:
                self._flag(
                    "gap_free_history",
                    f"blob {blob_id}: latest={info.latest} but highest "
                    f"published version is {top}",
                )

    def check_single_primary(self) -> None:
        for group in self.deployment.vm_groups:
            if group is None:
                continue
            serving = [r for r in group.replicas if r.serving()]
            epochs = [r.epoch for r in serving]
            if len(set(epochs)) != len(epochs):
                self._flag(
                    "at_most_one_active_primary",
                    f"two replicas serve the same epoch: "
                    f"{[(r.name, r.epoch) for r in serving]}",
                )
            failover_epochs = [e.epoch for e in group.failovers]
            if any(b <= a for a, b in zip(failover_epochs, failover_epochs[1:])):
                self._flag(
                    "at_most_one_active_primary",
                    f"failover epochs not strictly increasing: {failover_epochs}",
                )

    def check_read_your_writes(self, clients) -> None:
        for client in clients:
            acked: Dict[int, List[Tuple[float, int]]] = {}
            for op in client.history:
                if op.blob_id is None:
                    continue
                if op.op in ("write", "append") and op.ok and op.version is not None:
                    acked.setdefault(op.blob_id, []).append(
                        (op.finished_at, op.version)
                    )
                elif op.op == "read" and op.ok and op.version is not None:
                    floor = 0
                    for finished_at, version in acked.get(op.blob_id, ()):
                        if finished_at <= op.started_at and version > floor:
                            floor = version
                    if op.version < floor:
                        self._flag(
                            "read_your_writes",
                            f"client {op.client_id} read blob {op.blob_id} "
                            f"v{op.version} at t={op.started_at:.2f} after "
                            f"its own acked v{floor}",
                        )

    def check_convergence(self) -> None:
        """Final check: every live replica mirrors its shard's authority."""
        for group in self.deployment.vm_groups:
            if group is not None:
                self._check_group_convergence(group)

    def _check_group_convergence(self, group) -> None:
        authority = group.active_replica()
        if authority is None:
            return  # already flagged by the final check_invariants
        for replica in group.replicas:
            if replica is authority or not replica.node.alive:
                continue
            for blob_id, info in authority.vm.blobs.items():
                mirror = replica.vm.blobs.get(blob_id)
                if mirror is None:
                    self._flag(
                        "replicas_converged",
                        f"{replica.name} missing blob {blob_id}",
                    )
                    continue
                if (
                    mirror.latest != info.latest
                    or abs(mirror.size_mb - info.size_mb) > 1e-9
                    or mirror.published_versions() != info.published_versions()
                ):
                    self._flag(
                        "replicas_converged",
                        f"{replica.name} blob {blob_id}: "
                        f"latest={mirror.latest}/{info.latest} "
                        f"size={mirror.size_mb}/{info.size_mb}",
                    )
            extra = set(replica.vm.blobs) - set(authority.vm.blobs)
            if extra:
                self._flag(
                    "replicas_converged",
                    f"{replica.name} has blobs the authority lacks: "
                    f"{sorted(extra)}",
                )

    # -- reporting ----------------------------------------------------------------
    def _flag(self, invariant: str, detail: str) -> None:
        self.violations.append(
            InvariantViolation(self.env.now, invariant, detail)
        )
        if self.journal is not None:
            self.journal.record_invariant(invariant, ok=False,
                                          detail={"detail": detail})

    def assert_clean(self) -> None:
        if self.violations:
            lines = "\n".join(str(v) for v in self.violations)
            raise AssertionError(
                f"{len(self.violations)} invariant violation(s):\n{lines}"
            )

    def report(self) -> dict:
        dep = self.deployment
        report = {
            "checks_run": self.checks_run,
            "checks_deferred": self.checks_deferred,
            "violations": [
                {"time": v.time, "invariant": v.invariant, "detail": v.detail}
                for v in self.violations
            ],
            "fault_log": self.injector.export_log(),
            "crashes": self.injector.crash_count(),
            "recoveries": self.injector.recovery_count(),
        }
        if dep.vm_group is not None:
            report["vm"] = dep.vm_group.stats()
            report["vm_failovers"] = [
                {
                    "epoch": e.epoch,
                    "winner": e.winner,
                    "old_primary": e.old_primary,
                    "failover_latency_s": e.failover_latency_s,
                    "outage_s": e.outage_s,
                }
                for e in dep.vm_group.failovers
            ]
        extra_groups = [g for g in dep.vm_groups[1:] if g is not None]
        if extra_groups:
            report["vm_shards"] = [
                g.stats() if g is not None else None for g in dep.vm_groups
            ]
        if dep.pm_group is not None:
            report["pm_failovers"] = list(dep.pm_group.failovers)
        return report
