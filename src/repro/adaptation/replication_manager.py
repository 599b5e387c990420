"""Self-optimization: automatic data replication (paper §V).

"a data-management system has to automatically maintain the replication
degree of data chunks and to support a dynamic adjustment of the
replication degree, according to the load of the storage nodes and the
applications access patterns."

The manager periodically sweeps the chunk directory:

- **repair** — chunks whose live replica count fell below the target
  (node crashes) are re-replicated from a surviving copy;
- **promote** — chunks read faster than ``HOT_READS_PER_S`` gain extra
  replicas (up to ``MAX_REPLICATION``) to spread read load;
- **demote** — previously-hot chunks that cooled down drop back to the
  target degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from ..blobseer.errors import BlobSeerError, NoProvidersAvailable
from ..cluster.node import NodeDownError
from ..blobseer.instrument import EV_REPLICA_REPAIR, MonitoringEvent
from ..blobseer.rpc import TIMED_OUT, wait_or_timeout
from ..decision.actions import Action
from ..simulation.network import TransferAborted
from .controller import ControlLoop

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.blob import ChunkDescriptor
    from ..blobseer.deployment import BlobSeerDeployment
    from ..blobseer.provider import DataProvider

__all__ = ["ReplicationManager", "migrate_chunks"]

#: Bound on each repair copy when the deployment runs a failure detector:
#: a copy whose source turns out to be dead-but-undetected black-holes,
#: and without a timeout the chunk would be stuck in-flight forever.
#: Without a detector there is no bound (the oracle mode cannot
#: black-hole).
REPAIR_TIMEOUT_S = 30.0
#: Copies one sweep may start; the rest wait for the next sweep.
MAX_REPAIRS_PER_STEP = 64
#: Read rate above which a chunk counts as hot: it gains one extra
#: replica per multiple of this rate, up to ``MAX_REPLICATION`` in all.
HOT_READS_PER_S = 1.0
MAX_REPLICATION = 4


class ReplicationManager(ControlLoop):
    """Maintains per-chunk replication degree."""

    name = "replication"

    def __init__(
        self,
        deployment: BlobSeerDeployment,
        target_replication: int = 2,
        interval_s: float = 5.0,
    ) -> None:
        super().__init__(interval_s=interval_s)
        self.deployment = deployment
        self.env = deployment.env
        self.target_replication = target_replication
        #: MB moved by repair/promotion traffic (bench metric).
        self.repair_traffic_mb = 0.0
        self.repairs_done = 0
        self.promotions = 0
        self.demotions = 0
        self.lost_chunks: List[str] = []
        #: read counters snapshot for hotness estimation
        self._read_counts: Dict[str, Tuple[float, int]] = {}
        self._in_flight: set[str] = set()

    def planner_info(self):
        return {"name": "sweep", "params": {
            "target_replication": self.target_replication,
            "max_replication": MAX_REPLICATION,
            "hot_reads_per_s": HOT_READS_PER_S,
        }}

    # -- directory ------------------------------------------------------------
    def chunk_directory(self) -> Dict[str, ChunkDescriptor]:
        """All chunks believed live, keyed by storage key."""
        holders = self.deployment.active_pmanager().chunk_holders()
        return {key: held[0].chunks[key] for key, held in holders.items()}

    def live_replicas(self, descriptor: ChunkDescriptor) -> List[DataProvider]:
        """The providers whose copy counts toward the chunk's degree:
        not decommissioned and not believed dead (with a failure
        detector a crashed provider counts until its death is
        *confirmed*, so repair traffic begins only after detection)."""
        pmanager = self.deployment.active_pmanager()
        out = []
        for provider_id in descriptor.replicas:
            provider = pmanager.providers.get(provider_id)
            if (provider is not None and not provider.decommissioned
                    and pmanager.belief(provider) != "dead"):
                out.append(provider)
        return out

    # -- plan: the directory sweep -----------------------------------------------
    def plan(self, now: float) -> Iterable[Action]:
        """Yield one repair/promote/demote action per off-degree chunk.

        Each action is applied before the sweep resumes, so a demote
        frees disk that the very next repair's target pick can use.
        """
        repairs = 0
        pmanager = self.deployment.active_pmanager()
        directory = self.chunk_directory()
        under_replicated = hot = 0
        for key, descriptor in directory.items():
            if key in self._in_flight:
                continue
            replicas = self.live_replicas(descriptor)
            if not replicas:
                if key not in self.lost_chunks:
                    self.lost_chunks.append(key)
                continue
            want = self._desired_degree(descriptor, now)
            if len(replicas) < self.target_replication:
                under_replicated += 1
            if want > self.target_replication:
                hot += 1
            if len(replicas) < want and repairs < MAX_REPAIRS_PER_STEP:
                target = pmanager.least_loaded(
                    descriptor.size_mb, exclude=descriptor.replicas)
                if target is None:
                    continue
                repairs += 1
                kind = "repair" if len(replicas) < self.target_replication else "promote"
                # Prefer a replica believed healthy (not suspected).
                source = next((p for p in replicas
                               if pmanager.belief(p) == "alive"), replicas[0])

                def start_copy(descriptor=descriptor, source=source,
                               target=target, kind=kind, key=key) -> None:
                    self._in_flight.add(key)
                    self.env.process(
                        self._copy(descriptor, source, target, kind),
                        name=f"repl-{kind}",
                    )

                yield Action(
                    kind, self.name, subject=key,
                    detail={"chunk": key, "to": target.provider_id},
                    apply=start_copy,
                )
            elif len(replicas) > want:
                victim = replicas[-1]

                def drop_replica(victim=victim, key=key) -> None:
                    victim.delete_chunk(key)
                    self.demotions += 1

                yield Action(
                    "demote", self.name, subject=key,
                    detail={"chunk": key, "from": victim.provider_id},
                    apply=drop_replica,
                )
        # Provenance: the sweep's view of the directory this step.
        self.note(chunks=len(directory), under_replicated=under_replicated,
                  hot_chunks=hot, lost_chunks=len(self.lost_chunks),
                  in_flight=len(self._in_flight))

    def _desired_degree(self, descriptor: ChunkDescriptor, now: float) -> int:
        """Target + hotness bonus, capped at ``MAX_REPLICATION``."""
        degree = self.target_replication
        rate = self._read_rate(descriptor, now)
        if rate > HOT_READS_PER_S:
            extra = int(rate / HOT_READS_PER_S)
            degree = min(MAX_REPLICATION, degree + extra)
        return degree

    def _read_rate(self, descriptor: ChunkDescriptor, now: float) -> float:
        """Reads/s of this chunk since the previous sweep."""
        key = descriptor.storage_key
        previous = self._read_counts.get(key)
        self._read_counts[key] = (now, descriptor.read_count)
        if previous is None:
            return 0.0
        prev_time, prev_count = previous
        span = max(now - prev_time, 1e-9)
        return (descriptor.read_count - prev_count) / span

    def _copy(self, descriptor: ChunkDescriptor, source: DataProvider,
              target: DataProvider, kind: str):
        try:
            done = target.ingest(source.node, descriptor, client_id=None)
            # A dead-but-undetected source black-holes the copy: give up
            # after the bound and let a later sweep retry from a (by then
            # better-informed) replica choice.
            bound = None if self.deployment.detector is None else REPAIR_TIMEOUT_S
            value = yield from wait_or_timeout(self.env, done, bound)
            if value is TIMED_OUT:
                return
        except Exception:
            return
        finally:
            self._in_flight.discard(descriptor.storage_key)
        if target.provider_id not in descriptor.replicas:
            descriptor.replicas.append(target.provider_id)
        self.repair_traffic_mb += descriptor.size_mb
        if kind == "repair":
            self.repairs_done += 1
        else:
            self.promotions += 1
        self.deployment.sink.emit(MonitoringEvent(
            time=self.env.now,
            actor_type="adaptation",
            actor_id="replication",
            event_type=EV_REPLICA_REPAIR,
            blob_id=descriptor.blob_id,
            fields={"chunk": descriptor.storage_key, "kind": kind,
                    "size_mb": descriptor.size_mb},
        ))


def migrate_chunks(provider: DataProvider, deployment: BlobSeerDeployment):
    """Generator: move every chunk off *provider* (elastic scale-down).

    Returns the number of chunks migrated.  Chunks with another live
    replica are simply dropped here (cheap); sole copies are transferred
    to the least-loaded remaining provider first.
    """
    pmanager = deployment.active_pmanager()
    moved = 0
    for key in list(provider.chunks):
        descriptor = provider.chunks.get(key)
        if descriptor is None:
            continue
        others = [
            pid for pid in descriptor.replicas
            if pid != provider.provider_id
            and pid in pmanager.providers
            and pmanager.providers[pid].available
        ]
        if not others:
            target = pmanager.least_loaded(
                descriptor.size_mb, exclude=(provider.provider_id,))
            if target is None:
                raise NoProvidersAvailable(
                    f"cannot drain {provider.provider_id}: no space elsewhere"
                )
            try:
                yield target.ingest(provider.node, descriptor, client_id=None)
            except (TransferAborted, NodeDownError, BlobSeerError):
                continue
            if target.provider_id not in descriptor.replicas:
                descriptor.replicas.append(target.provider_id)
            moved += 1
        provider.delete_chunk(key)
    return moved
