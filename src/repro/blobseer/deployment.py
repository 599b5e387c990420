"""Deployment helper: wire a full BlobSeer instance onto a testbed.

Builds the five-actor architecture of the paper (§III-A) — data
providers, metadata providers, provider manager, version manager,
clients — on simulated physical nodes, with one shared instrumentation
sink and one shared access controller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.testbed import Testbed, TestbedConfig
from .access import AccessController, AccessTable, AllowAll
from .allocation import make_strategy
from .client import BlobSeerClient
from .instrument import CompositeSink, EventSink, NullSink
from .metadata import MetadataProvider
from .provider import DataProvider
from .provider_manager import ProviderManager
from .rpc import GroupCommitGate
from .sharding import ShardRouter
from .version_manager import VersionManager

__all__ = ["BlobSeerConfig", "BlobSeerDeployment"]


@dataclass
class BlobSeerConfig:
    """Shape of a BlobSeer deployment."""

    data_providers: int = 20
    metadata_providers: int = 4
    replication: int = 1
    allocation: str = "round_robin"
    chunk_size_mb: float = 64.0
    #: Cache tiers (repro.cache).  All default to 0 = disabled, keeping
    #: cache-less runs byte-identical per seed.  Positive values are
    #: byte budgets in MB per client / per provider / per client's
    #: metadata-node cache.
    client_chunk_cache_mb: float = 0.0
    client_metadata_cache_mb: float = 0.0
    provider_cache_mb: float = 0.0
    #: Control-plane replication (repro.robustness.replication).  The
    #: defaults build the original single managers and change nothing:
    #: replicated runs are opt-in so baseline scenarios stay
    #: byte-identical per seed.  ``vm_replicas >= 2`` deploys that many
    #: version-manager replicas (replica 0 is the boot primary) with a
    #: quorum-committed log and epoch-fenced failover; ``pm_standby``
    #: adds a warm-standby provider manager.  Both switch the network to
    #: black-hole semantics (as attach_failure_detector does).
    vm_replicas: int = 1
    pm_standby: bool = False
    #: Sharded control plane (repro.blobseer.sharding).  ``vm_shards=N``
    #: partitions the version manager into N independent shards (blob
    #: ids in residue class ``i+1 mod N`` live on shard i, so one blob's
    #: version history stays totally ordered on its one owning shard);
    #: each shard independently honours ``vm_replicas``.  ``pm_shards=N``
    #: adds N-1 allocator-only provider managers sharing shard 0's
    #: membership registry; clients round-robin across them.  The
    #: defaults (1, 1) build the original single managers byte-identically.
    vm_shards: int = 1
    pm_shards: int = 1
    #: Batched publish (group commit): when on, the version manager's
    #: per-RPC entry CPU is paid once per *batch* of queued requests
    #: (a tenth of it per extra request) instead of once per request.
    #: Off by default — byte-identical to the seed.
    vm_batch: bool = False
    #: Client-side publish pipelining: overlap the chunk pushes with the
    #: metadata ticket round trip.  Off by default (sequential protocol,
    #: byte-identical to the seed).
    client_pipelining: bool = False
    testbed: TestbedConfig = field(default_factory=TestbedConfig)


class BlobSeerDeployment:
    """A running BlobSeer instance on a simulated testbed."""

    def __init__(
        self,
        config: Optional[BlobSeerConfig] = None,
        sink: Optional[EventSink] = None,
        access: Optional[AccessController] = None,
        testbed: Optional[Testbed] = None,
    ) -> None:
        self.config = config or BlobSeerConfig()
        self.testbed = testbed or Testbed(self.config.testbed)
        self.env = self.testbed.env
        self.net = self.testbed.net
        self.rng = self.testbed.rng
        #: CompositeSink so monitoring layers can attach later.
        self.sink = CompositeSink()
        if sink is not None:
            self.sink.add(sink)
        self.access: AccessController = access or AllowAll()
        self._provider_seq = itertools.count(self.config.data_providers)
        #: actor id -> physical node; used by the monitoring layer to
        #: source monitoring traffic from the right machines.
        self.actor_nodes: Dict[str, "PhysicalNode"] = {}
        #: HeartbeatFailureDetector, once attach_failure_detector() ran.
        self.detector = None
        self._detector_lazy_cleanup = False
        #: Every cache tier built by this deployment (clients, providers,
        #: gateways) registers here so a CacheTuner can adopt them all.
        self.caches: List["Cache"] = []

        # -- management actors -------------------------------------------------
        # Sharded control plane: shard 0 keeps the legacy names
        # ("vm-node", "pm-node", actor "vm"/"pm") so a 1-shard deployment
        # is node-for-node the original; extra shards get "-s{i}" names.
        if self.config.vm_shards < 1 or self.config.pm_shards < 1:
            raise ValueError("vm_shards and pm_shards must be >= 1")
        if self.config.pm_shards > 1 and self.config.pm_standby:
            raise ValueError("pm_shards > 1 is incompatible with pm_standby")
        #: Boot primary VersionManager of each shard (shard 0 == the
        #: legacy ``self.vmanager``).
        self.vm_shards: List[VersionManager] = [
            self._make_vm(s) for s in range(self.config.vm_shards)
        ]
        self.vmanager = self.vm_shards[0]
        #: Deployment-wide round-robin for new-blob shard placement.
        self._blob_create_seq = itertools.count()
        self._pm_assign_seq = itertools.count()
        self.pmanager = self._make_pm("pm-node", "pm", "allocation")
        #: Allocator shards (shard 0 == the legacy ``self.pmanager``).
        #: Extra shards are allocator-only: they alias shard 0's provider
        #: registry, so membership (register/deregister/detector view)
        #: stays global while allocation CPU and RPC load spread.
        self.pm_shards: List[ProviderManager] = [self.pmanager]
        for s in range(1, self.config.pm_shards):
            shard_pm = self._make_pm(
                f"pm-node-s{s}", f"pm-s{s}", f"allocation:s{s}",
                actor_id=f"pm-s{s}")
            shard_pm.providers = self.pmanager.providers
            self.pm_shards.append(shard_pm)

        # -- replicated control plane (opt-in) ---------------------------------
        #: Per-shard ReplicatedVersionManager (None = unreplicated shard).
        self.vm_groups: List[Optional["ReplicatedVersionManager"]] = [
            None
        ] * self.config.vm_shards
        self.pm_group = None
        if self.config.vm_replicas > 1:
            from ..robustness.replication import ReplicatedVersionManager

            self.net.blackhole_missing = True
            for s in range(self.config.vm_shards):
                vms = [self.vm_shards[s]]
                for i in range(1, self.config.vm_replicas):
                    vms.append(self._make_vm(s, replica=i))
                self.vm_groups[s] = ReplicatedVersionManager(self.testbed, vms)
        #: Legacy alias: shard 0's replica group (the only one pre-sharding).
        self.vm_group = self.vm_groups[0]
        if self.config.pm_standby:
            from ..robustness.replication import WarmStandbyProviderManager

            self.net.blackhole_missing = True
            standby = self._make_pm(
                "pm-node-standby", "pm-standby", "allocation-standby")
            self.pm_group = WarmStandbyProviderManager(
                self, self.pmanager, standby)

        # -- metadata providers ---------------------------------------------------
        self.metadata_providers: List[MetadataProvider] = []
        for i in range(self.config.metadata_providers):
            node = self.testbed.add_node(f"meta-node-{i}")
            self.metadata_providers.append(
                MetadataProvider(node, f"meta-{i}", sink=self.sink)
            )
            self.actor_nodes[f"meta-{i}"] = node

        # -- data providers ----------------------------------------------------------
        self.providers: Dict[str, DataProvider] = {}
        for i in range(self.config.data_providers):
            self._spawn_provider(f"provider-{i}")

        self.clients: Dict[str, BlobSeerClient] = {}

    # -- control-plane shards ------------------------------------------------------
    def _make_pm(self, node_name: str, actor_key: str, stream: str,
                 actor_id: str = "pm") -> ProviderManager:
        """Build one provider-manager instance (boot, allocator shard or
        standby) on a node of its own, with the configured allocation
        strategy on its own RNG stream."""
        node = self.testbed.add_node(node_name)
        self.actor_nodes[actor_key] = node
        strategy = make_strategy(self.config.allocation, self.rng.stream(stream))
        return ProviderManager(
            node, strategy=strategy, sink=self.sink, actor_id=actor_id)

    def _make_vm(self, shard: int, replica: int = 0) -> VersionManager:
        """Build one version-manager instance (boot primary or replica).

        Shard *shard* mints blob ids in the residue class ``shard + 1
        (mod vm_shards)``; every replica of a shard uses the same id
        arithmetic so a promoted replica keeps minting in its shard's
        class.  Emitted events carry the shard's actor id ("vm" for
        shard 0, as before sharding).
        """
        shard_suffix = "" if shard == 0 else f"-s{shard}"
        suffix = shard_suffix + (f"-{replica}" if replica else "")
        # The version manager runs single-threaded (it is a serialization
        # service): one core, and its per-RPC CPU time is what makes it a
        # DoS chokepoint.
        node = self.testbed.add_node(f"vm-node{suffix}", cores=1)
        vm = VersionManager(
            node, sink=self.sink,
            id_start=shard + 1,
            id_stride=self.config.vm_shards,
            actor_id=f"vm{shard_suffix}",
        )
        if self.config.vm_batch:
            # Group commit: the entry overhead is paid once per batch;
            # each further request in it costs a tenth of that.
            vm.batch_gate = GroupCommitGate(
                node,
                base_cpu_s=vm.op_cpu_s,
                item_cpu_s=vm.op_cpu_s * 0.1,
                metric="vm.batch_size",
            )
        self.actor_nodes[f"vm{suffix}"] = node
        return vm

    def active_pmanager(self) -> ProviderManager:
        """The provider manager that owns membership right now (the
        warm-standby active when ``pm_standby``, shard 0 otherwise —
        allocator shards alias its registry)."""
        if self.pm_group is not None:
            return self.pm_group.active_pm()
        return self.pmanager

    def serving_vms(self) -> List[Optional[VersionManager]]:
        """The VersionManager serving each shard right now: the boot
        manager of an unreplicated shard, the serving primary of a
        replicated one — None while none of its replicas serves
        (mid-failover)."""
        return [
            self.vm_shards[s] if group is None else group.active_vm()
            for s, group in enumerate(self.vm_groups)
        ]

    def authority_vms(self) -> List[VersionManager]:
        """:meth:`serving_vms`, with shards that are mid-failover
        falling back to the boot replica so counters stay readable."""
        return [
            vm if vm is not None else self.vm_shards[s]
            for s, vm in enumerate(self.serving_vms())
        ]

    def authority_vm(self, blob_id: int) -> VersionManager:
        """The authoritative VersionManager owning *blob_id*."""
        return self.authority_vms()[(blob_id - 1) % self.config.vm_shards]

    def control_plane_stats(self) -> dict:
        """Per-shard and aggregate control-plane counters (BENCH-META)."""
        vm_stats = []
        for s, vm in enumerate(self.authority_vms()):
            entry = {
                "shard": s,
                "tickets_issued": vm.tickets_issued,
                "versions_published": vm.versions_published,
            }
            if vm.batch_gate is not None:
                entry["publish_batching"] = vm.batch_gate.stats()
            vm_stats.append(entry)
        pm_stats = [
            {
                "shard": s,
                "allocations": pm.allocations,
                "allocated_chunks": pm.allocated_chunks,
            }
            for s, pm in enumerate(self.pm_shards)
        ]
        return {
            "vm_shards": self.config.vm_shards,
            "pm_shards": self.config.pm_shards,
            "vm": vm_stats,
            "pm": pm_stats,
            "tickets_issued": sum(e["tickets_issued"] for e in vm_stats),
            "versions_published": sum(e["versions_published"] for e in vm_stats),
            "allocation_rpcs": sum(e["allocations"] for e in pm_stats),
            "allocated_chunks": sum(e["allocated_chunks"] for e in pm_stats),
        }

    # -- cache tiers (repro.cache) -------------------------------------------------
    def _make_cache(self, name: str, capacity_mb: float) -> Optional["Cache"]:
        """One registered cache tier, or None for a budget of 0 (off)."""
        if capacity_mb <= 0:
            return None
        from ..cache import Cache

        cache = Cache(name, capacity_mb)
        self.caches.append(cache)
        return cache

    # -- provider pool (used by the elasticity controller too) --------------------
    def _spawn_provider(self, provider_id: str) -> DataProvider:
        node = self.testbed.add_node(f"{provider_id}-node")
        memory_cache = self._make_cache(
            f"provider.{provider_id}", self.config.provider_cache_mb
        )
        provider = DataProvider(
            node, provider_id, sink=self.sink, memory_cache=memory_cache)
        self.providers[provider_id] = provider
        self.actor_nodes[provider_id] = node
        self.active_pmanager().register(provider)
        if self.detector is not None:
            self.detector.watch(node)
            provider.lazy_failure_cleanup = self._detector_lazy_cleanup
        return provider

    def add_provider(self) -> DataProvider:
        """Dynamically deploy one more data provider (self-configuration)."""
        provider_id = f"provider-{next(self._provider_seq)}"
        return self._spawn_provider(provider_id)

    # -- failure detection (robustness layer) --------------------------------------
    def attach_failure_detector(
        self,
        period_s: float = 1.0,
        timeout_s: float = 3.0,
        confirm_misses: int = 2,
        lazy_cleanup: bool = True,
        host: Optional["PhysicalNode"] = None,
    ):
        """Replace the instant-crash oracle with heartbeat detection.

        Deploys a :class:`~repro.robustness.HeartbeatFailureDetector` on
        *host* (default: the provider manager's node) watching every data
        provider, switches the network to black-hole semantics (messages
        to crashed nodes vanish instead of erroring instantly), points
        the provider manager's membership at the detector's view and —
        with *lazy_cleanup* — defers chunk-directory scrubbing until a
        crash is actually *detected*.  Returns the detector.  A
        :class:`~repro.adaptation.ReplicationManager` on this deployment
        needs nothing passed: it judges replicas through the provider
        manager's belief, so its repair traffic is detection-gated too.
        """
        if self.detector is not None:
            raise RuntimeError("a failure detector is already attached")
        from ..robustness.detector import HeartbeatFailureDetector

        host = host or self.actor_nodes["pm"]
        detector = HeartbeatFailureDetector(
            host, period_s=period_s, timeout_s=timeout_s,
            confirm_misses=confirm_misses,
        )
        self.net.blackhole_missing = True
        self.detector = detector
        self._detector_lazy_cleanup = lazy_cleanup
        for provider in self.providers.values():
            detector.watch(provider.node)
            if lazy_cleanup:
                provider.lazy_failure_cleanup = True
        if lazy_cleanup:
            def _purge_on_confirm(view):
                for provider in self.providers.values():
                    if (
                        provider.node.name == view.node.name
                        and not provider.node.alive
                    ):
                        provider.purge_after_crash()

            detector.on_confirm(_purge_on_confirm)
        for pm in self.pm_shards:
            pm.detector = detector
        detector.start()
        return detector

    # -- clients ------------------------------------------------------------------
    def client_endpoints(self, client_id: str):
        """The ``(vmanager, pmanager)`` a client named *client_id* talks to.

        Unreplicated and unsharded (the default) these are the managers
        themselves — no indirection on the RPC path.  A replicated
        manager is reached through a failover-aware handle that
        re-resolves the primary (on the client's own RNG stream); a
        sharded version manager through a :class:`ShardRouter` over
        per-shard targets (raw manager or that shard's handle); allocator
        shards are handed out round-robin, one per call.
        """
        if self.config.vm_shards > 1:
            targets = []
            for s, group in enumerate(self.vm_groups):
                if group is not None:
                    targets.append(group.handle(
                        rng=self.rng.stream(f"vm-resolve:{client_id}:s{s}")
                    ))
                else:
                    targets.append(self.vm_shards[s])
            vmanager = ShardRouter(targets, self._blob_create_seq)
        elif self.vm_group is not None:
            vmanager = self.vm_group.handle(
                rng=self.rng.stream(f"vm-resolve:{client_id}")
            )
        else:
            vmanager = self.vmanager
        pmanager = self.pmanager
        if self.pm_group is not None:
            pmanager = self.pm_group.handle(
                rng=self.rng.stream(f"pm-resolve:{client_id}")
            )
        elif self.config.pm_shards > 1:
            pmanager = self.pm_shards[
                next(self._pm_assign_seq) % self.config.pm_shards
            ]
        return vmanager, pmanager

    def new_client(
        self,
        client_id: str,
        replication: Optional[int] = None,
        site: Optional[str] = None,
        rpc_timeout_s: Optional[float] = None,
        rpc_retry=None,
        node: Optional["PhysicalNode"] = None,
    ) -> BlobSeerClient:
        """Deploy a client on a fresh node of its own — or on *node* when
        the caller already placed one (the Cumulus gateway runs its
        backend client on its own fat-NIC node)."""
        if client_id in self.clients:
            raise ValueError(f"duplicate client id {client_id!r}")
        if node is None:
            node = self.testbed.add_node(f"{client_id}-node", site=site)
        chunk_cache = self._make_cache(
            f"chunk.{client_id}", self.config.client_chunk_cache_mb
        )
        metadata_cache = self._make_cache(
            f"meta.{client_id}", self.config.client_metadata_cache_mb
        )
        vmanager, pmanager = self.client_endpoints(client_id)
        client = BlobSeerClient(
            node,
            client_id,
            pmanager=pmanager,
            vmanager=vmanager,
            metadata_providers=self.metadata_providers,
            sink=self.sink,
            access=self.access,
            replication=replication or self.config.replication,
            rng=self.rng.stream(f"client:{client_id}"),
            rpc_timeout_s=rpc_timeout_s,
            rpc_retry=rpc_retry,
            chunk_cache=chunk_cache,
            metadata_cache=metadata_cache,
            pipeline_publish=self.config.client_pipelining,
        )
        self.clients[client_id] = client
        self.actor_nodes[client_id] = node
        return client

    # -- convenience -----------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now

    def run(self, until=None):
        return self.env.run(until=until)

    def storage_stats(self) -> dict:
        return self.active_pmanager().pool_stats()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BlobSeerDeployment providers={len(self.providers)} "
            f"meta={len(self.metadata_providers)} clients={len(self.clients)}>"
        )
