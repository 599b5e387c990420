"""Self-configuration: dynamic data-provider deployment (paper §V).

"This is a means to support storage elasticity in BlobSeer, by enabling
the data providers to scale up and down depending on the system's needs
in terms of storage space and access load.  We designed a component that
adapts the storage system to the environment by contracting and
expanding the pool of data providers based on the system's load."

The controller watches two signals:

- **access load** — mean NIC utilisation + disk-queue pressure across
  the active provider pool;
- **storage space** — pool-wide disk fill fraction.

Above the high watermark it adds providers (simulating the dynamic VM
deployment of the Nimbus integration); below the low watermark it drains
the least-loaded provider (migrating its sole-copy chunks) and retires
it.

With a *query* engine attached the controller also publishes its pool
signals as metrics series (``elasticity.pool_load`` / ``.pool_fill`` /
``.pool_size``) and smooths its decisions over a sliding window of three
of its intervals instead of reacting to one instantaneous reading (the
windowed means are :meth:`QueryEngine.window_stat` reads, like every
engine's).

Scaling is executed as costed actions: ``scale_up`` debits
``provider_cost_mb`` MB per provider against the ``memory_mb`` ledger,
so with an ``arbiter`` attached pool growth is refereed against cache
capacity on one conserved budget.  A scale-down credits its provider's
footprint back only when the drain retires the provider: a drain that
finds no room for the sole copies is cancelled, the provider stays in
the pool, and the ledger keeps charging for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from ..blobseer.errors import NoProvidersAvailable
from ..decision.actions import Action
from .controller import ControlLoop
from .replication_manager import migrate_chunks

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.deployment import BlobSeerDeployment
    from ..blobseer.provider import DataProvider

__all__ = ["ElasticityController"]


class ElasticityController(ControlLoop):
    """Expands/contracts the provider pool based on measured load."""

    name = "elasticity"
    #: Ledger name scale-up debits and retire credits settle against.
    resource = "memory_mb"
    #: Pool-wide disk fill above which the pool grows whatever the load.
    HIGH_FILL = 0.85
    #: Providers added by one scale-up decision.
    SCALE_UP_STEP = 2

    def __init__(
        self,
        deployment: BlobSeerDeployment,
        min_providers: int = 2,
        max_providers: int = 256,
        high_load: float = 0.65,
        low_load: float = 0.15,
        interval_s: float = 5.0,
        cooldown_s: float = 15.0,
        provision_delay_s: float = 10.0,
        query=None,
        arbiter=None,
        provider_cost_mb: float = 64.0,
    ) -> None:
        super().__init__(interval_s=interval_s, cooldown_s=cooldown_s,
                         arbiter=arbiter)
        self.deployment = deployment
        self.env = deployment.env
        #: Optional introspection QueryEngine: publishes pool signals as
        #: series and smooths decisions over *smooth_window_s* of them.
        self.query = query
        self.smooth_window_s = 3.0 * interval_s
        self.min_providers = min_providers
        self.max_providers = max_providers
        self.high_load = high_load
        self.low_load = low_load
        #: Time to boot a fresh provider VM (Nimbus-style provisioning).
        self.provision_delay_s = provision_delay_s
        #: MB of ledger memory one provider's footprint occupies.
        self.provider_cost_mb = provider_cost_mb
        self.scale_ups = 0
        self.scale_downs = 0
        self._provisioning = 0
        self._draining: set[str] = set()
        #: (time, pool_size) samples for bench plots.
        self.pool_timeline: List[tuple] = []

    def planner_info(self):
        return {"name": "watermark", "params": {
            "high_load": self.high_load,
            "low_load": self.low_load,
            "high_fill": self.HIGH_FILL,
            "scale_up_step": self.SCALE_UP_STEP,
        }}

    # -- signals ----------------------------------------------------------------
    def pool_load(self) -> float:
        """Mean provider pressure in [0, ~1.5]: NIC + disk queue."""
        providers = self.deployment.active_pmanager().active_providers()
        if not providers:
            return 1.0
        total = 0.0
        for provider in providers:
            queue = min(1.0, provider.disk_queue_length / 8.0)
            total += 0.7 * provider.node.nic_utilization + 0.3 * queue
        return total / len(providers)

    def pool_fill(self) -> float:
        providers = self.deployment.active_pmanager().active_providers()
        if not providers:
            return 1.0
        used = sum(p.node.disk_used_mb for p in providers)
        capacity = sum(p.node.disk.capacity for p in providers)
        return used / capacity if capacity else 1.0

    # -- plan: the watermark control law -----------------------------------------
    def plan(self, now: float) -> Iterable[Action]:
        pool = self.deployment.active_pmanager().pool_size() + self._provisioning
        load = self.pool_load()
        fill = self.pool_fill()
        if self.query is not None and self.query.metrics is not None:
            metrics = self.query.metrics
            metrics.sample("elasticity.pool_load", load)
            metrics.sample("elasticity.pool_fill", fill)
            metrics.sample("elasticity.pool_size", float(pool))
            smoothed_load = self.query.window_stat(
                "elasticity.pool_load", "mean", self.smooth_window_s)
            smoothed_fill = self.query.window_stat(
                "elasticity.pool_fill", "mean", self.smooth_window_s)
            if smoothed_load is not None:
                load = smoothed_load
            if smoothed_fill is not None:
                fill = smoothed_fill
        self.pool_timeline.append((now, pool, load))
        # Provenance: the (possibly smoothed) signals this plan is based on.
        self.note(pool_size=pool, pool_load=round(load, 6),
                  pool_fill=round(fill, 6),
                  smoothed=self.query is not None)

        if (load > self.high_load or fill > self.HIGH_FILL) and pool < self.max_providers:
            count = min(self.SCALE_UP_STEP, self.max_providers - pool)

            def scale_up() -> None:
                for _ in range(count):
                    self._provisioning += 1
                    self.env.process(self._provision(), name="elastic-up")
                self.scale_ups += count

            yield Action(
                "scale_up", self.name,
                cost={self.resource: count * self.provider_cost_mb},
                detail={"count": count, "load": round(load, 3),
                        "fill": round(fill, 3)},
                apply=scale_up,
            )
        elif load < self.low_load and fill < self.HIGH_FILL and pool > self.min_providers:
            victim = self._pick_victim()
            if victim is not None:

                def scale_down() -> None:
                    self._draining.add(victim.provider_id)
                    self.env.process(self._drain(victim), name="elastic-down")
                    self.scale_downs += 1

                yield Action(
                    "scale_down", self.name, subject=victim.provider_id,
                    detail={"provider": victim.provider_id,
                            "load": round(load, 3)},
                    apply=scale_down,
                )

    def _pick_victim(self) -> Optional[DataProvider]:
        candidates = [
            p for p in self.deployment.active_pmanager().active_providers()
            if p.provider_id not in self._draining
        ]
        if len(candidates) <= self.min_providers:
            return None
        return min(candidates, key=lambda p: (len(p.chunks), p.load_score()))

    def _provision(self):
        yield self.env.timeout(self.provision_delay_s)
        self._provisioning -= 1
        self.deployment.add_provider()

    def _drain(self, provider: DataProvider):
        # Stop new allocations first, then move data away, then retire.
        provider.decommission()
        self.deployment.active_pmanager().deregister(provider.provider_id)
        try:
            yield from migrate_chunks(provider, self.deployment)
        except NoProvidersAvailable:
            # Nowhere to put the data: cancel the scale-down.  The
            # provider is back in the pool, so its footprint stays charged.
            provider.recommission()
            self.deployment.active_pmanager().register(provider)
            return
        finally:
            self._draining.discard(provider.provider_id)
        if self.arbiter is not None:
            self.arbiter.admit(Action(
                "retire", self.name, subject=provider.provider_id,
                cost={self.resource: -self.provider_cost_mb}))
