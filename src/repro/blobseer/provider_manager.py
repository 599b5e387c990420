"""The provider manager: provider membership + chunk allocation.

"The provider manager keeps track of the existing data providers and
implements the allocation strategies that map new chunks to available
data providers." (paper §III-A)

It is also the join/leave point used by the elasticity controller
(self-configuration): dynamically deployed providers register here and
drained providers deregister.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from .allocation import AllocationStrategy, RoundRobinAllocation
from .errors import NoProvidersAvailable, NotActivePrimary
from .instrument import (
    EV_ALLOCATION,
    EV_PROVIDER_JOIN,
    EV_PROVIDER_LEAVE,
    EventSink,
    MonitoringEvent,
    NullSink,
)
from .provider import DataProvider
from .rpc import CONTROL_MSG_MB, RoundTrip, attempts

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import PhysicalNode

__all__ = ["ProviderManager"]


class ProviderManager:
    """Membership registry + allocation service."""

    #: CPU time one allocation RPC costs the manager's node.
    ALLOCATION_CPU_S = 0.0001

    def __init__(
        self,
        node: PhysicalNode,
        strategy: Optional[AllocationStrategy] = None,
        sink: Optional[EventSink] = None,
        actor_id: str = "pm",
    ) -> None:
        self.node = node
        self.env = node.env
        self.net = node.network
        self.strategy = strategy or RoundRobinAllocation()
        self.sink = sink or NullSink()
        self.actor_id = actor_id
        self.providers: Dict[str, DataProvider] = {}
        #: Allocation RPCs served and chunks placed across them; their
        #: ratio is the batching factor (one RPC placing a whole write's
        #: chunks vs one RPC per chunk).
        self.allocations = 0
        self.allocated_chunks = 0
        #: Warm standby (repro.robustness.replication): a standby refuses
        #: allocations until its takeover re-registration sweep finishes.
        #: False for the plain single-manager deployment.
        self.standby = False
        #: Optional HeartbeatFailureDetector: what :meth:`belief` reads
        #: instead of the ``node.alive`` oracle.
        self.detector = None

    # -- membership -----------------------------------------------------------
    def register(self, provider: DataProvider) -> None:
        """Add a provider to the pool (join)."""
        self.providers[provider.provider_id] = provider
        provider.node.on_fail(lambda _n, pid=provider.provider_id: self._on_provider_fail(pid))
        self._emit(EV_PROVIDER_JOIN, provider_id=provider.provider_id,
                   pool_size=len(self.active_providers()))

    def deregister(self, provider_id: str) -> Optional[DataProvider]:
        """Remove a provider from the pool (leave/drain)."""
        provider = self.providers.pop(provider_id, None)
        if provider is not None:
            self._emit(EV_PROVIDER_LEAVE, provider_id=provider_id,
                       pool_size=len(self.active_providers()))
        return provider

    def _on_provider_fail(self, provider_id: str) -> None:
        if provider_id in self.providers:
            self._emit(EV_PROVIDER_LEAVE, provider_id=provider_id, crashed=True,
                       pool_size=len(self.active_providers()))

    def belief(self, provider: DataProvider) -> str:
        """``"alive"``, ``"suspected"`` or ``"dead"``: the one place that
        decides who is believed alive.  The failure detector's view of
        the provider's node when one watches it, else the ``node.alive``
        oracle — so with a detector a crashed-but-undetected provider
        keeps getting allocations (whose pushes then fail and are
        retried by the client) and keeps counting as a replica until its
        death is *confirmed*, exactly as on a real deployment."""
        if self.detector is not None:
            view = self.detector.view(provider.node.name)
            if view is not None:
                return view.state
        return "alive" if provider.node.alive else "dead"

    def active_providers(self) -> List[DataProvider]:
        """Providers new chunks may be placed on."""
        return [p for p in self.providers.values()
                if not p.decommissioned and self.belief(p) == "alive"]

    def chunk_holders(self) -> Dict[str, List[DataProvider]]:
        """The chunk directory: storage key -> the providers not believed
        dead that hold it, both in registration order (a draining
        provider still holds what it has not handed over)."""
        holders: Dict[str, List[DataProvider]] = {}
        for provider in self.providers.values():
            if self.belief(provider) != "dead":
                for key in provider.chunks:
                    holders.setdefault(key, []).append(provider)
        return holders

    def least_loaded(self, size_mb: float, exclude) -> Optional[DataProvider]:
        """The allocatable provider with the lowest load score that has
        *size_mb* free and whose id is not in *exclude*, or None."""
        candidates = [
            p for p in self.active_providers()
            if p.provider_id not in exclude and p.free_mb >= size_mb
        ]
        return min(candidates, key=lambda p: p.load_score(), default=None)

    def provider(self, provider_id: str) -> DataProvider:
        return self.providers[provider_id]

    def pool_size(self) -> int:
        return len(self.active_providers())

    # -- allocation (local + remote) ------------------------------------------
    def allocate(
        self,
        chunk_count: int,
        replication: int = 1,
        client_id: Optional[str] = None,
    ) -> List[List[DataProvider]]:
        """Pick replica sets for *chunk_count* chunks (no network cost)."""
        if chunk_count <= 0:
            raise ValueError("chunk_count must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        active = self.active_providers()
        if not active:
            raise NoProvidersAvailable("provider pool is empty")
        placement = self.strategy.select(active, chunk_count, replication)
        self.allocations += 1
        self.allocated_chunks += chunk_count
        self._emit(
            EV_ALLOCATION,
            client_id=client_id,
            chunk_count=chunk_count,
            replication=replication,
            strategy=self.strategy.name,
        )
        return placement

    def remote_allocate(
        self,
        caller: PhysicalNode,
        chunk_count: int,
        replication: int = 1,
        client_id: Optional[str] = None,
        timeout_s: Optional[float] = None,
        retry=None,
    ):
        """Generator: the client-visible allocation RPC (adds network cost).

        One body per attempt, like the version manager's handlers: with
        *timeout_s* the attempt races a deadline (raising
        :class:`~repro.blobseer.errors.RpcTimeout`); without, there is
        no timer and the request leg consults the ``NodeDownError``
        oracle instead (see :mod:`repro.blobseer.rpc`).
        """
        def attempt():
            tracer = self.env.tracer
            span = None
            if tracer.enabled:
                span = tracer.begin(
                    "pm.allocate", track=self.node.name, cat="rpc",
                    caller=caller.name, chunks=chunk_count, replication=replication,
                )
            try:
                trip = RoundTrip(self.net, caller.name, self.node.name,
                                 "pm.allocate", timeout_s, host=self.node)
                yield from trip.request()
                self._fence()
                yield from self.node.compute(self.ALLOCATION_CPU_S)
                placement = self.allocate(chunk_count, replication, client_id)
                if span is not None:
                    span.annotate(pool=self.pool_size())
                # The reply carries the placement map; size grows with chunk count.
                yield from trip.reply(CONTROL_MSG_MB * max(1, chunk_count // 16))
            except BaseException as exc:
                if span is not None:
                    span.fail(exc)
                raise
            if span is not None:
                span.finish()
            return placement

        placement = yield from attempts(self.env, attempt, retry)
        return placement

    def _fence(self) -> None:
        """Reject the request while this manager is a warm standby."""
        if self.standby:
            raise NotActivePrimary(self.node.name, "standby")

    # -- introspection ----------------------------------------------------------
    def pool_stats(self) -> dict:
        active = self.active_providers()
        return {
            "pool_size": len(active),
            "total_stored_mb": sum(p.stored_mb for p in active),
            "total_free_mb": sum(p.free_mb for p in active),
            "chunk_count": sum(len(p.chunks) for p in active),
        }

    def _emit(self, event_type: str, client_id: Optional[str] = None, **fields) -> None:
        if not self.sink.enabled:
            return
        self.sink.emit(MonitoringEvent(
            time=self.env.now,
            actor_type="pmanager",
            actor_id=self.actor_id,
            event_type=event_type,
            client_id=client_id,
            fields=fields,
        ))
