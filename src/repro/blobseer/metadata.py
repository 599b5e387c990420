"""Distributed metadata providers.

BlobSeer stores version metadata (the copy-on-write segment trees of
``repro.blobseer.segment_tree``) on a set of *metadata providers* — small
key-value stores spread over the cluster, with keys hash-partitioned
across them.  A remote access is one control-plane round trip
(:class:`~repro.blobseer.rpc.RoundTrip`) under the client's RPC deadline:
a provider that is dead when the request arrives serves nothing.

A read held locally costs no generator: ``peek(key) -> (hit, value)`` is
a plain call, ``fetch(key)`` the generator that goes to the network after
a miss, ``get`` is peek-or-fetch and ``put(key, value)`` the generator
that stores.  Two stores speak this interface:

- :class:`LocalKV` — in-process dict, zero cost; the fake the segment
  tree's unit tests drain synchronously;
- :class:`MetadataStore` — client-side view that routes each key to its
  :class:`MetadataProvider` over the network.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .instrument import EventSink, MonitoringEvent, NullSink
from .rpc import CONTROL_MSG_MB, RoundTrip

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import PhysicalNode
    from ..simulation.network import FlowNetwork

__all__ = ["LocalKV", "MetadataProvider", "MetadataStore"]

#: Cached stand-in for a ``None`` KV result (an unwritten subtree).
#: Tree keys are version-stamped and immutable, so even "this node does
#: not exist" is a fact that can never change and is safe to cache.
_NEGATIVE = ("negative",)


class LocalKV:
    """In-process KV store satisfying the generator interface at no cost."""

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}

    def peek(self, key: str) -> Tuple[bool, Any]:
        return True, self.data.get(key)  # everything is local: never a miss

    def get(self, key: str):
        return self.peek(key)[1]
        yield  # pragma: no cover - makes this a generator

    def put(self, key: str, value: Any):
        self.data[key] = value
        return None
        yield  # pragma: no cover - makes this a generator

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key: str) -> bool:
        return key in self.data


class MetadataProvider:
    """One metadata server holding a shard of the key space."""

    def __init__(
        self,
        node: PhysicalNode,
        provider_id: str,
        sink: Optional[EventSink] = None,
    ) -> None:
        self.node = node
        self.env = node.env
        self.provider_id = provider_id
        self.sink = sink or NullSink()
        self.store: Dict[str, Any] = {}
        #: Counters surfaced to the introspection layer.
        self.gets = 0
        self.puts = 0

    def local_get(self, key: str) -> Any:
        self.gets += 1
        return self.store.get(key)

    def local_put(self, key: str, value: Any) -> None:
        self.puts += 1
        self.store[key] = value

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetadataProvider {self.provider_id} keys={len(self.store)}>"


def _shard_of(key: str, count: int) -> int:
    digest = hashlib.md5(key.encode()).digest()
    return int.from_bytes(digest[:4], "little") % count


class MetadataStore:
    """Client-side router: hashes keys across the metadata providers.

    One instance per client (it needs the client's node to source the
    network messages from).

    With an attached *cache* (a :class:`repro.cache.Cache`), tree nodes
    fetched or written by this client are kept locally: versioned node
    keys are immutable, so a cache hit returns without any network
    round trip — zero cost in simulation time.  ``None`` results
    (unwritten subtrees) are cached too, as negative entries, and so is
    what a read resolved a range of a published version to (:meth:`hold`).
    """

    def __init__(
        self,
        net: FlowNetwork,
        client_node: PhysicalNode,
        providers: List[MetadataProvider],
        cache=None,
        rpc_timeout_s: Optional[float] = None,
    ) -> None:
        if not providers:
            raise ValueError("need at least one metadata provider")
        self.net = net
        self.client_node = client_node
        self.providers = providers
        self.cache = cache
        #: The owning client's per-attempt RPC deadline (None = no timer).
        self.rpc_timeout_s = rpc_timeout_s

    def _provider_for(self, key: str) -> MetadataProvider:
        return self.providers[_shard_of(key, len(self.providers))]

    def _trip(self, provider: MetadataProvider, op: str) -> RoundTrip:
        return RoundTrip(self.net, self.client_node.name, provider.node.name,
                         op, self.rpc_timeout_s, host=provider.node)

    def peek(self, key) -> Tuple[bool, Any]:
        """The one cache lookup of a read (a miss is counted here, once)."""
        if self.cache is None:
            return False, None
        hit, cached = self.cache.lookup(key)
        return hit, None if cached is _NEGATIVE else cached

    def fetch(self, key: str):
        provider = self._provider_for(key)
        trip = self._trip(provider, "meta.get")
        yield from trip.request()
        value = provider.local_get(key)
        yield from trip.reply()
        self.hold(key, _NEGATIVE if value is None else value)
        return value

    def get(self, key: str):
        hit, value = self.peek(key)
        if not hit:
            value = yield from self.fetch(key)
        return value

    def put(self, key: str, value: Any):
        provider = self._provider_for(key)
        trip = self._trip(provider, "meta.put")
        yield from trip.request()
        provider.local_put(key, value)
        yield from trip.reply()
        # Write-through: the writer will traverse these nodes on its own
        # subsequent reads; keys are immutable, so this is safe.
        self.hold(key, value)
        return None

    def hold(self, key, value: Any) -> None:
        """Keep an immutable fact in the cache, if there is one: a tree
        node under its string key, or what a read of a published version
        resolved under a tuple key, which no provider is ever asked for."""
        if self.cache is not None:
            self.cache.put(key, value, CONTROL_MSG_MB)
