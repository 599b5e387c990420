"""Version-aware multi-tier caching for the storage substrate.

BlobSeer's copy-on-write versioning (Nicolae et al.) makes every datum
immutable once published — chunk payloads, metadata-tree nodes and
per-version object mappings never change in place.  That turns cache
coherence, the hard problem of distributed caching, into a non-problem:
this package only has to manage *capacity* (LRU eviction under a byte
budget, with oversized entries refused) and *reachability* (explicit
invalidation).

Tiers built on :class:`Cache`:

- client-side chunk cache (``repro.blobseer.client``) — hot reads skip
  the network entirely;
- client-side metadata-tree node cache (``repro.blobseer.metadata``) —
  tree traversals skip the metadata-provider round trips;
- provider memory-over-disk tier (``repro.blobseer.provider``) — hot
  chunks skip the FIFO disk queue.

All tiers default **off**; cache-less runs are byte-identical per seed.
Capacities are re-balanced at runtime by
:class:`~repro.adaptation.CacheTuner` (self-optimization).
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": ["Cache", "CacheStats"],
})
