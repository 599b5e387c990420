"""BlobSeer substrate: versioning chunk store with five actor types.

Public entry points:

- :class:`BlobSeerDeployment` — wire a full instance onto a simulated
  testbed;
- :class:`BlobSeerClient` — create/read/write/append BLOBs;
- :class:`AccessTable` — the hook the self-protection layer drives;
- :mod:`repro.blobseer.instrument` — the hook the monitoring layer taps.
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "deployment": ["BlobSeerDeployment", "BlobSeerConfig"],
    "client": ["BlobSeerClient", "OpResult"],
    "provider": ["DataProvider", "StorageFull", "ProviderUnavailable"],
    "metadata": ["MetadataProvider", "MetadataStore", "LocalKV"],
    "provider_manager": ["ProviderManager"],
    "version_manager": ["VersionManager", "Ticket"],
    "blob": ["ChunkDescriptor", "BlobInfo", "VersionRecord", "chunk_span"],
    "allocation": ["AllocationStrategy", "RoundRobinAllocation",
                   "RandomAllocation", "LeastLoadedAllocation",
                   "PowerOfTwoChoicesAllocation", "make_strategy"],
    "access": ["AccessController", "AccessTable", "AllowAll"],
    "instrument": ["MonitoringEvent", "EventSink", "NullSink", "CompositeSink",
                   "RecordingSink"],
    "errors": ["BlobSeerError", "BlobNotFound", "VersionNotFound", "RangeError",
               "AccessDenied", "NoProvidersAvailable", "ChunkLost",
               "RpcTimeout"],
    "segment_tree": ["tree_update", "tree_query", "capacity_for"],
})
