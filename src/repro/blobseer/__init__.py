"""BlobSeer substrate: versioning chunk store with five actor types.

Public entry points:

- :class:`BlobSeerDeployment` — wire a full instance onto a simulated
  testbed;
- :class:`BlobSeerClient` — create/read/write/append BLOBs;
- :class:`AccessTable` — the hook the self-protection layer drives;
- :mod:`repro.blobseer.instrument` — the hook the monitoring layer taps.
"""

from .access import AccessController, AccessTable, AllowAll
from .allocation import (
    AllocationStrategy,
    LeastLoadedAllocation,
    PowerOfTwoChoicesAllocation,
    RandomAllocation,
    RoundRobinAllocation,
    make_strategy,
)
from .blob import BlobInfo, ChunkDescriptor, VersionRecord, chunk_span
from .client import BlobSeerClient, OpResult
from .deployment import BlobSeerConfig, BlobSeerDeployment
from .errors import (
    AccessDenied,
    BlobNotFound,
    BlobSeerError,
    ChunkLost,
    NoProvidersAvailable,
    RangeError,
    RpcTimeout,
    VersionNotFound,
)
from .instrument import (
    CompositeSink,
    EventSink,
    MonitoringEvent,
    NullSink,
    RecordingSink,
)
from .metadata import LocalKV, MetadataProvider, MetadataStore
from .provider import DataProvider, ProviderUnavailable, StorageFull
from .provider_manager import ProviderManager
from .segment_tree import capacity_for, tree_query, tree_update
from .version_manager import Ticket, VersionManager

__all__ = [
    "BlobSeerDeployment",
    "BlobSeerConfig",
    "BlobSeerClient",
    "OpResult",
    "DataProvider",
    "MetadataProvider",
    "MetadataStore",
    "LocalKV",
    "ProviderManager",
    "VersionManager",
    "Ticket",
    "ChunkDescriptor",
    "BlobInfo",
    "VersionRecord",
    "chunk_span",
    "AllocationStrategy",
    "RoundRobinAllocation",
    "RandomAllocation",
    "LeastLoadedAllocation",
    "PowerOfTwoChoicesAllocation",
    "make_strategy",
    "AccessController",
    "AccessTable",
    "AllowAll",
    "MonitoringEvent",
    "EventSink",
    "NullSink",
    "CompositeSink",
    "RecordingSink",
    "BlobSeerError",
    "BlobNotFound",
    "VersionNotFound",
    "RangeError",
    "AccessDenied",
    "NoProvidersAvailable",
    "ChunkLost",
    "RpcTimeout",
    "StorageFull",
    "ProviderUnavailable",
    "tree_update",
    "tree_query",
    "capacity_for",
]
