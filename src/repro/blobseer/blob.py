"""BLOB data model: chunks, descriptors, versions.

BlobSeer stores large unstructured BLOBs split into equally-sized chunks.
A *write* never mutates existing chunks; it stores fresh chunks and
publishes a new version whose metadata maps byte ranges onto the union of
new and inherited chunks (copy-on-write versioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ChunkDescriptor", "VersionRecord", "BlobInfo", "chunk_span"]


def chunk_span(offset_mb: float, size_mb: float, chunk_size_mb: float) -> Tuple[int, int]:
    """Chunk-index interval [first, last) covered by a byte range.

    Ranges must be chunk-aligned in this reproduction (BlobSeer clients
    read/write whole chunks; the paper's workloads do too).
    """
    if offset_mb < 0 or size_mb <= 0:
        raise ValueError(f"invalid range offset={offset_mb} size={size_mb}")
    first = offset_mb / chunk_size_mb
    count = size_mb / chunk_size_mb
    first_i, count_i = int(round(first)), int(round(count))
    if abs(first - first_i) > 1e-9 or abs(count - count_i) > 1e-9:
        raise ValueError(
            f"range (offset={offset_mb}MB, size={size_mb}MB) not aligned to "
            f"chunk size {chunk_size_mb}MB"
        )
    return first_i, first_i + count_i


@dataclass
class ChunkDescriptor:
    """Where one chunk lives.

    Chunks are pushed to data providers *before* the writer obtains its
    version ticket (BlobSeer's write protocol), so the storage identity
    (``storage_key``) is minted from a per-write token rather than the
    final version number; ``chunk_index`` and ``version`` are filled in
    when the metadata is written.

    ``replicas`` is the ordered list of data-provider ids currently
    holding the chunk; the replication manager may grow/shrink it after
    the initial write.
    """

    blob_id: int
    storage_key: str
    size_mb: float
    replicas: List[str] = field(default_factory=list)
    chunk_index: int = -1
    version: int = -1
    #: Set by the first provider ingest / most recent read — consumed by
    #: the data-removal strategies (TTL / LRU / orphan collection) and
    #: the replication manager's hotness estimation.
    created_at: float = 0.0
    last_access: float = 0.0
    read_count: int = 0

    @property
    def key(self) -> str:
        """Globally-unique chunk identity."""
        return self.storage_key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Chunk {self.storage_key} {self.size_mb}MB on {self.replicas}>"


@dataclass
class VersionRecord:
    """Version-manager bookkeeping for one published (or pending) version."""

    blob_id: int
    version: int
    size_mb: float  # total blob size as of this version
    writer: str  # client id
    ticket_time: float
    publish_time: Optional[float] = None
    written_range: Optional[Tuple[float, float]] = None  # (offset, size)
    #: Burned: the writer (or a failover) gave the version up.  An
    #: abandoned version can never be published — late ``complete``
    #: retries must not resurrect it (successor tickets already chain
    #: past it).
    abandoned: bool = False

    @property
    def published(self) -> bool:
        return self.publish_time is not None


@dataclass
class BlobInfo:
    """Version-manager state for one BLOB."""

    blob_id: int
    chunk_size_mb: float
    #: Highest published version (0 = empty initial version).
    latest: int = 0
    #: Current size at the latest published version.
    size_mb: float = 0.0
    versions: Dict[int, VersionRecord] = field(default_factory=dict)
    #: Next ticket to hand out.
    next_version: int = 1

    def published_versions(self) -> List[int]:
        return sorted(v for v, r in self.versions.items() if r.published)
