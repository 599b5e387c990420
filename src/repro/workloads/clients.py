"""Client behaviours: correct workloads and DoS attackers.

Correct clients model the paper's write/read-intensive Cloud workloads
(each client streams large appends, §IV-B/§IV-C).  Malicious clients
model the DoS pattern of §IV-C: they escalate into a flood of many
small concurrent writes, stealing per-flow bandwidth shares from correct
clients at the data providers until the security framework blocks them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..blobseer.errors import AccessDenied
from ..blobseer.rpc import OP_ERRORS

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.client import BlobSeerClient, OpResult

__all__ = [
    "CorrectWriter",
    "CorrectReader",
    "ZipfReader",
    "DosAttacker",
    "DosReader",
]


class CorrectWriter:
    """A well-behaved client streaming large appends to its own BLOB."""

    def __init__(
        self,
        client: BlobSeerClient,
        op_mb: float = 1024.0,
        chunk_size_mb: float = 64.0,
        start_at: float = 0.0,
        stop_at: float = float("inf"),
        max_ops: Optional[int] = None,
        think_s: float = 0.0,
    ) -> None:
        self.client = client
        self.op_mb = op_mb
        self.chunk_size_mb = chunk_size_mb
        self.start_at = start_at
        self.stop_at = stop_at
        self.max_ops = max_ops
        self.think_s = think_s
        self.results: List[OpResult] = []
        self.blob_id: Optional[int] = None
        self.denied = False

    def run(self, env):
        """Generator: the client's lifetime (start with ``env.process``)."""
        if self.start_at > env.now:
            yield env.timeout(self.start_at - env.now)
        try:
            self.blob_id = yield from self.client.create_blob(self.chunk_size_mb)
        except AccessDenied:
            self.denied = True
            return
        ops = 0
        while env.now < self.stop_at:
            if self.max_ops is not None and ops >= self.max_ops:
                break
            try:
                result = yield from self.client.append(self.blob_id, self.op_mb)
                self.results.append(result)
                ops += 1
            except AccessDenied:
                self.denied = True
                return
            except OP_ERRORS:
                # Transient failure (e.g. provider died): brief backoff.
                yield env.timeout(0.5)
            if self.think_s > 0:
                yield env.timeout(self.think_s)

    # -- metrics -----------------------------------------------------------------
    def mean_throughput(self) -> float:
        ok = [r.throughput_mbps for r in self.results if r.ok]
        return sum(ok) / len(ok) if ok else 0.0

    def total_written_mb(self) -> float:
        return sum(r.size_mb for r in self.results if r.ok)


class CorrectReader:
    """A well-behaved client repeatedly reading ranges of a shared BLOB."""

    def __init__(
        self,
        client: BlobSeerClient,
        blob_id: int,
        op_mb: float = 512.0,
        max_ops: Optional[int] = None,
    ) -> None:
        self.client = client
        self.blob_id = blob_id
        self.op_mb = op_mb
        self.max_ops = max_ops
        self.results: List[OpResult] = []
        self.denied = False

    def run(self, env):
        ops = 0
        while self.max_ops is None or ops < self.max_ops:
            try:
                result = yield from self.client.read(self.blob_id, 0.0, self.op_mb)
                self.results.append(result)
                ops += 1
            except AccessDenied:
                self.denied = True
                return
            except OP_ERRORS:
                yield env.timeout(0.5)


class ZipfReader:
    """A reader with Zipf-skewed chunk popularity over a shared BLOB.

    Cloud read workloads concentrate on a small hot set (popular
    objects, shared input files); this client models that with a bounded
    Zipf(s) distribution over the dataset's chunk indices.  Rank *r*
    (0-based) is drawn with probability proportional to ``1/(r+1)**s``
    via an inverse-CDF lookup, then mapped to a chunk through a seeded
    permutation so the hot set is an arbitrary subset of the BLOB, not
    its prefix.  All draws come from the injected *rng* stream, keeping
    runs reproducible per seed.
    """

    def __init__(
        self,
        client: BlobSeerClient,
        blob_id: int,
        total_chunks: int,
        chunk_size_mb: float,
        rng,
        skew: float = 1.1,
        start_at: float = 0.0,
        stop_at: float = float("inf"),
        max_ops: Optional[int] = None,
        think_s: float = 0.0,
    ) -> None:
        if total_chunks < 1:
            raise ValueError("total_chunks must be >= 1")
        self.client = client
        self.blob_id = blob_id
        self.total_chunks = total_chunks
        self.chunk_size_mb = chunk_size_mb
        self.rng = rng
        self.skew = skew
        self.start_at = start_at
        self.stop_at = stop_at
        self.max_ops = max_ops
        self.think_s = think_s
        self.results: List[OpResult] = []
        self.denied = False
        #: chunk index -> times read (to inspect the realized skew).
        self.chunk_reads: Counter = Counter()
        # Inverse-CDF table over ranks: w_r = 1/(r+1)^s, normalized.
        weights = [1.0 / (r + 1) ** skew for r in range(total_chunks)]
        total = sum(weights)
        cdf, acc = [], 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift at the tail
        self._cdf = cdf
        # Seeded rank -> chunk permutation (hot set scattered over the BLOB).
        self._rank_to_chunk = [int(i) for i in rng.permutation(total_chunks)]

    def next_chunk(self) -> int:
        """Draw one chunk index from the skewed popularity distribution."""
        rank = bisect_right(self._cdf, float(self.rng.random()))
        return self._rank_to_chunk[min(rank, self.total_chunks - 1)]

    def reshuffle(self) -> None:
        """Shift the hot set: redraw the rank→chunk permutation.

        The popularity *shape* (the Zipf CDF) is unchanged; which chunks
        are popular moves to a fresh seeded permutation.  Draws come from
        the reader's own stream, so a reshuffle at a fixed sim time is as
        reproducible as the reads around it — this is the "workload
        disturbance" lever for adaptation-quality experiments.
        """
        self._rank_to_chunk = [int(i) for i in
                               self.rng.permutation(self.total_chunks)]

    def run(self, env):
        """Generator: the client's lifetime (start with ``env.process``)."""
        if self.start_at > env.now:
            yield env.timeout(self.start_at - env.now)
        ops = 0
        while env.now < self.stop_at:
            if self.max_ops is not None and ops >= self.max_ops:
                break
            chunk = self.next_chunk()
            try:
                result = yield from self.client.read(
                    self.blob_id,
                    chunk * self.chunk_size_mb,
                    self.chunk_size_mb,
                )
                self.results.append(result)
                self.chunk_reads[chunk] += 1
                ops += 1
            except AccessDenied:
                self.denied = True
                return
            except OP_ERRORS:
                yield env.timeout(0.5)
            if self.think_s > 0:
                yield env.timeout(self.think_s)

    # -- metrics -----------------------------------------------------------------
    def total_read_mb(self) -> float:
        return sum(r.size_mb for r in self.results if r.ok)


class DosAttacker:
    """A malicious client flooding the service with small write requests.

    Each of ``parallel`` worker loops creates its own tiny-chunk BLOB and
    appends one small chunk over and over.  The flood keeps hundreds of
    cheap requests outstanding at the version manager — BlobSeer's
    serialization service — so correct clients' ticket/publish RPCs queue
    behind them and their end-to-end write throughput collapses (the
    §IV-C mechanism).  The abnormal *request rate* is what the
    ``dos_flood_policy`` detects.
    """

    def __init__(
        self,
        client: BlobSeerClient,
        start_at: float = 0.0,
        chunk_size_mb: float = 1.0,
        parallel: int = 128,
    ) -> None:
        self.client = client
        self.start_at = start_at
        self.chunk_size_mb = chunk_size_mb
        self.parallel = parallel
        self.blocked_at: Optional[float] = None
        self.ops_issued = 0
        self.ops_completed = 0
        self._stopped = False

    @property
    def blocked(self) -> bool:
        return self.blocked_at is not None

    def run(self, env):
        """Generator: the attacker's lifetime (start with ``env.process``)."""
        if self.start_at > env.now:
            yield env.timeout(self.start_at - env.now)
        for _ in range(self.parallel):
            env.process(self._worker(env), name=f"dos-{self.client.client_id}")
        while not self._stopped:
            yield env.timeout(1.0)

    def _worker(self, env):
        blob_id = None
        while not self._stopped:
            try:
                if blob_id is None:
                    self.ops_issued += 1
                    blob_id = yield from self.client.create_blob(
                        self.chunk_size_mb)
                self.ops_issued += 1
                yield from self.client.append(blob_id, self.chunk_size_mb)
                self.ops_completed += 1
            except AccessDenied:
                if self.blocked_at is None:
                    self.blocked_at = env.now
                self._stopped = True
                return
            except OP_ERRORS:
                # Aborted by enforcement or transient failure; retry lets
                # the access check fire if we were blocked mid-flight.
                yield env.timeout(0.1)


class DosReader:
    """A malicious client flooding the service with small read requests.

    The read-intensive counterpart of :class:`DosAttacker` (§IV-C names
    both write- and read-intensive DoS).  Each worker loop reads the
    first chunk of a target BLOB over and over; hundreds of outstanding
    read requests hammer the version manager's get-latest path and the
    providers serving the chunk.  Detected by ``read_flood_policy``.
    """

    def __init__(
        self,
        client: BlobSeerClient,
        blob_id: int,
        start_at: float = 0.0,
        read_mb: float = 64.0,
        parallel: int = 64,
    ) -> None:
        self.client = client
        self.blob_id = blob_id
        self.start_at = start_at
        self.read_mb = read_mb
        self.parallel = parallel
        self.blocked_at: Optional[float] = None
        self.ops_issued = 0
        self.ops_completed = 0
        self._stopped = False

    @property
    def blocked(self) -> bool:
        return self.blocked_at is not None

    def run(self, env):
        """Generator: the attacker's lifetime (start with ``env.process``)."""
        if self.start_at > env.now:
            yield env.timeout(self.start_at - env.now)
        for _ in range(self.parallel):
            env.process(self._worker(env), name=f"dosr-{self.client.client_id}")
        while not self._stopped:
            yield env.timeout(1.0)

    def _worker(self, env):
        while not self._stopped:
            try:
                self.ops_issued += 1
                yield from self.client.read(self.blob_id, 0.0, self.read_mb)
                self.ops_completed += 1
            except AccessDenied:
                if self.blocked_at is None:
                    self.blocked_at = env.now
                self._stopped = True
                return
            except OP_ERRORS:
                yield env.timeout(0.1)
