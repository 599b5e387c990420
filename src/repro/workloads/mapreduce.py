"""MapReduce-style workload over BlobSeer (paper §II motivation).

The paper positions BlobSeer against HDFS/GFS for MapReduce-style
data-intensive applications: "specialized distributed file systems have
been proposed to deal with specific access patterns that require support
for highly concurrent and fine-grained access to data."

This module implements that access pattern as a workload:

1. an **input stage** writes the job input as one large BLOB;
2. **map tasks** read disjoint chunk-aligned splits of the input
   concurrently (the fine-grained concurrent-read pattern);
3. each map task computes (simulated CPU) and appends its intermediate
   output to a per-task BLOB;
4. **reduce tasks** read groups of intermediate BLOBs and append final
   output to a shared results BLOB — exercising BlobSeer's concurrent
   append serialization.

The job reports per-stage timings and aggregate throughput, making it a
realistic "application benchmark" on top of the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..blobseer.rpc import OP_ERRORS

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.client import BlobSeerClient
    from ..blobseer.deployment import BlobSeerDeployment

__all__ = ["MapReduceConfig", "MapReduceJob", "StageStats"]

#: CPU seconds per MB of intermediate data at a reduce task.
REDUCE_CPU_S_PER_MB = 0.001
#: Reduce output size as a fraction of its input.
REDUCE_SELECTIVITY = 0.5


@dataclass
class MapReduceConfig:
    """Shape of one job."""

    input_mb: float = 4096.0
    chunk_size_mb: float = 64.0
    map_tasks: int = 16
    reduce_tasks: int = 4
    #: CPU seconds per MB of input processed by a map task.
    map_cpu_s_per_mb: float = 0.002
    #: Map output size as a fraction of its input (selectivity).
    map_selectivity: float = 0.25


@dataclass
class StageStats:
    """Timings of one job stage."""

    started_at: float = 0.0
    finished_at: float = 0.0
    bytes_mb: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput_mbps(self) -> float:
        return self.bytes_mb / self.duration_s if self.duration_s > 0 else 0.0


class MapReduceJob:
    """One simulated MapReduce job against a BlobSeer deployment.

    Each task runs as its own BlobSeer client on its own node, like a
    Hadoop task slot on a compute node.
    """

    def __init__(
        self,
        deployment: BlobSeerDeployment,
        config: Optional[MapReduceConfig] = None,
        job_id: str = "job",
    ) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.config = config or MapReduceConfig()
        if self.config.input_mb % self.config.chunk_size_mb:
            raise ValueError("input_mb must be a multiple of chunk_size_mb")
        chunks = self.config.input_mb / self.config.chunk_size_mb
        if chunks % self.config.map_tasks:
            raise ValueError("map_tasks must evenly split the input chunks")
        self.job_id = job_id
        self.input_blob: Optional[int] = None
        self.output_blob: Optional[int] = None
        self.intermediate: Dict[int, int] = {}  # map index -> blob id
        self.stats: Dict[str, StageStats] = {
            "input": StageStats(), "map": StageStats(), "reduce": StageStats(),
        }
        self.failed_tasks = 0
        self._clients: Dict[str, BlobSeerClient] = {}

    def _client(self, name: str) -> BlobSeerClient:
        client = self._clients.get(name)
        if client is None:
            client = self.deployment.new_client(f"{self.job_id}-{name}")
            self._clients[name] = client
        return client

    # -- stages ----------------------------------------------------------------
    def run(self, env):
        """Generator: the whole job; returns the stats dict."""
        yield from self._input_stage(env)
        yield from self._map_stage(env)
        yield from self._reduce_stage(env)
        return self.stats

    def _input_stage(self, env):
        stats = self.stats["input"]
        stats.started_at = env.now
        loader = self._client("loader")
        self.input_blob = yield from loader.create_blob(self.config.chunk_size_mb)
        yield from loader.append(self.input_blob, self.config.input_mb)
        stats.finished_at = env.now
        stats.bytes_mb = self.config.input_mb

    def _map_stage(self, env):
        stats = self.stats["map"]
        stats.started_at = env.now
        split_mb = self.config.input_mb / self.config.map_tasks
        tasks = [
            env.process(self._map_task(env, index, split_mb),
                        name=f"{self.job_id}-map-{index}")
            for index in range(self.config.map_tasks)
        ]
        yield env.all_of(tasks)
        stats.finished_at = env.now
        stats.bytes_mb = self.config.input_mb

    def _map_task(self, env, index: int, split_mb: float):
        client = self._client(f"map-{index}")
        try:
            # 1. read this task's split of the input
            yield from client.read(self.input_blob, index * split_mb, split_mb)
            # 2. compute
            cpu = self.config.map_cpu_s_per_mb * split_mb
            if cpu > 0:
                yield from client.node.compute(cpu)
            # 3. write intermediate output (padded to chunk multiple)
            out_mb = self._padded(split_mb * self.config.map_selectivity)
            blob_id = yield from client.create_blob(self.config.chunk_size_mb)
            yield from client.append(blob_id, out_mb)
            self.intermediate[index] = blob_id
        except OP_ERRORS:
            self.failed_tasks += 1

    def _reduce_stage(self, env):
        stats = self.stats["reduce"]
        stats.started_at = env.now
        sink = self._client("sink")
        self.output_blob = yield from sink.create_blob(self.config.chunk_size_mb)
        groups: List[List[int]] = [[] for _ in range(self.config.reduce_tasks)]
        for map_index, blob_id in sorted(self.intermediate.items()):
            groups[map_index % self.config.reduce_tasks].append(blob_id)
        tasks = [
            env.process(self._reduce_task(env, index, group),
                        name=f"{self.job_id}-reduce-{index}")
            for index, group in enumerate(groups)
        ]
        yield env.all_of(tasks)
        stats.finished_at = env.now
        stats.bytes_mb = sum(
            self.deployment.authority_vm(b).latest(b)[1]
            for b in self.intermediate.values()
        )

    def _reduce_task(self, env, index: int, group: List[int]):
        client = self._client(f"reduce-{index}")
        pulled_mb = 0.0
        try:
            for blob_id in group:
                _v, size_mb, _c = self.deployment.authority_vm(blob_id).latest(blob_id)
                if size_mb > 0:
                    yield from client.read(blob_id, 0.0, size_mb)
                    pulled_mb += size_mb
            cpu = REDUCE_CPU_S_PER_MB * pulled_mb
            if cpu > 0:
                yield from client.node.compute(cpu)
            out_mb = self._padded(pulled_mb * REDUCE_SELECTIVITY)
            if out_mb > 0:
                # Concurrent appends to the shared output BLOB: the
                # version-manager serialization path under contention.
                yield from client.append(self.output_blob, out_mb)
        except OP_ERRORS:
            self.failed_tasks += 1

    def _padded(self, size_mb: float) -> float:
        chunk = self.config.chunk_size_mb
        import math

        return max(1, math.ceil(size_mb / chunk - 1e-9)) * chunk

    # -- reporting -------------------------------------------------------------
    def summary(self) -> dict:
        total = (self.stats["reduce"].finished_at
                 - self.stats["input"].started_at)
        return {
            "input_s": round(self.stats["input"].duration_s, 2),
            "map_s": round(self.stats["map"].duration_s, 2),
            "reduce_s": round(self.stats["reduce"].duration_s, 2),
            "total_s": round(total, 2),
            "map_read_mbps": round(self.stats["map"].throughput_mbps, 1),
            "failed_tasks": self.failed_tasks,
            "output_mb": (
                self.deployment.authority_vm(self.output_blob).latest(
                    self.output_blob
                )[1]
                if self.output_blob else 0.0
            ),
        }
