"""Physical node model: CPU, memory, disk, NIC, liveness.

Each simulated machine owns a :class:`~repro.simulation.network.NetNode`
(its NIC) plus local resources.  BlobSeer actors and monitoring services
are *deployed onto* physical nodes; node failure aborts the node's
in-flight transfers and notifies deployed components via listeners.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..simulation.network import FlowNetwork, NetNode
from ..simulation.resources import Container, Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.engine import Environment

__all__ = ["PhysicalNode", "NodeDownError"]


class NodeDownError(Exception):
    """Raised when an operation targets a crashed node."""

    def __init__(self, node: "PhysicalNode", operation: str = "") -> None:
        super().__init__(f"node {node.name} is down ({operation})")
        self.node = node


class PhysicalNode:
    """A simulated machine in the testbed.

    Parameters mirror a commodity Grid'5000 node of the paper's era:
    1 Gbps NIC (=125 MB/s), a handful of cores, tens of GB of disk.
    """

    #: RAM of every node (memory utilisation is reported against it).
    MEMORY_MB = 8192.0

    def __init__(
        self,
        env: Environment,
        network: FlowNetwork,
        name: str,
        site: str = "site-0",
        nic_in: float = 125.0,
        nic_out: float = 125.0,
        cores: int = 4,
        disk_mb: float = 200_000.0,
    ) -> None:
        self.env = env
        self.network = network
        self.name = name
        self.site = site
        self.cores = int(cores)
        self.netnode = network.add_node(
            NetNode(name, capacity_out=nic_out, capacity_in=nic_in, site=site)
        )
        self.cpu = Resource(env, capacity=self.cores)
        self.memory = Container(env, capacity=self.MEMORY_MB, init=0.0)
        #: Disk usage accounting (MB used).
        self.disk = Container(env, capacity=disk_mb, init=0.0)
        self.alive = True
        self._fail_listeners: List[Callable[["PhysicalNode"], None]] = []
        self._recover_listeners: List[Callable[["PhysicalNode"], None]] = []
        #: Cumulative core-seconds of CPU consumed (for load reporting).
        self.cpu_seconds_used = 0.0
        self._nic_in = nic_in
        self._nic_out = nic_out

    # -- resource usage -------------------------------------------------------
    def compute(self, cpu_seconds: float):
        """Generator: occupy one core for *cpu_seconds*.

        Usage: ``yield from node.compute(0.01)`` in the process that
        waits for it; ``env.process(node.compute(0.01))`` only for work
        the caller does not wait in line for (parallel, fire-and-forget)
        — a process costs two kernel events.  With a core free the core
        is held from the call and the timeout is the one kernel event;
        with all cores busy the grant is a second one.
        """
        if cpu_seconds < 0:
            raise ValueError("cpu_seconds must be non-negative")
        if not self.alive:
            raise NodeDownError(self, "compute")
        request = self.cpu.request()
        if not request.processed:
            yield request
        try:
            yield self.env.timeout(cpu_seconds)
            self.cpu_seconds_used += cpu_seconds
        finally:
            self.cpu.release(request)

    @property
    def cpu_utilization(self) -> float:
        """Instantaneous fraction of busy cores, 0..1."""
        return self.cpu.count / self.cores

    @property
    def memory_used_mb(self) -> float:
        return self.memory.level

    @property
    def disk_used_mb(self) -> float:
        return self.disk.level

    @property
    def disk_free_mb(self) -> float:
        return self.disk.capacity - self.disk.level

    @property
    def disk_utilization(self) -> float:
        return self.disk.level / self.disk.capacity

    def network_load(self) -> tuple[float, float]:
        """(out, in) aggregate transfer rate in MB/s on this node's NIC."""
        if not self.alive:
            return (0.0, 0.0)
        return self.network.node_load(self.name)

    @property
    def nic_utilization(self) -> float:
        """Live transfer rate over NIC capacity, both directions summed."""
        out_rate, in_rate = self.network_load()
        return (out_rate + in_rate) / (
            self.netnode.capacity_in + self.netnode.capacity_out)

    # -- liveness ------------------------------------------------------------
    def on_fail(self, listener: Callable[["PhysicalNode"], None]) -> None:
        self._fail_listeners.append(listener)

    def on_recover(self, listener: Callable[["PhysicalNode"], None]) -> None:
        self._recover_listeners.append(listener)

    def fail(self) -> None:
        """Crash the node: abort its flows and notify listeners."""
        if not self.alive:
            return
        self.alive = False
        self.network.remove_node(self.name)
        for listener in list(self._fail_listeners):
            listener(self)

    def recover(self) -> None:
        """Bring the node back with an empty disk (cold restart)."""
        if self.alive:
            return
        self.alive = True
        self.netnode = self.network.add_node(
            NetNode(
                self.name,
                capacity_out=self._nic_out,
                capacity_in=self._nic_in,
                site=self.site,
            )
        )
        # Cold restart loses local state.
        if self.disk.level > 0:
            self.disk.get(self.disk.level)
        for listener in list(self._recover_listeners):
            listener(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "DOWN"
        return f"<PhysicalNode {self.name} @{self.site} {state}>"
