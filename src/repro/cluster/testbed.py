"""Testbed builder: a Grid'5000-like multi-site simulated cluster.

A :class:`Testbed` bundles the simulation environment, the flow network
(with site-aware latency), the RNG registry and the set of physical
nodes — everything a scenario needs before deploying BlobSeer on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..simulation.engine import Environment
from ..simulation.network import FlowNetwork, NetNode
from ..simulation.rng import RandomStreams
from .node import PhysicalNode

__all__ = ["TestbedConfig", "Testbed"]


@dataclass
class TestbedConfig:
    """Knobs for a simulated deployment.

    Defaults approximate a single Grid'5000 cluster with GbE NICs:
    0.1 ms intra-site RTT contribution, 5 ms cross-site.  NIC rates
    (125 MB/s) and memory are :class:`PhysicalNode`'s own defaults, the
    backbone is unconstrained and max-min fairness is always solved
    incrementally (:class:`FlowNetwork`'s defaults).
    """

    __test__ = False  # not a pytest class despite the name

    seed: int = 0
    sites: int = 1
    cores: int = 4
    disk_mb: float = 200_000.0
    latency_local_s: float = 0.0001
    latency_cross_s: float = 0.005
    #: FlowNetwork rate-recompute coalescing window (0 = exact).
    rate_granularity_s: float = 0.0


class Testbed:
    """A simulated multi-site cluster."""

    __test__ = False  # not a pytest class despite the name

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()
        self.env = Environment()
        self.rng = RandomStreams(self.config.seed)
        self.net = FlowNetwork(
            self.env,
            latency=self._latency,
            recompute_granularity_s=self.config.rate_granularity_s,
        )
        self.nodes: Dict[str, PhysicalNode] = {}
        self._site_rr = 0

    def _latency(self, src: NetNode, dst: NetNode) -> float:
        if src.site == dst.site:
            return self.config.latency_local_s
        return self.config.latency_cross_s

    # -- node management -------------------------------------------------------
    def add_node(
        self,
        name: str,
        site: Optional[str] = None,
        **overrides,
    ) -> PhysicalNode:
        """Create one physical node; site round-robins across the config's
        site count unless given explicitly."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        if site is None:
            site = f"site-{self._site_rr % self.config.sites}"
            self._site_rr += 1
        params = dict(cores=self.config.cores, disk_mb=self.config.disk_mb)
        params.update(overrides)
        node = PhysicalNode(self.env, self.net, name, site=site, **params)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> PhysicalNode:
        return self.nodes[name]

    def nodes_at(self, site: str) -> List[PhysicalNode]:
        return [n for n in self.nodes.values() if n.site == site]

    # -- convenience -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now

    def run(self, until=None):
        return self.env.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        up = sum(1 for n in self.nodes.values() if n.alive)
        return f"<Testbed {up}/{len(self.nodes)} nodes up, t={self.env.now:.3f}s>"
