"""Chunk-allocation strategies for the provider manager.

The provider manager "implements the allocation strategies that map new
chunks to available data providers" (paper §III-A).  Strategies are
pluggable; ABL-1 benchmarks them against each other under skew.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from .errors import NoProvidersAvailable
from .provider import DataProvider

__all__ = [
    "AllocationStrategy",
    "RoundRobinAllocation",
    "RandomAllocation",
    "LeastLoadedAllocation",
    "PowerOfTwoChoicesAllocation",
    "make_strategy",
]


class AllocationStrategy(ABC):
    """Chooses, for each chunk, an ordered replica set of providers."""

    name: str = "abstract"

    @abstractmethod
    def select(
        self,
        providers: Sequence[DataProvider],
        chunk_count: int,
        replication: int,
    ) -> List[List[DataProvider]]:
        """Return ``chunk_count`` lists of ``replication`` distinct providers."""

    @staticmethod
    def _usable(providers: Sequence[DataProvider], replication: int) -> Sequence[DataProvider]:
        """*providers* as given: the caller's pool is already who is
        believed allocatable (``ProviderManager.active_providers``), so
        a crashed provider the detector has not noticed stays in it."""
        if len(providers) < replication:
            raise NoProvidersAvailable(
                f"need {replication} providers, only {len(providers)} available"
            )
        return providers


class RoundRobinAllocation(AllocationStrategy):
    """Cycle through providers; replicas take consecutive positions."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, providers, chunk_count, replication):
        usable = self._usable(providers, replication)
        result = []
        for _ in range(chunk_count):
            replicas = [
                usable[(self._cursor + r) % len(usable)] for r in range(replication)
            ]
            self._cursor = (self._cursor + 1) % len(usable)
            result.append(replicas)
        return result


class RandomAllocation(AllocationStrategy):
    """Uniform random distinct providers per chunk."""

    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def select(self, providers, chunk_count, replication):
        usable = self._usable(providers, replication)
        result = []
        for _ in range(chunk_count):
            idx = self.rng.choice(len(usable), size=replication, replace=False)
            result.append([usable[int(i)] for i in idx])
        return result


class LeastLoadedAllocation(AllocationStrategy):
    """Pick the providers with the lowest load score (live transfers + fill)."""

    name = "least_loaded"

    def select(self, providers, chunk_count, replication):
        usable = self._usable(providers, replication)
        result = []
        # Track assignments made within this call so a burst of chunks
        # does not all land on the momentarily-least-loaded provider.
        pending = {p.provider_id: 0 for p in usable}
        for _ in range(chunk_count):
            ranked = sorted(
                usable,
                key=lambda p: (p.load_score() + 0.05 * pending[p.provider_id]),
            )
            replicas = ranked[:replication]
            for p in replicas:
                pending[p.provider_id] += 1
            result.append(replicas)
        return result


class PowerOfTwoChoicesAllocation(AllocationStrategy):
    """Sample two random candidates per replica, keep the less loaded.

    The classic load-balancing trick: nearly the balance of least-loaded
    with the cost of random.
    """

    name = "two_choices"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def select(self, providers, chunk_count, replication):
        usable = self._usable(providers, replication)
        result = []
        for _ in range(chunk_count):
            replicas: List[DataProvider] = []
            candidates = list(usable)
            for _r in range(replication):
                if len(candidates) <= 2:
                    pick = min(candidates, key=lambda p: p.load_score())
                else:
                    i, j = self.rng.choice(len(candidates), size=2, replace=False)
                    a, b = candidates[int(i)], candidates[int(j)]
                    pick = a if a.load_score() <= b.load_score() else b
                replicas.append(pick)
                candidates.remove(pick)
            result.append(replicas)
        return result


def make_strategy(name: str, rng: np.random.Generator) -> AllocationStrategy:
    """Factory used by scenario configs."""
    if name == "round_robin":
        return RoundRobinAllocation()
    if name == "random":
        return RandomAllocation(rng)
    if name == "least_loaded":
        return LeastLoadedAllocation()
    if name == "two_choices":
        return PowerOfTwoChoicesAllocation(rng)
    raise ValueError(f"unknown allocation strategy {name!r}")
