"""Deterministic named random streams.

Every stochastic decision in the simulator draws from a named stream so
that (a) runs are bit-for-bit reproducible from a single scenario seed and
(b) changing how one component consumes randomness does not perturb the
draws seen by unrelated components (the classic "common random numbers"
discipline for simulation experiments).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit sub-seed from (root seed, stream name)."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A registry of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for *name*, created deterministically on demand."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(_derive_seed(self.seed, name))
            self._streams[name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
