"""Retry policies: exponential backoff with deterministic jitter.

A :class:`RetryPolicy` bounds how hard a caller hammers a flaky service:
attempts are capped, backoff grows exponentially up to a ceiling, and an
optional overall deadline stops retrying regardless of attempt budget.
Jitter is drawn from a *seeded* :class:`numpy.random.Generator` (the
repo-wide common-random-numbers discipline, see
:mod:`repro.simulation.rng`), so fault scenarios replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["RetryPolicy"]

#: Exponential growth factor of the backoff from one attempt to the next.
BACKOFF_MULTIPLIER = 2.0


@dataclass
class RetryPolicy:
    """Exponential-backoff retry budget for RPCs.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first one (1 = no retry).
    base_delay_s:
        Backoff before the second attempt; grows by
        ``BACKOFF_MULTIPLIER`` each further attempt.
    max_delay_s:
        Ceiling on any single backoff.
    jitter:
        Fractional spread around each backoff: the delay is scaled by a
        factor uniform in ``[1 - jitter, 1 + jitter]``.  Ignored when no
        ``rng`` is attached (keeps rng-free policies fully deterministic).
    deadline_s:
        Overall budget from the first attempt; once exceeded, no further
        attempt is made even if ``max_attempts`` remain.
    rng:
        Seeded generator supplying the jitter draws (typically
        ``testbed.rng.stream("rpc.retry")``).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.1
    deadline_s: Optional[float] = None
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_s(self, failures: int) -> float:
        """Backoff after the *failures*-th failed attempt (1-based)."""
        if failures < 1:
            raise ValueError("failures is 1-based")
        delay = min(
            self.max_delay_s,
            self.base_delay_s * BACKOFF_MULTIPLIER ** (failures - 1),
        )
        if self.jitter > 0 and self.rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * float(self.rng.random()) - 1.0)
        return max(0.0, delay)
