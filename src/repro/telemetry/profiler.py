"""Kernel profiling: how much work the simulator itself is doing.

The :class:`KernelProfiler` hooks into :meth:`Environment.step` and
:meth:`Process._step` (both guard with ``if profiler is not None`` so
the disabled path costs one attribute read).  It answers the questions a
perf PR needs answered before touching the kernel:

- how many events were popped, and how deep the heap got;
- which processes are stepped most (the scheduler's hot actors);
- how much *wall-clock* time each simulated second costs — the
  sim-time/wall-time exchange rate, bucketed so slow phases stand out.

Wall-clock numbers never flow into the tracer: traces must stay
byte-identical across runs of the same seed.
"""

from __future__ import annotations

import time
from collections import Counter as TallyCounter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Counters + wall-clock buckets for the simulation kernel.

    The expensive probes (``perf_counter`` call, heap-depth high-water
    check) are sampled once every ``PROBE_EVERY`` popped events instead
    of on every one — the event counter itself stays exact.  At 8 the
    wall-clock attribution is still fine-grained (events are
    sub-microsecond apart) while the per-event hook cost drops to one
    increment and one modulo on the fast path.
    """

    #: Width of a wall-clock bucket in *simulated* seconds.
    WALL_BUCKET_S = 1.0
    #: Sampling period of the heap-depth / wall-clock probes.
    PROBE_EVERY = 8

    def __init__(self) -> None:
        self.events_popped = 0
        #: Pops that ran no callback: heap entries nothing waited on (an
        #: unyielded ``Container.put``, a fire-and-forget completion).
        self.dead_events = 0
        self.max_heap_depth = 0
        #: process name -> number of generator steps driven.
        self.process_steps: TallyCounter = TallyCounter()
        #: sim-time bucket index -> wall seconds spent while the clock
        #: was inside that bucket (sampled; see ``PROBE_EVERY``).
        self.wall_by_bucket: Dict[int, float] = {}
        self._last_wall: Optional[float] = None
        self._started_wall = time.perf_counter()

    # -- kernel hooks (called from the engine; keep these cheap) ---------------
    def on_event(self, now: float, heap_depth: int, dead: bool) -> None:
        self.events_popped += 1
        self.dead_events += dead
        if self.events_popped % self.PROBE_EVERY:
            return  # fast path: counting only, no probes
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        wall = time.perf_counter()
        if self._last_wall is not None:
            bucket = int(now / self.WALL_BUCKET_S)
            self.wall_by_bucket[bucket] = (
                self.wall_by_bucket.get(bucket, 0.0) + wall - self._last_wall
            )
        self._last_wall = wall

    def on_process_step(self, process) -> None:
        self.process_steps[process.name] += 1

    # -- reporting -------------------------------------------------------------
    @property
    def wall_elapsed_s(self) -> float:
        return time.perf_counter() - self._started_wall

    def wall_series(self) -> List[Tuple[float, float]]:
        """(sim-time bucket start, wall seconds) in time order."""
        return [
            (bucket * self.WALL_BUCKET_S, self.wall_by_bucket[bucket])
            for bucket in sorted(self.wall_by_bucket)
        ]

    def hottest_processes(self, limit: int = 10) -> List[Tuple[str, int]]:
        return self.process_steps.most_common(limit)

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable summary (attached to SimulationError by the
        ``max_events`` guard, and dumped by the benchmark harness)."""
        return {
            "events_popped": self.events_popped,
            "dead_events": self.dead_events,
            "max_heap_depth": self.max_heap_depth,
            "distinct_processes": len(self.process_steps),
            "process_steps_total": sum(self.process_steps.values()),
            "hottest_processes": self.hottest_processes(5),
            "wall_elapsed_s": self.wall_elapsed_s,
        }
