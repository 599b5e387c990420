"""Kernel profiling: how much work the simulator itself is doing.

The :class:`KernelProfiler` hooks into :meth:`Environment.step` and
:meth:`Process._step` (both guard with ``if profiler is not None`` so
the disabled path costs one attribute read).  It answers the questions a
perf PR needs answered before touching the kernel:

- how many events were popped, how many of them ran no callback, and
  how deep the heap got;
- which processes are stepped most (the scheduler's hot actors).

Wall-clock numbers never flow into the tracer: traces must stay
byte-identical across runs of the same seed.
"""

from __future__ import annotations

import time
from collections import Counter as TallyCounter
from typing import Any, Dict, List, Tuple

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Counters for the simulation kernel, exact on every pop."""

    def __init__(self) -> None:
        self.events_popped = 0
        #: Pops that ran no callback: heap entries nothing waited on (an
        #: unyielded ``Container.put``, a fire-and-forget completion).
        self.dead_events = 0
        #: High-water mark of the heap, measured after each pop.
        self.max_heap_depth = 0
        #: process name -> number of generator steps driven.
        self.process_steps: TallyCounter = TallyCounter()
        self._started_wall = time.perf_counter()

    # -- kernel hooks (called from the engine; keep these cheap) ---------------
    def on_event(self, heap_depth: int, dead: bool) -> None:
        self.events_popped += 1
        self.dead_events += dead
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth

    def on_process_step(self, process) -> None:
        self.process_steps[process.name] += 1

    # -- reporting -------------------------------------------------------------
    @property
    def wall_elapsed_s(self) -> float:
        return time.perf_counter() - self._started_wall

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
