"""Host-speed calibration: a fixed piece of work timed between the runs.

The reference box is a two-core virtual machine whose speed drifts by a
third over minutes (noisy neighbours: the simulator, whose working set
does not fit a shared cache, feels it more than a tight loop does), so a
raw ``perf_counter`` reading says as much about the minute it was taken
in as about the code.  Measured on one commit, 24 consecutive
``meta_fanout`` children: the medians of groups of four moved from
6.8 s to 4.4 s (inter-quartile spread 37% of the median); divided by the
calibration measured between the same children the spread was 5%.  On a
stretch without drift the raw spread was 5% and the scaled one 9%: the
calibration costs a little noise and removes the drift.

So the harness times this loop before the first child of an invocation
and after every child, in its own process, and host times are reported
in *reference-host seconds*::

    reported = raw * CALIBRATION_REF_S / median(calibrations of the invocation)

The loop shares no code with the simulator — it must not get faster when
the simulator does, and the harness process never imports ``repro`` —
but has the same shape: a heap of suspended generators, each resume
allocating, a working set of tens of MB that the cyclic collector walks,
so it slows down with the same cache and memory pressure.
"""

from __future__ import annotations

import heapq
import statistics
import time

__all__ = ["CALIBRATION_REF_S", "calibrate", "host_factor"]

#: What :func:`calibrate` takes on the reference box when it is quiet.
#: A constant of the benchmark: changing it rescales every host time.
CALIBRATION_REF_S = 1.0


def calibrate(events: int = 300_000, processes: int = 2000) -> float:
    """Seconds this host takes per 300,000 events of the calibration work."""

    def process(i: int):
        now = i * 0.001
        store = {}
        slot = 0
        while True:
            now += 0.5 + (i % 7) * 0.1
            slot = (slot + 1) & 63
            store[slot] = (now, [i, now], str(i))
            yield now

    heap = []
    for i in range(processes):
        generator = process(i)
        heapq.heappush(heap, (next(generator), i, generator))
    start = time.perf_counter()
    for _ in range(events):
        _when, i, generator = heapq.heappop(heap)
        heapq.heappush(heap, (generator.send(None), i, generator))
    return (time.perf_counter() - start) * 300_000 / events


def host_factor(calibrations) -> float:
    """Multiplier from raw host seconds to reference-host seconds."""
    return CALIBRATION_REF_S / statistics.median(calibrations)
