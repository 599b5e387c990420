"""The discrete-event simulation environment.

:class:`Environment` owns the event heap and the simulation clock.  All
actors in the reproduced system (BlobSeer actors, monitoring services,
the security engine, adaptation loops, clients) run as
:class:`~repro.simulation.process.Process` instances inside one
environment, so a whole "deployment" is a single deterministic program.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Optional

from ..telemetry.tracer import NULL_TRACER
from .events import (
    AllOf,
    AnyOf,
    Event,
    PENDING,
    ScheduledCall,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .process import Process, ProcessGenerator

__all__ = ["Environment"]

#: Priorities for the event heap (lower pops first at equal time).
_URGENT = 0
_NORMAL = 1


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a ``float`` in seconds (by convention across this repo).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Total events processed over the environment's lifetime.
        self.events_processed = 0
        #: Telemetry hooks (see ``repro.telemetry``).  The defaults cost
        #: nothing: a shared NullTracer and two ``is not None`` checks.
        self.tracer = NULL_TRACER
        self.metrics = None
        self.profiler = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event that fires *delay* seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving *generator*."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, urgent: bool = False) -> None:
        """Put a triggered event on the heap *delay* seconds from now."""
        self._eid += 1
        heapq.heappush(
            self._queue,
            (self._now + delay, _URGENT if urgent else _NORMAL, self._eid, event),
        )

    def call_at(self, when: float, fn) -> None:
        """Kernel fast path: run bare callback *fn* at time *when*.

        Unlike :meth:`timeout`, this allocates no :class:`Timeout` event —
        just a :class:`ScheduledCall` holding the callback.  Nothing can
        wait on it and it cannot fail; it exists for high-frequency
        internal machinery (the flow network's completion timers and
        recompute markers) where the full event protocol is pure
        overhead.  *fn* receives the ScheduledCall (ignore it).
        """
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        self._eid += 1
        heapq.heappush(self._queue, (when, _NORMAL, self._eid, ScheduledCall(fn)))

    def call_later(self, delay: float, fn) -> None:
        """Kernel fast path: run bare callback *fn* after *delay* seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        heapq.heappush(
            self._queue, (self._now + delay, _NORMAL, self._eid, ScheduledCall(fn))
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        try:
            when, _prio, _eid, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("no more events") from None
        if when < self._now:  # pragma: no cover - heap invariant guard
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        if self.profiler is not None:
            self.profiler.on_event(len(self._queue), not callbacks)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unobserved failure: surface it instead of silently dropping.
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise SimulationError(f"event failed with non-exception {exc!r}")

    def run(
        self,
        until: Optional[float | Event] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run the simulation.

        *until* may be:

        - ``None``: run until the heap is empty;
        - a number: run until the clock reaches that time;
        - an :class:`Event`: run until it is processed, returning its value.

        *max_events* bounds how many events this call may process; a
        runaway scenario (e.g. a zero-delay retry loop) then raises a
        :class:`SimulationError` carrying the kernel counters in its
        ``kernel_stats`` attribute instead of spinning forever.
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            assert stop_event.callbacks is not None
            stop_event.callbacks.append(self._stop_on)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self._now})"
                )
            marker = Event(self)
            marker._ok = True
            marker._value = None
            marker.callbacks.append(self._stop_on)
            self.schedule(marker, delay=horizon - self._now, urgent=True)
            stop_event = marker

        start_count = self.events_processed
        try:
            while self._queue:
                if (
                    max_events is not None
                    and self.events_processed - start_count >= max_events
                ):
                    raise self._runaway_error(max_events)
                self.step()
        except StopSimulation as stop:
            return stop.value
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError(
                "run(until=event) exhausted all events before the event triggered"
            )
        return None

    def _runaway_error(self, max_events: int) -> SimulationError:
        """Descriptive error for the ``max_events`` guard, with whatever
        telemetry kernel counters are available attached."""
        stats: dict = {
            "now": self._now,
            "heap_depth": len(self._queue),
            "events_processed": self.events_processed,
        }
        if self.profiler is not None:
            stats.update(self.profiler.snapshot())
        if self.tracer.enabled:
            stats["open_spans"] = [
                f"{s.name}@{s.start:.3f}" for s in self.tracer.open_spans()[:10]
            ]
        detail = ", ".join(f"{k}={v}" for k, v in stats.items())
        error = SimulationError(
            f"run() processed {max_events} events without finishing — "
            f"likely a runaway scenario (zero-delay loop or livelock); "
            f"kernel state: {detail}"
        )
        error.kernel_stats = stats
        return error

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event._ok:
            event.defused()
            raise event._value
        raise StopSimulation(event._value)
