"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-callback design: an :class:`Event`
is a one-shot value holder that processes may wait on.  Once triggered
(either :meth:`Event.succeed` or :meth:`Event.fail`), the environment
schedules it and, when popped from the event heap, runs its callbacks.

Events compose through :class:`Condition` (:class:`AllOf` / :class:`AnyOf`),
which is how processes express "wait until all/any of these happen".
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Environment
    from .process import Process

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "ScheduledCall",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "StopSimulation",
]


class _Pending:
    """Sentinel for 'event has no value yet'."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event triggers.
PENDING = _Pending()

#: Scheduling priorities.  Lower runs first at equal simulation time.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence that processes can wait for.

    States: *pending* (just created), *triggered* (value set, scheduled on
    the heap), *processed* (callbacks ran).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it is processed.  Set to
        #: ``None`` once processed — appending afterwards is a bug.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        # A failed event whose exception nobody observed re-raises at the
        # environment level, unless some process waited on it (defused).
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception, for failed events)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Set the event's value and schedule it at the current time."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fail the event with *exception*; waiters see it raised."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Usable directly as a callback: ``other.callbacks.append(mine.trigger)``.
        """
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def defused(self) -> None:
        """Mark a failed event as observed so it won't crash the run."""
        self._defused = True

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Born triggered: set the fields and push (no pending state).
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay}>"


class ScheduledCall:
    """A bare scheduled callback — the kernel's cheapest heap entry.

    Internal timers (flow-completion wake-ups, rate-recompute markers,
    periodic probes) don't need the full :class:`Event` machinery: nobody
    waits on them, they can't fail, and they carry no value.
    :meth:`Environment.call_at` heap-pushes one of these instead of
    allocating a :class:`Timeout`, skipping the delay validation, the
    ``env`` back-reference and the extra ``schedule()`` indirection.  It
    duck-types the four attributes :meth:`Environment.step` reads.
    """

    __slots__ = ("callbacks", "_value", "_ok", "_defused")

    def __init__(self, fn: Callable[["ScheduledCall"], None]) -> None:
        self.callbacks: Optional[list] = [fn]
        self._value = None
        self._ok = True
        self._defused = True

    @property
    def triggered(self) -> bool:  # pragma: no cover - introspection only
        return True

    @property
    def processed(self) -> bool:  # pragma: no cover - introspection only
        return self.callbacks is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ScheduledCall at {id(self):#x}>"


class Condition(Event):
    """An event that triggers when *evaluate* holds over child events.

    Fails as soon as any child fails (with that child's exception).
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list["Event"], int], bool],
        events: Iterable["Event"],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        # Immediately evaluate in case of already-processed children.
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

        if not self._events and not self.triggered:
            self.succeed(ConditionValue([]))

    def _check(self, event: "Event") -> None:
        if self.triggered:
            if not event._ok:
                event.defused()
            return
        if not event._ok:
            event.defused()
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(ConditionValue([e for e in self._events if e.processed]))

    @staticmethod
    def all_events(events: list["Event"], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list["Event"], count: int) -> bool:
        return count > 0 or not events


class ConditionValue:
    """Ordered mapping of triggered events to their values."""

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict[Event, Any]:
        return {event: event.value for event in self.events}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class AllOf(Condition):
    """Triggers once all child events have succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers once any child event has succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
