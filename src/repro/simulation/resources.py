"""Shared-resource primitives: Resource, Container.

These model contention points in the simulated system — a provider's disk
queue, a version manager's critical section, a node's disk space.
Requests are events, so processes simply ``yield`` them.

Grant rule: what can be settled when it is asked for is settled then.  A
request for a free slot (nobody queued ahead), or a container put / get
that fits, is *born processed*: the slot is held, or the amount booked,
from the request instant, and nothing is scheduled for it.  The asker
continues without yielding (``if not request.processed: yield request``),
so its next event is sequenced at the request, not after the rest of the
instant's events.  Only a request that has to wait is granted through the
heap, one event when it reaches the head of the queue.  Yielding a
born-processed event still works (the process resumes through a proxy
event); it just costs the heap turn the rule saves.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Request", "Resource", "Container"]


def _born_processed(event: Event) -> None:
    """Settle *event* on the spot: a success with no callbacks to run."""
    event._ok = True
    event._value = None
    event.callbacks = None


class Request(Event):
    """A claim on a :class:`Resource` slot.

    Born processed when a slot is free and nobody is queued ahead; else
    it succeeds when the resource grants the slot.  Supports use as a
    context manager so ``with resource.request() as req: yield req``
    releases on exit even if the process is interrupted while using the
    slot.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Sets its fields itself, like ``Timeout``: one call per request.
        self.env = resource.env
        self.resource = resource
        self._defused = False
        if not resource.queue and len(resource.users) < resource._capacity:
            resource.users.append(self)
            self.callbacks = None  # born processed: nothing to schedule
            self._value = None
            self._ok = True
        else:
            self.callbacks = []
            self._value = PENDING
            self._ok = None
            resource.queue.append(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A FIFO resource with integer capacity (SimPy-style)."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Free the slot held by *request* (no-op if not a holder); the
        next waiter's grant is the only event a release can cause."""
        try:
            self.users.remove(request)
        except ValueError:
            # Request was never granted: cancel it from the queue instead.
            self._cancel(request)
        else:
            queue = self.queue
            while queue and len(self.users) < self._capacity:
                waiter = queue.popleft()
                self.users.append(waiter)
                waiter.succeed()

    # -- internal ------------------------------------------------------------
    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass


class Container:
    """A continuous-quantity store (e.g. disk bytes free).

    ``put``/``get`` return events that succeed once the amount can be
    moved while respecting ``0 <= level <= capacity``; one that can be
    moved when it is asked for (nothing of its kind queued ahead) is
    born processed.
    """

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self._capacity = float(capacity)
        self._level = float(init)
        self._puts: deque[tuple[Event, float]] = deque()
        self._gets: deque[tuple[Event, float]] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.env)
        if not self._puts and self._level + amount <= self._capacity:
            self._level += amount
            _born_processed(event)
        else:
            self._puts.append((event, amount))
        if self._gets:
            self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.env)
        if not self._gets and amount <= self._level:
            self._level -= amount
            _born_processed(event)
        else:
            self._gets.append((event, amount))
        if self._puts:
            self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts:
                event, amount = self._puts[0]
                if self._level + amount <= self._capacity:
                    self._puts.popleft()
                    self._level += amount
                    event.succeed()
                    progressed = True
            if self._gets:
                event, amount = self._gets[0]
                if amount <= self._level:
                    self._gets.popleft()
                    self._level -= amount
                    event.succeed()
                    progressed = True
