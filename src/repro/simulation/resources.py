"""Shared-resource primitives: Resource, Container.

These model contention points in the simulated system — a provider's disk
queue, a version manager's critical section, a node's disk space.
Requests are events, so processes simply ``yield`` them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Request", "Resource", "Container"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Succeeds when the resource grants a slot.  Supports use as a context
    manager so ``with resource.request() as req: yield req`` releases on
    exit even if the process is interrupted while using the slot.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._enqueue(self)

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
            self._grant_next()

    # -- internal ------------------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)
        self._grant_next()

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.popleft()
            self.users.append(request)
            request.succeed()


class Container:
    """A continuous-quantity store (e.g. disk bytes free).

    ``put``/``get`` return events that succeed once the amount can be
    moved while respecting ``0 <= level <= capacity``.
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
        self._puts.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.env)
        self._gets.append((event, amount))
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
