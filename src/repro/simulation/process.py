"""Generator-driven simulated processes.

A process wraps a Python generator that yields :class:`~repro.simulation.events.Event`
instances.  Each yielded event suspends the process until the event is
processed; the event's value is sent back into the generator (or its
exception thrown).  A :class:`Process` is itself an event that triggers
with the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, PENDING, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process", "ProcessGenerator"]

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulated activity; also an event for its completion."""

    __slots__ = ("_generator", "_target", "_resume", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None when running
        #: its first step or already terminated).
        self._target: Optional[Event] = None
        #: The callback every awaited event gets: bound once, not once
        #: per wait; dropped when the process ends.
        self._resume = self._step
        # Kick off the first step at the current time.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    # -- engine plumbing ---------------------------------------------------
    def _step(self, event: Event) -> None:
        """Advance the generator one step with *event*'s outcome."""
        if self._value is not PENDING:
            # A late interrupt/throw arrived after termination: ignore.
            return
        env = self.env
        if env.profiler is not None:
            env.profiler.on_process_step(self)
        env._active_process = self
        # Detach from the old target: if we are being interrupted while the
        # target is still pending, stop listening to it.
        target = self._target
        if (
            target is not None
            and event is not target
            and target.callbacks is not None
            and self._resume in target.callbacks
        ):
            target.callbacks.remove(self._resume)
        self._target = None

        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                # The exception is being handed to this process; mark it
                # observed so a failed event doesn't crash the run.
                event.defused()
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:
            # Whatever escapes the generator fails the process — a
            # thrown failure it did not handle included.
            self._finish(False, exc)
            return

        env._active_process = None
        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
            try:
                self._generator.throw(error)
            except BaseException:
                pass
            self._finish(False, error)
            return

        if next_event.callbacks is not None:
            self._target = next_event
            next_event.callbacks.append(self._resume)
        else:
            # Already processed: resume immediately via a proxy event.
            proxy = Event(self.env)
            proxy._ok = next_event._ok
            proxy._value = next_event._value
            if not next_event._ok:
                next_event.defused()
                proxy._defused = True
            proxy.callbacks.append(self._resume)
            self.env.schedule(proxy, urgent=True)

    def _finish(self, ok: bool, value: Any) -> None:
        """Terminate: trigger the completion event with the outcome."""
        env = self.env
        env._active_process = None
        self._resume = None  # break the cycle: freed by refcount, not gc
        self._ok = ok
        self._value = value
        env.schedule(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"
