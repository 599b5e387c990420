"""Sim-time tracing: spans, instant events, and the disabled-path NullTracer.

A :class:`Span` is one timed operation on one *track* (by repo convention
the name of the simulated node the work runs on — the Chrome-trace
exporter maps each track to its own "thread").  Spans nest: the tracer
keeps one stack of open spans per active simulated
:class:`~repro.simulation.process.Process`, so a child span begun inside
the same process automatically links to its parent; work handed to
another process passes ``parent=`` explicitly.

Timestamps are **simulation time only** — never wall clock — so the same
scenario seed produces a byte-identical trace (wall-clock profiling
lives in :class:`~repro.telemetry.profiler.KernelProfiler` instead).

Following the ``NullSink`` idiom of :mod:`repro.blobseer.instrument`, a
:class:`NullTracer` is the default on every
:class:`~repro.simulation.engine.Environment`: its ``enabled`` flag lets
hot paths skip even building an attribute dict, which keeps the
"without monitoring" baselines of experiment IV-B untouched.

This module must stay stdlib-only: the simulation kernel imports it for
the :data:`NULL_TRACER` default.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Instant", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed, attributed operation on a track.

    Every span carries a ``trace_id``: the id of the root span of its
    causal tree.  Children inherit it from their parent (stack-implied
    or explicitly passed), so one client operation and every piece of
    work it causes — RPC handlers on the manager nodes, chunk ingests on
    provider nodes, network flows — share a single trace id and form one
    end-to-end distributed trace.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "trace_id",
        "name",
        "cat",
        "track",
        "start",
        "end",
        "attrs",
        "_tracer",
        "_stack_key",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        track: str,
        cat: str,
        start: float,
        parent_id: int = 0,
        trace_id: int = 0,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        # A root span starts its own trace.
        self.trace_id = trace_id if trace_id else span_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self._tracer: Optional["Tracer"] = None
        self._stack_key: int = 0

    @property
    def duration_s(self) -> float:
        """Span duration; 0 until finished."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs: Any) -> "Span":
        if self._tracer is not None:
            self._tracer.finish(self, **attrs)
        return self

    def fail(self, exc: BaseException) -> "Span":
        """Finish after *exc* escaped the span, recorded as its ``error``
        (what leaving the ``with`` form through an exception does)."""
        if self.end is None:
            self.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
        return self.finish()

    # Context-manager form: ``with tracer.span("client.write", track): ...``
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None:
            self.fail(exc)
        else:
            self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.start:.6f}..{self.end:.6f}" if self.finished else "open"
        return f"<Span #{self.span_id} {self.name!r} on {self.track!r} {state}>"


class Instant:
    """A zero-duration annotation (adaptation decision, violation, ...)."""

    __slots__ = ("time", "name", "track", "cat", "attrs")

    def __init__(
        self, time: float, name: str, track: str, cat: str, attrs: Dict[str, Any]
    ) -> None:
        self.time = time
        self.name = name
        self.track = track
        self.cat = cat
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instant {self.name!r} @{self.time:.6f} on {self.track!r}>"


class Tracer:
    """Collects sim-time spans and instant events from every layer.

    Enable with :func:`repro.telemetry.enable` (which installs it as
    ``env.tracer``); export with :mod:`repro.telemetry.export`.
    """

    #: Hot paths check this before building attribute dicts.
    enabled = True

    def __init__(self, env, max_spans: int = 1_000_000) -> None:
        self.env = env
        self.max_spans = max_spans
        #: Finished spans, in finish order (deterministic per seed).
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        #: Spans/instants discarded once ``max_spans`` was hit.
        self.dropped = 0
        self._ids = itertools.count(1)
        #: Per-process stacks of open spans; key 0 = outside any process.
        self._stacks: Dict[int, List[Span]] = {}

    # -- recording -------------------------------------------------------------
    def begin(
        self,
        name: str,
        track: Optional[str] = None,
        cat: str = "op",
        parent: Optional[Span] = None,
        detached: bool = False,
        **attrs: Any,
    ) -> Span:
        """Open a span at ``env.now``; pair with :meth:`finish`.

        A *detached* span still links to the currently open span as its
        parent but does not join the process's nesting stack — use it
        for asynchronous work (e.g. network flows) that outlives or
        overlaps the process step that started it.
        """
        proc = self.env.active_process
        key = id(proc) if proc is not None else 0
        stack = self._stacks.get(key)
        if parent is None and stack:
            parent = stack[-1]
        if track is None:
            track = parent.track if parent is not None else "main"
        span = Span(
            next(self._ids),
            name,
            track,
            cat,
            self.env.now,
            parent_id=parent.span_id if parent is not None else 0,
            trace_id=parent.trace_id if parent is not None else 0,
        )
        if attrs:
            span.attrs.update(attrs)
        span._tracer = self
        if detached:
            span._stack_key = -1
        else:
            span._stack_key = key
            if stack is None:
                self._stacks[key] = [span]
            else:
                stack.append(span)
        return span

    #: ``span`` is an alias for :meth:`begin`, reading naturally in
    #: ``with tracer.span(...)`` form.
    span = begin

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close *span* at ``env.now`` and record it.

        A span still open inside it on the same stack ends with it,
        innermost first: an operation that opens its phases with explicit
        :meth:`begin` / :meth:`finish` pairs leaves none open, whatever
        escaped it, by finishing its root span in a ``finally``.
        """
        if span.finished:
            return span
        stack = self._stacks.get(span._stack_key)
        if stack is not None and span in stack:
            while stack[-1] is not span:
                self._record(stack.pop())
            stack.pop()
            if not stack:
                del self._stacks[span._stack_key]
        if attrs:
            span.attrs.update(attrs)
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        span.end = self.env.now
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    def instant(
        self, name: str, track: str = "main", cat: str = "mark", **attrs: Any
    ) -> Instant:
        """Record a zero-duration event at ``env.now``."""
        mark = Instant(self.env.now, name, track, cat, attrs)
        if len(self.instants) < self.max_spans:
            self.instants.append(mark)
        else:
            self.dropped += 1
        return mark

    def current(self) -> Optional[Span]:
        """The innermost open span of the active process, if any.

        This is the trace context to capture when handing work to
        another simulated process (``env.process(...)`` starts a fresh
        span stack, so the link must travel explicitly as ``parent=``).
        """
        proc = self.env.active_process
        stack = self._stacks.get(id(proc) if proc is not None else 0)
        return stack[-1] if stack else None

    # -- querying --------------------------------------------------------------
    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet finished (useful when diagnosing hangs)."""
        return [s for stack in self._stacks.values() for s in stack]

    def tracks(self) -> List[str]:
        seen = {s.track for s in self.spans}
        seen.update(i.track for i in self.instants)
        return sorted(seen)

    def __len__(self) -> int:
        return len(self.spans)


class _NullSpan:
    """Singleton stand-in for a span when tracing is disabled."""

    __slots__ = ()

    span_id = 0
    parent_id = 0
    trace_id = 0
    finished = True
    duration_s = 0.0

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Discards everything: the un-traced baseline (cf. ``NullSink``)."""

    enabled = False
    spans: tuple = ()
    instants: tuple = ()
    dropped = 0

    def begin(self, *args: Any, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    span = begin

    def finish(self, span: Any = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, *args: Any, **attrs: Any) -> None:
        return None

    def current(self) -> None:
        return None

    def open_spans(self) -> list:
        return []

    def tracks(self) -> list:
        return []

    def __len__(self) -> int:
        return 0


#: Shared default for every Environment — stateless, so sharing is safe.
NULL_TRACER = NullTracer()
