"""Critical-path analysis over causal traces.

Given the spans of one distributed trace (a client ``write``/``read``
and everything it caused on the VM/PM/provider nodes), this module
reconstructs the operation DAG and answers three questions:

* **Phase breakdown** — how the root operation's latency splits across
  its direct child phases (allocation vs. chunk transfer vs. metadata
  vs. publish ...).  Phase durations are *attributed* exclusively: any
  overlap between consecutive phases is clipped and whatever the phases
  do not cover is reported as a synthetic ``(unattributed)`` phase, so
  the durations sum to the root latency exactly (within float rounding,
  well under 1e-9 sim-seconds).
* **Critical path** — the chain of spans that actually bounded the
  latency, found by walking backwards from the root's end and at each
  step jumping into the child whose completion gated progress.  Each
  step carries its *self time*: the part of the wait not explained by a
  deeper child.
* **Contributors & slack** — self time aggregated by span name (what to
  optimise first), and per-span slack (how much an off-path span could
  have slowed down before mattering; large slack on replica pushes, for
  example, means replication was free).

Stdlib-only, pure post-processing: it never touches the simulation, so
analysis cost is wall-clock only and sim results are unaffected.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .tracer import Span, Tracer

__all__ = ["PhaseStat", "PathStep", "CriticalPathReport", "analyze"]

#: Tolerance for float comparisons on sim timestamps.
_EPS = 1e-12


class PhaseStat:
    """One direct child phase of the root, with exclusive attribution."""

    __slots__ = ("name", "track", "start", "end", "span_s", "duration_s", "share")

    def __init__(self, name: str, track: str, start: float, end: float,
                 span_s: float, duration_s: float, share: float) -> None:
        self.name = name
        self.track = track
        self.start = start
        self.end = end
        #: Raw span duration (may overlap neighbouring phases).
        self.span_s = span_s
        #: Exclusive, overlap-clipped duration attributed to this phase.
        self.duration_s = duration_s
        #: ``duration_s`` as a fraction of the root latency.
        self.share = share

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "span_s": self.span_s,
            "duration_s": self.duration_s,
            "share": self.share,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PhaseStat {self.name!r} {self.duration_s:.6f}s ({self.share:.1%})>"


class PathStep:
    """One span on the critical path, with its exclusive self time."""

    __slots__ = ("span", "self_s", "depth")

    def __init__(self, span: Span, self_s: float, depth: int) -> None:
        self.span = span
        self.self_s = self_s
        self.depth = depth

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.span.name,
            "track": self.span.track,
            "start": self.span.start,
            "end": self.span.end,
            "self_s": self.self_s,
            "depth": self.depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PathStep {self.span.name!r} self={self.self_s:.6f}s>"


class CriticalPathReport:
    """Result of :func:`analyze` — phases, path, contributors, slack."""

    def __init__(
        self,
        root: Span,
        phases: List[PhaseStat],
        critical_path: List[PathStep],
        contributors: List[Tuple[str, float]],
        slack: Dict[int, float],
        spans: List[Span],
    ) -> None:
        self.root = root
        self.duration_s = root.duration_s
        self.phases = phases
        self.critical_path = critical_path
        #: (span name, total self seconds) sorted by contribution, desc.
        self.contributors = contributors
        #: span_id -> seconds the span could have run longer without
        #: delaying its parent (0 for spans that gated their parent).
        self.slack = slack
        self.spans = spans

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root.name,
            "trace_id": self.root.trace_id,
            "duration_s": self.duration_s,
            "phases": [p.to_dict() for p in self.phases],
            "critical_path": [s.to_dict() for s in self.critical_path],
            "contributors": [
                {"name": name, "self_s": self_s} for name, self_s in self.contributors
            ],
            "span_count": len(self.spans),
        }

    def render(self) -> str:
        """Human-readable multi-line summary for terminal output."""
        lines = [f"{self.root.name}: {self.duration_s:.3f}s across "
                 f"{len(self.spans)} spans (trace #{self.root.trace_id})"]
        lines.append("  phase breakdown:")
        for p in self.phases:
            lines.append(
                f"    {p.name:<24} {p.duration_s:>9.3f}s  {p.share:>6.1%}"
            )
        lines.append("  critical path:")
        for step in self.critical_path:
            indent = "  " * step.depth
            lines.append(
                f"    {indent}{step.span.name} [{step.span.track}] "
                f"self={step.self_s:.3f}s"
            )
        lines.append("  top contributors (self time):")
        for name, self_s in self.contributors[:5]:
            share = self_s / self.duration_s if self.duration_s else 0.0
            lines.append(f"    {name:<24} {self_s:>9.3f}s  {share:>6.1%}")
        return "\n".join(lines)


def _finished_spans(trace: "Tracer | Iterable[Span]") -> List[Span]:
    spans = trace.spans if isinstance(trace, Tracer) else trace
    return [s for s in spans if s.finished]


def _find_root(spans: List[Span]) -> Span:
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id not in ids]
    if not roots:
        raise ValueError("trace has no root span")
    # With several roots (a whole tracer was passed), analyze the
    # longest operation — in practice the client op under study.
    return max(roots, key=lambda s: (s.duration_s, -s.span_id))


def _phase_breakdown(root: Span, children: List[Span]) -> List[PhaseStat]:
    duration = root.duration_s
    phases: List[PhaseStat] = []
    cursor = root.start
    attributed_total = 0.0
    for child in sorted(children, key=lambda s: (s.start, s.span_id)):
        lo = min(max(child.start, cursor), root.end)
        hi = min(max(child.end, lo), root.end)
        attributed = hi - lo
        attributed_total += attributed
        share = attributed / duration if duration > 0 else 0.0
        phases.append(PhaseStat(
            child.name, child.track, child.start, child.end,
            child.duration_s, attributed, share,
        ))
        cursor = max(cursor, hi)
    residual = duration - attributed_total
    if residual > _EPS or not phases:
        share = residual / duration if duration > 0 else 0.0
        phases.append(PhaseStat(
            "(unattributed)", root.track, root.start, root.end,
            residual, residual, share,
        ))
    return phases


def _walk_path(
    span: Span,
    children_of: Dict[int, List[Span]],
    depth: int,
    out: List[PathStep],
) -> None:
    """Append *span* and its gating descendants to *out*, depth-first."""
    kids = sorted(
        children_of.get(span.span_id, ()),
        key=lambda s: (s.end, s.start, s.span_id),
    )
    cursor = span.end
    self_s = 0.0
    chosen: List[Span] = []
    taken = set()
    while cursor > span.start + _EPS:
        pick = None
        for cand in reversed(kids):
            if cand.span_id in taken:
                continue
            if cand.end <= cursor + _EPS and cand.end > span.start + _EPS:
                pick = cand
                break
        if pick is None:
            break
        self_s += max(0.0, cursor - min(cursor, pick.end))
        taken.add(pick.span_id)
        chosen.append(pick)
        new_cursor = max(span.start, pick.start)
        if new_cursor >= cursor - _EPS and pick.duration_s <= _EPS:
            # Zero-duration child: record it but force progress.
            cursor = new_cursor - _EPS
        else:
            cursor = new_cursor
    self_s += max(0.0, cursor - span.start)
    out.append(PathStep(span, self_s, depth))
    for child in reversed(chosen):  # chronological order
        _walk_path(child, children_of, depth + 1, out)


def analyze(
    trace: "Tracer | Iterable[Span]",
    root: Optional[Span] = None,
) -> CriticalPathReport:
    """Analyze one causal trace.

    *trace* may be a :class:`Tracer` or any iterable of spans.  With
    ``root=None`` the root is auto-detected (the longest span whose
    parent is absent from the set); passing an explicit *root* restricts
    analysis to that span's trace even when the tracer holds many.
    """
    spans = _finished_spans(trace)
    if root is None:
        if not spans:
            raise ValueError("no finished spans to analyze")
        root = _find_root(spans)
    if not root.finished:
        raise ValueError(f"root span {root.name!r} is still open")
    spans = [s for s in spans if s.trace_id == root.trace_id]

    children_of: Dict[int, List[Span]] = {}
    for s in spans:
        if s.span_id != root.span_id:
            children_of.setdefault(s.parent_id, []).append(s)

    phases = _phase_breakdown(root, children_of.get(root.span_id, []))

    path: List[PathStep] = []
    _walk_path(root, children_of, 0, path)

    contrib: Dict[str, float] = {}
    for step in path:
        contrib[step.span.name] = contrib.get(step.span.name, 0.0) + step.self_s
    contributors = sorted(contrib.items(), key=lambda kv: (-kv[1], kv[0]))

    by_id = {s.span_id: s for s in spans}
    slack: Dict[int, float] = {}
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is not None:
            slack[s.span_id] = max(0.0, parent.end - s.end)

    return CriticalPathReport(root, phases, path, contributors, slack, spans)
