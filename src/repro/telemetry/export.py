"""Exporter: Chrome trace-event JSON.

The Chrome trace format (loadable in ``chrome://tracing`` or
https://ui.perfetto.dev) is a JSON object with a ``traceEvents`` array;
this exporter emits one "process" for the whole simulation and one
"thread" per *track* (= simulated node).  Only simulation time goes into
the file, serialized with sorted keys and fixed separators, so the same
scenario seed yields a byte-identical trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .tracer import Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
]

_PID = 1

#: Chrome trace timestamps are microseconds.
_US = 1e6

#: Flow-event ids for decision→effect arrows live far above span ids so
#: the two id spaces never collide in one trace file.
_JOURNAL_FLOW_BASE = 1_000_000_000


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe copy of span attributes."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def chrome_trace(
    tracer: Tracer,
    flow_arrows: bool = True,
    journal=None,
) -> Dict[str, Any]:
    """Build the trace-event dict for *tracer*'s spans and instants.

    With *flow_arrows* (the default), every parent→child span edge that
    crosses tracks — a client phase causing work on a provider or
    manager node — also emits a Chrome flow-event pair (``ph: "s"`` on
    the parent's track, ``ph: "f"`` on the child's), so Perfetto draws
    the causal arrows of each distributed trace across processes.

    With a :class:`~repro.introspection.provenance.DecisionJournal`
    passed as *journal*, each engine gets an ``adaptation:<engine>``
    track carrying its journaled decisions as instants; decisions with a
    resolved effect window additionally draw a decision→effect flow
    arrow from the decision instant to the close of its attribution
    window, so the trace shows not just *that* the system adapted but
    *when the adaptation landed*.
    """
    tracks = tracer.tracks()
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    journal_entries = []
    if journal is not None:
        journal.resolve_effects()
        journal_entries = list(journal.entries)
        for engine in journal.engines():
            track = f"adaptation:{engine}"
            if track not in tids:
                tids[track] = len(tids) + 1
                tracks = list(tracks) + [track]

    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro simulation"},
        }
    ]
    for track in tracks:
        events.append({
            "ph": "M",
            "pid": _PID,
            "tid": tids[track],
            "name": "thread_name",
            "args": {"name": track},
        })

    # Complete ("X") events, sorted so timestamps are monotonic per track.
    spans = sorted(
        (s for s in tracer.spans if s.finished),
        key=lambda s: (tids[s.track], s.start, s.span_id),
    )
    for span in spans:
        args = _clean_attrs(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id:
            args["parent_id"] = span.parent_id
        events.append({
            "ph": "X",
            "pid": _PID,
            "tid": tids[span.track],
            "name": span.name,
            "cat": span.cat,
            "ts": round(span.start * _US, 3),
            "dur": round((span.end - span.start) * _US, 3),
            "args": args,
        })

    if flow_arrows:
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            parent = by_id.get(span.parent_id)
            if parent is None or parent.track == span.track:
                continue
            ts = round(span.start * _US, 3)
            common = {"pid": _PID, "name": "causal", "cat": "flow",
                      "id": span.span_id, "ts": ts}
            events.append({"ph": "s", "tid": tids[parent.track], **common})
            events.append({"ph": "f", "bp": "e", "tid": tids[span.track], **common})

    marks = sorted(
        tracer.instants,
        key=lambda m: (tids[m.track], m.time, m.name),
    )
    for mark in marks:
        events.append({
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "pid": _PID,
            "tid": tids[mark.track],
            "name": mark.name,
            "cat": mark.cat,
            "ts": round(mark.time * _US, 3),
            "args": _clean_attrs(mark.attrs),
        })

    for entry in journal_entries:
        tid = tids[f"adaptation:{entry.engine}"]
        ts = round(entry.time * _US, 3)
        args: Dict[str, Any] = {"seq": entry.seq, "kind": entry.kind}
        args.update(_clean_attrs(entry.detail))
        if entry.trace_id:
            args["trace_id"] = entry.trace_id
            args["src_span_id"] = entry.span_id
        events.append({
            "ph": "i",
            "s": "t",
            "pid": _PID,
            "tid": tid,
            "name": entry.action,
            "cat": f"adaptation.{entry.kind}",
            "ts": ts,
            "args": args,
        })
        if not flow_arrows or entry.effect_at is None or not entry.effect:
            continue
        deltas = {
            name: round(vals["delta"], 6)
            for name, vals in sorted(entry.effect.items())
            if vals.get("delta") is not None
        }
        if not deltas:
            continue
        effect_ts = round(entry.effect_at * _US, 3)
        events.append({
            "ph": "i",
            "s": "t",
            "pid": _PID,
            "tid": tid,
            "name": f"effect:{entry.action}",
            "cat": "adaptation.effect",
            "ts": effect_ts,
            "args": {"seq": entry.seq, **deltas},
        })
        common = {"pid": _PID, "tid": tid, "name": "decision→effect",
                  "cat": "adaptation.flow",
                  "id": _JOURNAL_FLOW_BASE + entry.seq}
        events.append({"ph": "s", "ts": ts, **common})
        events.append({"ph": "f", "bp": "e", "ts": effect_ts, **common})

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(
    tracer: Tracer, flow_arrows: bool = True, journal=None,
) -> str:
    """Deterministic serialization (sorted keys, fixed separators)."""
    return json.dumps(
        chrome_trace(tracer, flow_arrows=flow_arrows, journal=journal),
        sort_keys=True,
        separators=(",", ":"),
    )


def write_chrome_trace(tracer: Tracer, path: str, journal=None) -> str:
    with open(path, "w") as handle:
        handle.write(chrome_trace_json(tracer, journal=journal))
        handle.write("\n")
    return path
