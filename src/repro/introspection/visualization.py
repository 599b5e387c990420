"""Visualization tool for BlobSeer-specific data (paper §IV-A).

The original tool rendered graphical dashboards; in this reproduction the
renderers produce terminal-friendly panels (sparklines, bar charts,
tables) and CSV exports, covering the same four views the paper lists:

- evolution of the physical parameters (CPU load, memory, network),
- storage space on each provider and at the system level,
- BLOB access patterns,
- distribution of the BLOBs across providers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .aggregator import IntrospectionLayer

__all__ = [
    "sparkline",
    "bar_chart",
    "table",
    "Dashboard",
    "journal_tail",
    "adaptation_scorecard",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Compress a numeric series into a one-line unicode sparkline."""
    values = list(values)
    if not values:
        return "(no data)"
    if len(values) > width:
        # Downsample by averaging fixed-size groups.
        group = len(values) / width
        values = [
            sum(values[int(i * group):max(int(i * group) + 1, int((i + 1) * group))])
            / max(1, len(values[int(i * group):max(int(i * group) + 1, int((i + 1) * group))]))
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(values)
    return "".join(
        _SPARK_CHARS[min(len(_SPARK_CHARS) - 1, int((v - lo) / span * len(_SPARK_CHARS)))]
        for v in values
    )


def bar_chart(
    items: Sequence[Tuple[str, float]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal ASCII bar chart."""
    if not items:
        return "(no data)"
    peak = max(v for _k, v in items) or 1.0
    label_width = max(len(k) for k, _v in items)
    lines = []
    for key, value in items:
        bar = "#" * max(0, int(round(value / peak * width)))
        lines.append(f"{key:<{label_width}} | {bar} {value:.1f}{unit}")
    return "\n".join(lines)


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    out = []
    for r, row in enumerate(cells):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def journal_tail(journal, n: int = 8) -> str:
    """The most recent *n* provenance-journal entries, one per line."""
    entries = journal.tail(n)
    if not entries:
        return "== Adaptation journal ==\n(no decisions journaled)"
    lines = [f"== Adaptation journal (last {len(entries)} of "
             f"{journal.total}) =="]
    lines.extend(str(entry) for entry in entries)
    return "\n".join(lines)


def _fmt(value, digits: int = 1, unit: str = "") -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}{unit}"


def adaptation_scorecard(score: dict, title: str = "Adaptation scorecard") -> str:
    """Terminal panel for an :class:`AdaptationScorecard` ``compute()`` dict.

    One row per watched signal (SLO-violation seconds + per-disturbance
    settling time and overshoot), one row per engine (decision effort),
    and the fleet-wide summary line the SEAMS metrics boil down to.
    """
    panels: List[str] = []

    signal_rows = []
    for label in sorted(score.get("signals", {})):
        entry = score["signals"][label]
        if entry["disturbances"]:
            for dlabel in sorted(entry["disturbances"]):
                d = entry["disturbances"][dlabel]
                signal_rows.append((
                    label, dlabel,
                    _fmt(entry["slo_violation_s"], 1, "s"),
                    _fmt(d["settling_s"], 1, "s"),
                    _fmt(d["overshoot"], 3),
                ))
        else:
            signal_rows.append((
                label, "-", _fmt(entry["slo_violation_s"], 1, "s"), "-", "-",
            ))
    if signal_rows:
        panels.append(table(
            ["signal", "disturbance", "slo_violation", "settling", "overshoot"],
            signal_rows,
        ))

    engine_rows = []
    for engine in sorted(score.get("engines", {})):
        entry = score["engines"][engine]
        engine_rows.append((
            engine,
            entry.get("planner") or "-",
            entry["decisions"],
            _fmt(entry["churn_per_min"], 2),
            entry["oscillations"],
            _fmt(entry["mean_time_to_effect_s"], 1, "s"),
            (_fmt(entry["mean_latency_s"] * 1e3, 3, "ms")
             if entry["mean_latency_s"] is not None else "-"),
        ))
    if engine_rows:
        panels.append(table(
            ["engine", "planner", "decisions", "churn/min", "oscillations",
             "time_to_effect", "plan_latency"],
            engine_rows,
        ))

    fleet = score.get("fleet", {})
    if fleet:
        panels.append(
            f"fleet: slo_violation={_fmt(fleet.get('slo_violation_s'), 1, 's')}"
            f"  max_settling={_fmt(fleet.get('max_settling_s'), 1, 's')}"
            f"  max_overshoot={_fmt(fleet.get('max_overshoot'), 3)}"
            f"  decisions={fleet.get('decisions', 0)}"
            f"  oscillations={fleet.get('oscillations', 0)}"
        )

    body = "\n\n".join(panels) if panels else "(no data)"
    return f"== {title} ==\n{body}"


class Dashboard:
    """Renders the paper's four visualization panels from introspection data."""

    def __init__(self, layer: IntrospectionLayer) -> None:
        self.layer = layer

    def provider_storage_panel(self) -> str:
        latest = self.layer.provider_storage_latest()
        items = sorted(latest.items())
        return "== Storage space per provider ==\n" + bar_chart(items, unit=" MB")

    def system_storage_panel(self, bucket_s: float = 5.0) -> str:
        series = self.layer.system_storage_timeline(bucket_s)
        values = [v for _t, v in series]
        line = sparkline(values)
        peak = max(values) if values else 0.0
        return (
            "== System storage over time ==\n"
            f"{line}\n(peak {peak:.0f} MB over {len(series)} buckets of {bucket_s}s)"
        )

    def physical_panel(self, node_names: Sequence[str], metric: str = "cpu_util") -> str:
        lines = [f"== Physical parameter: {metric} =="]
        for name in node_names:
            series = self.layer.node_physical_timeline(name, metric)
            lines.append(f"{name:<16} {sparkline([v for _t, v in series])}")
        return "\n".join(lines)

    def access_pattern_panel(self) -> str:
        stats = self.layer.blob_access_stats()
        rows = [
            (
                blob_id,
                s.chunk_writes,
                s.chunk_reads,
                f"{s.bytes_written_mb:.0f}",
                f"{s.bytes_read_mb:.0f}",
                len(s.writers),
                len(s.readers),
            )
            for blob_id, s in sorted(stats.items())
        ]
        return "== BLOB access patterns ==\n" + table(
            ["blob", "chunk_writes", "chunk_reads", "MB_written", "MB_read",
             "writers", "readers"],
            rows,
        )

    def distribution_panel(self) -> str:
        distribution = self.layer.blob_distribution()
        lines = ["== BLOB distribution across providers =="]
        for blob_id, providers in sorted(distribution.items()):
            items = sorted(providers.items())
            lines.append(f"blob {blob_id}:")
            lines.append(bar_chart(items, width=30, unit=" chunks"))
        return "\n".join(lines)

    def throughput_panel(self, bucket_s: float = 5.0) -> str:
        series = self.layer.throughput_timeline(bucket_s)
        values = [v for _t, v in series]
        return (
            "== Average client throughput (MB/s) ==\n"
            + sparkline(values)
            + (f"\n(last {values[-1]:.1f} MB/s, peak {max(values):.1f} MB/s)"
               if values else "")
        )

    def render(self, node_names: Optional[Sequence[str]] = None) -> str:
        """The full dashboard: every §IV-A panel."""
        panels = [
            self.provider_storage_panel(),
            self.system_storage_panel(),
            self.access_pattern_panel(),
            self.distribution_panel(),
            self.throughput_panel(),
        ]
        if node_names:
            panels.insert(0, self.physical_panel(node_names))
        return "\n\n".join(panels)
