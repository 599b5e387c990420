"""What the benchmark reports: metric tables and the statistics on them.

This module imports nothing from ``repro``; the harness, the child
process, ``compare.py`` and the tests all read the same tables, and
``BENCHMARK.json`` at the repository root must agree with them
(``test_e2e.py`` checks that).

Every number is either *simulated time* — what the modelled BlobSeer
deployment would take; exact and repeatable per seed — or *host time*,
what the simulator costs on this machine.  ``Metric.exact`` marks the
first kind: two runs of one seed must give the identical value, so
``compare.py`` holds them to a bound of 0.  ``Metric.bound`` is the
relative worsening tolerated between runs that may differ in seed or
host noise (the driver's gate, recorded in ``BENCHMARK.json``); it is
set from the spread measured over ten seeds, which for the simulated
metrics is the spread of ``dos_defense`` (attack start times are drawn
from the seed) and ``adaptive_read``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Metric", "END_TO_END", "DRIVER_END_TO_END", "PER_LAYER", "WORKLOADS",
    "SCHEMA", "summary", "percentile", "tail_percentile", "worse_by",
]

#: Version of the results-file schema (``results/*.json``).
SCHEMA = 1


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Relative worsening tolerated across seeds and host noise.
    bound: float = 0.0
    #: Simulated quantity: identical for identical seed, compared exactly.
    exact: bool = False
    #: A worsening must also exceed this absolute amount to count.
    floor: float = 0.0
    #: Host seconds, reported scaled to the reference host's speed
    #: (see ``calibration.py``).
    scaled: bool = False
    #: Gated by the driver (listed in ``BENCHMARK.json``).  A gated
    #: metric may never be 0 and must differ from seed to seed.
    gated: bool = True
    doc: str = ""


#: The nine end-to-end metrics; every workload reports all of them.
END_TO_END: Sequence[Metric] = (
    Metric("wall_s", "s", "lower", 0.25, scaled=True,
           doc="host: perf_counter around the measured run() phase"),
    Metric("setup_s", "s", "lower", 0.25, floor=0.05, scaled=True,
           doc="host: child start to the start of the measured phase "
               "(interpreter, importing repro, builder, preload)"),
    Metric("peak_rss_mb", "MB", "lower", 0.20,
           doc="host: ru_maxrss of the child at exit"),
    Metric("sim_ops_per_s", "ops/sim_s", "higher", 0.25, exact=True,
           doc="sim: successful measured ops per simulated second"),
    Metric("sim_goodput_mbps", "MB/sim_s", "higher", 0.25, exact=True,
           doc="sim: MB moved by successful measured ops per simulated second"),
    # Not gated: on adaptive_read the median read is a client-cache hit,
    # whose latency is the same constant on every seed.
    Metric("sim_op_p50_s", "sim_s", "lower", 0.05, exact=True, gated=False,
           doc="sim: median latency of successful measured ops"),
    Metric("sim_op_tail_s", "sim_s", "lower", 0.25, exact=True,
           doc="sim: tail latency at the workload's pinned percentile"),
    # Not gated: 0 on every workload by design (no operation may fail).
    Metric("op_fail_ratio", "ratio", "lower", 0.0, exact=True, gated=False,
           doc="sim: failed or refused measured ops / attempted"),
    # Not gated: 0 on bulk_write.
    Metric("sim_slo_miss_ratio", "ratio", "lower", 0.0, exact=True, gated=False,
           doc="sim: attempted measured ops that failed or exceeded slo_op_s"),
)

#: The subset the driver gates on.
DRIVER_END_TO_END: Sequence[Metric] = tuple(m for m in END_TO_END if m.gated)

#: name -> why it is here (also ``BENCHMARK.json``'s ``workloads``).
WORKLOADS: Dict[str, str] = {
    "meta_fanout": "1000 writers x 4 one-chunk appends: control-plane bound "
                   "(allocate, ticket, 21 tree-node puts, publish); the data "
                   "plane is idle",
    "bulk_write": "paper IV-B with monitoring: 120 clients x 2 writes of 1 GB "
                  "in 64 MB chunks on 150 providers: data-plane bound (max-min "
                  "solver), metadata under 4%",
    "adaptive_read": "12 Zipf readers on a 192 MB dataset against 32 MB "
                     "caches, hot-set shift and provider-degradation window, "
                     "cache tuner, journal and metrics registry on: the read "
                     "path and the adaptation loop",
    "dos_defense": "paper IV-C: 7 correct writers and 3 flooding attackers "
                   "with monitoring and the security framework on; metrics "
                   "over correct clients only",
}


def _layer(layer: str, *metrics: tuple) -> List[Metric]:
    return [Metric(f"{layer}.{name}", unit, better) for name, unit, better in metrics]


#: Per-layer metrics from the traced run.  ``*.self_s`` is host time in
#: the layer's spans minus what its child spans cover; ``*_sim_s`` is
#: simulated time; everything else is an exact count or a ratio of two.
PER_LAYER: Sequence[Metric] = tuple(
    _layer("simulation",
           ("self_s", "s", "lower"), ("events", "count", "lower"),
           ("process_resumes", "count", "lower"),
           ("max_heap_depth", "count", "lower"),
           ("events_per_s", "1/s", "higher"), ("us_per_event", "us", "lower"))
    + _layer("network",
             ("self_s", "s", "lower"), ("transfers", "count", "lower"),
             ("messages", "count", "lower"), ("aborts", "count", "lower"),
             ("reallocations", "count", "lower"),
             ("realloc_flow_slots", "count", "lower"),
             ("slots_per_reallocation", "ratio", "lower"))
    + _layer("cluster",
             ("self_s", "s", "lower"), ("crashes", "count", "lower"),
             ("recoveries", "count", "lower"), ("degradations", "count", "lower"))
    + _layer("blobseer.client",
             ("self_s", "s", "lower"), ("ops", "count", "higher"),
             ("failed_ops", "count", "lower"))
    + _layer("blobseer.version_manager",
             ("self_s", "s", "lower"), ("tickets", "count", "lower"),
             ("publishes", "count", "higher"), ("mean_batch", "ratio", "higher"),
             ("wait_sim_s", "sim_s", "lower"))
    + _layer("blobseer.provider_manager",
             ("self_s", "s", "lower"), ("allocation_rpcs", "count", "lower"),
             ("allocated_chunks", "count", "lower"),
             ("chunks_per_rpc", "ratio", "higher"))
    + _layer("blobseer.provider",
             ("self_s", "s", "lower"), ("ingests", "count", "lower"),
             ("serves", "count", "lower"), ("stored_mb", "MB", "lower"))
    + _layer("blobseer.metadata",
             ("self_s", "s", "lower"), ("tree_updates", "count", "lower"),
             ("tree_queries", "count", "lower"), ("kv_puts", "count", "lower"),
             ("kv_gets", "count", "lower"), ("puts_per_update", "ratio", "lower"),
             ("gets_per_query", "ratio", "lower"))
    + _layer("blobseer.rpc",
             ("self_s", "s", "lower"), ("requests", "count", "lower"),
             ("timeouts", "count", "lower"), ("retries", "count", "lower"))
    + _layer("cache",
             ("self_s", "s", "lower"), ("lookups", "count", "lower"),
             ("hits", "count", "higher"), ("hit_ratio", "ratio", "higher"),
             ("evictions", "count", "lower"), ("resizes", "count", "lower"))
    + _layer("monitoring",
             ("self_s", "s", "lower"), ("emitted", "count", "lower"),
             ("shipped", "count", "lower"), ("stored", "count", "higher"),
             ("dropped", "count", "lower"),
             ("stored_per_emitted", "ratio", "higher"))
    + _layer("introspection",
             ("self_s", "s", "lower"), ("queries", "count", "lower"),
             ("journal_entries", "count", "lower"))
    + _layer("security",
             ("self_s", "s", "lower"), ("scans", "count", "lower"),
             ("detections", "count", "higher"),
             ("false_positives", "count", "lower"),
             ("detection_delay_p50_sim_s", "sim_s", "lower"),
             ("detection_delay_max_sim_s", "sim_s", "lower"))
    + _layer("adaptation",
             ("self_s", "s", "lower"), ("loop_steps", "count", "lower"),
             ("decisions", "count", "lower"),
             ("slo_violation_sim_s", "sim_s", "lower"),
             ("settling_hot_set_shift_sim_s", "sim_s", "lower"),
             ("settling_provider_churn_sim_s", "sim_s", "lower"))
    + _layer("telemetry", ("self_s", "s", "lower"), ("samples", "count", "lower"))
    + _layer("workloads", ("self_s", "s", "lower"))
    + _layer("trace",
             ("overhead_ratio", "ratio", "lower"), ("coverage", "ratio", "higher"))
)


# -- statistics ------------------------------------------------------------------
def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, minimum and sample count of a host metric."""
    values = list(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (exact, no
    interpolation, so simulated latencies repeat bit for bit)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples: int) -> Optional[float]:
    """The highest of p99, p95, p90 and p75 with at least ten samples
    beyond it (None if even p75 has fewer)."""
    for q in (0.99, 0.95, 0.90, 0.75):
        if samples - math.ceil(q * samples) >= 10:
            return q
    return None


def worse_by(metric: Metric, before: float, after: float) -> float:
    """How much *after* is worse than *before*, as a share of *before*
    (negative when it is better)."""
    if before == after:
        return 0.0
    delta = after - before if metric.better == "lower" else before - after
    if before == 0:
        return math.copysign(math.inf, delta)
    return delta / abs(before)
