"""BENCH-SCALE: wall-clock scaling of the simulation kernel.

The kernel claims to scale from hundreds to thousands of concurrent
flows without changing any simulated result.  This bench runs a padded
"pods" topology (disjoint source/sink groups — many independent
components of the resource-flow bipartite graph, the shape a multi-site
BlobSeer deployment produces) at three sizes, ~50 / ~500 / ~5000
concurrent flows, under both recomputation modes:

- ``incremental=True`` — component-local water-filling passes over the
  flow table;
- ``incremental=False`` — every pass re-solves the full flow set
  through the same code path, i.e. the pre-incremental kernel's
  semantics and asymptotics.  These global passes are where the flow
  table's array pass works hardest, so the speedup column is a ratio
  of two moving parts: a faster array pass shrinks it.

Both modes must agree on every simulated observable (end time, bytes
delivered, event count, pass count) — only the wall-clock may differ.
The headline is the wall-clock speedup at the largest tier (target
>= 5x), plus events/sec and per-reallocation cost for the trajectory.

Environment knobs:

- ``BENCH_SCALE_SIZES=small[,medium[,large]]`` — which tiers to run
  (default all three; the CI smoke job runs ``small,medium``, so a
  component above the scalar/array dispatch threshold is solved on
  every PR).
"""

import os
import random
import time

import pytest
from _util import report

from repro.simulation import Environment, FlowNetwork, NetNode

#: tier -> (pods, sources per pod, sequential ops per lane).
#: Concurrency ~= pods * sources * 2 lanes.
SIZES = {
    "small": (5, 5, 6),      # ~50 concurrent flows
    "medium": (25, 10, 5),   # ~500 concurrent flows
    "large": (100, 25, 4),   # ~5000 concurrent flows
}

#: Required wall-clock speedup (incremental vs full) at the 5000-flow tier.
MIN_SPEEDUP_LARGE = 5.0


def _selected_sizes():
    raw = os.environ.get("BENCH_SCALE_SIZES", "small,medium,large")
    sizes = [s.strip() for s in raw.split(",") if s.strip()]
    unknown = [s for s in sizes if s not in SIZES]
    if unknown:
        raise ValueError(f"unknown BENCH_SCALE_SIZES entries: {unknown}")
    return sizes


def run_pods(pods: int, sources: int, ops: int, incremental: bool, seed: int = 11):
    """Pod-local transfer churn; returns exact observables + wall time."""
    env = Environment()
    net = FlowNetwork(env, latency=0.0005, incremental=incremental)
    for p in range(pods):
        site = f"site-{p % 3}"
        for s in range(sources):
            net.add_node(NetNode(f"p{p}-src{s}", site=site))
            net.add_node(NetNode(f"p{p}-dst{s}", site=site))

    def lane(env, p, s, lane_id):
        rng = random.Random(seed * 1_000_003 + p * 4099 + s * 67 + lane_id)
        src = f"p{p}-src{s}"
        for _ in range(ops):
            dst = f"p{p}-dst{rng.randrange(sources)}"
            yield net.transfer(src, dst, size=rng.uniform(20.0, 120.0))

    for p in range(pods):
        for s in range(sources):
            for lane_id in range(2):
                env.process(lane(env, p, s, lane_id),
                            name=f"lane-{p}-{s}-{lane_id}")

    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "end": env.now,
        "events": env.events_processed,
        "delivered": net.total_delivered,
        "reallocations": net.reallocations,
        "flow_slots": net.realloc_flow_slots,
        "peak_flows": pods * sources * 2,
    }


def test_bench_scale(benchmark):
    sizes = _selected_sizes()

    def run_all():
        grid = {}
        for size in sizes:
            pods, sources, ops = SIZES[size]
            grid[size] = {
                "full": run_pods(pods, sources, ops, incremental=False),
                "incr": run_pods(pods, sources, ops, incremental=True),
            }
        return grid

    grid = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    speedups = {}
    for size in sizes:
        full, incr = grid[size]["full"], grid[size]["incr"]
        speedup = full["wall_s"] / incr["wall_s"] if incr["wall_s"] > 0 else 0.0
        speedups[size] = speedup
        for mode, r in (("full", full), ("incremental", incr)):
            rows.append((
                size, r["peak_flows"], mode,
                f"{r['wall_s']:.3f}",
                f"{r['events'] / r['wall_s']:,.0f}",
                r["reallocations"],
                f"{r['wall_s'] / r['reallocations'] * 1e6:.1f}",
                f"{r['flow_slots'] / r['reallocations']:.1f}",
                f"{speedup:.2f}x" if mode == "incremental" else "1.00x",
            ))

    largest = sizes[-1]
    report(
        "BENCH-SCALE",
        "kernel scaling: incremental vs full max-min recomputation "
        "(pods topology, 2 lanes per source, same seed per tier)",
        ["tier", "peak flows", "mode", "wall_s", "events/s",
         "reallocs", "us/realloc", "flows/pass", "speedup"],
        rows,
        notes=[
            "full = always-global pass through the same solver (old-path "
            "semantics); incremental = dirty-component passes",
            "both modes are asserted bit-identical on end time, bytes "
            "delivered, event count and pass count per tier",
            f"speedup at '{largest}': {speedups[largest]:.2f}x "
            f"(target >= {MIN_SPEEDUP_LARGE}x at the 5000-flow tier)",
        ],
        stats={
            "tier": largest,
            "sim_time_s": grid[largest]["incr"]["end"],
            "events": grid[largest]["incr"]["events"],
            "net_reallocations": grid[largest]["incr"]["reallocations"],
            "net_realloc_flow_slots": grid[largest]["incr"]["flow_slots"],
            "wall_clock_s": grid[largest]["incr"]["wall_s"],
            "events_per_sec": (
                grid[largest]["incr"]["events"] / grid[largest]["incr"]["wall_s"]
            ),
            "speedups": {s: round(v, 3) for s, v in speedups.items()},
        },
        headline={
            "metric": f"wall_clock_speedup_{largest}",
            "value": round(speedups[largest], 3),
        },
    )

    # The optimization must be invisible in simulated results.
    for size in sizes:
        full, incr = grid[size]["full"], grid[size]["incr"]
        for key in ("end", "events", "delivered", "reallocations"):
            assert full[key] == incr[key], (size, key, full[key], incr[key])

    # Incremental must never lose, and must win big at scale.
    assert speedups[sizes[-1]] >= (1.0 if sizes[-1] == "small" else 1.5)
    if "large" in sizes:
        assert speedups["large"] >= MIN_SPEEDUP_LARGE, (
            f"kernel speedup regressed: {speedups['large']:.2f}x < "
            f"{MIN_SPEEDUP_LARGE}x at the 5000-flow tier"
        )
