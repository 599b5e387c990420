"""BENCH-META: sharded metadata/control plane under write fan-out.

The version manager is the architecture's one per-write serialization
point: every ticket and publish crosses a single 1-core node at
``op_cpu_s`` (3 ms) apiece, capping aggregate write throughput near
``1 / (2 * op_cpu_s)`` writes/s no matter how many providers serve
the data plane.  This bench quantifies that ceiling and what removes
it:

- **Fan-out grid** — 10 → 10,000 concurrent writers, each appending
  small ops to its own BLOB (control-plane-bound by construction),
  under the seed baseline (1 shard, unbatched publish) and hash-sharded
  version managers (1/2/4/8 shards, batched publish, sharded
  allocators).  The headline is the 8-shard throughput multiple over
  the baseline at the largest selected tier; the 1-shard-batched arm
  isolates group commit from sharding (serialization-point ablation).
- **Allocation ablation** — multi-chunk writes with one batched
  allocation RPC per write vs one RPC per chunk; the allocator's RPC
  counters must show the batch cutting RPCs by at least the chunk-count
  factor.

Environment knobs:

- ``BENCH_META_SIZES=small[,medium[,large[,xlarge]]]`` — which fan-out
  tiers to run (default all four; the CI smoke job runs ``small``).
"""

import os

from _util import env_stats, once, report

from repro.workloads.scenarios import build_fanout_scenario

#: tier -> (concurrent writers, appends per writer): fixed total work
#: per tier wherever possible so tiers compare queueing, not volume.
SIZES = {
    "small": (10, 20),
    "medium": (100, 10),
    "large": (1000, 4),
    "xlarge": (10000, 1),
}

#: (vm_shards, vm_batch) arms; pm_shards tracks vm_shards (capped at 4
#: — the allocator is ~30x cheaper per RPC than the version manager).
ARMS = [
    ("seed", 1, False),
    ("1-shard+batch", 1, True),
    ("2-shards", 2, True),
    ("4-shards", 4, True),
    ("8-shards", 8, True),
]

#: Required throughput multiple, 8 shards (batched) over the seed
#: baseline, at the 10,000-writer tier.
MIN_SPEEDUP_XLARGE = 3.0

#: Chunks per write in the allocation ablation; the batched path must
#: cut allocation RPCs by at least this factor.
ABLATION_CHUNKS = 8


def _selected_sizes():
    raw = os.environ.get("BENCH_META_SIZES", "small,medium,large,xlarge")
    sizes = [s.strip() for s in raw.split(",") if s.strip()]
    unknown = [s for s in sizes if s not in SIZES]
    if unknown:
        raise ValueError(f"unknown BENCH_META_SIZES entries: {unknown}")
    return sizes


def run_arm(writers: int, ops: int, vm_shards: int, vm_batch: bool,
            ramp_s: float, seed: int = 0):
    scenario = build_fanout_scenario(
        writers, ops_per_writer=ops, op_mb=1.0, chunk_size_mb=1.0,
        data_providers=64, vm_shards=vm_shards,
        pm_shards=min(vm_shards, 4), vm_batch=vm_batch,
        ramp_s=ramp_s, seed=seed,
    )
    scenario.run()
    cp = scenario.control_plane_stats()
    gates = [e.get("publish_batching") for e in cp["vm"]]
    mean_batches = [g["mean_batch"] for g in gates if g]
    return {
        "ops": scenario.completed_ops(),
        "makespan_s": scenario.makespan_s(),
        "throughput": scenario.aggregate_write_throughput(),
        "published": cp["versions_published"],
        "per_shard_published": [e["versions_published"] for e in cp["vm"]],
        "mean_batch": (sum(mean_batches) / len(mean_batches)
                       if mean_batches else 1.0),
        "alloc_rpcs": cp["allocation_rpcs"],
        "scenario": scenario,
    }


class PerChunkAllocator:
    """Ablation arm: a client's provider-manager endpoint that splits one
    ``remote_allocate(count)`` into *count* single-chunk RPCs — the naive
    protocol the batched allocation replaced."""

    def __init__(self, pmanager):
        self._pmanager = pmanager

    def __getattr__(self, name):
        return getattr(self._pmanager, name)

    def remote_allocate(self, caller, chunk_count, *args, **kwargs):
        placement = []
        for _ in range(chunk_count):
            placement.extend((yield from self._pmanager.remote_allocate(
                caller, 1, *args, **kwargs)))
        return placement


def run_alloc_ablation(seed: int = 0):
    """Same write mix, batched vs per-chunk allocation RPCs."""
    out = {}
    for mode, per_chunk in (("batched", False), ("per-chunk", True)):
        scenario = build_fanout_scenario(
            50, ops_per_writer=2, op_mb=float(ABLATION_CHUNKS),
            chunk_size_mb=1.0, data_providers=64, seed=seed,
        )
        if per_chunk:
            for writer in scenario.writers:
                writer.client.pm = PerChunkAllocator(writer.client.pm)
        scenario.run()
        cp = scenario.control_plane_stats()
        out[mode] = {
            "ops": scenario.completed_ops(),
            "alloc_rpcs": cp["allocation_rpcs"],
            "alloc_chunks": cp["allocated_chunks"],
            "makespan_s": scenario.makespan_s(),
        }
    return out


def test_bench_meta(benchmark):
    sizes = _selected_sizes()

    def run_all():
        grid = {}
        for size in sizes:
            writers, ops = SIZES[size]
            ramp_s = 2.0 if writers >= 10000 else 1.0
            grid[size] = {
                label: run_arm(writers, ops, shards, batch, ramp_s)
                for label, shards, batch in ARMS
            }
        return {"grid": grid, "alloc": run_alloc_ablation()}

    results = once(benchmark, run_all)
    grid, alloc = results["grid"], results["alloc"]

    rows = []
    speedups = {}
    for size in sizes:
        writers, ops = SIZES[size]
        base = grid[size]["seed"]
        for label, _shards, _batch in ARMS:
            r = grid[size][label]
            speedup = (r["throughput"] / base["throughput"]
                       if base["throughput"] > 0 else 0.0)
            speedups[(size, label)] = speedup
            rows.append((
                size, writers, label, r["ops"],
                f"{r['makespan_s']:.2f}",
                f"{r['throughput']:,.1f}",
                f"{r['mean_batch']:.1f}",
                f"{speedup:.2f}x",
            ))

    largest = sizes[-1]
    headline_speedup = speedups[(largest, "8-shards")]
    alloc_factor = (alloc["per-chunk"]["alloc_rpcs"]
                    / alloc["batched"]["alloc_rpcs"])
    largest_scenario = grid[largest]["8-shards"]["scenario"]
    report(
        "BENCH-META",
        "sharded control plane: aggregate write throughput vs concurrent "
        "writers (1 MB appends, 64 providers, fixed work per tier)",
        ["tier", "writers", "arm", "ops", "makespan_s",
         "writes/s", "mean_batch", "speedup"],
        rows,
        notes=[
            "seed = 1 shard, unbatched publish (byte-identical to the "
            "pre-sharding deployment); shard arms batch publishes and "
            "shard the allocator (pm_shards = min(vm_shards, 4))",
            "1-shard+batch isolates group commit from sharding: the "
            "remaining gap to 8-shards is pure serialization-point removal",
            f"speedup at '{largest}': {headline_speedup:.2f}x "
            f"(target >= {MIN_SPEEDUP_XLARGE}x at the 10,000-writer tier)",
            f"allocation ablation ({ABLATION_CHUNKS}-chunk writes): "
            f"{alloc['per-chunk']['alloc_rpcs']} per-chunk RPCs vs "
            f"{alloc['batched']['alloc_rpcs']} batched = "
            f"{alloc_factor:.1f}x fewer RPCs "
            f"(target >= {ABLATION_CHUNKS}x)",
        ],
        stats=env_stats(
            largest_scenario.deployment.env,
            net=largest_scenario.deployment.testbed.net,
            deployment=largest_scenario.deployment,
        ),
        headline={
            "metric": f"write_throughput_speedup_8shards_{largest}",
            "value": round(headline_speedup, 3),
        },
    )

    # Every arm must complete every write it was asked for.
    for size in sizes:
        writers, ops = SIZES[size]
        for label, _shards, _batch in ARMS:
            r = grid[size][label]
            assert r["ops"] == writers * ops, (size, label, r["ops"])
            assert r["published"] == writers * ops, (size, label)

    # Sharding must spread load: every shard of the 8-shard arm publishes.
    for size in sizes:
        per_shard = grid[size]["8-shards"]["per_shard_published"]
        assert len(per_shard) == 8 and all(n > 0 for n in per_shard), per_shard

    # More shards must never lose to fewer at any tier.
    for size in sizes:
        assert speedups[(size, "8-shards")] >= speedups[(size, "2-shards")] * 0.9

    # The headline: the serialization point must actually be gone.
    if largest == "xlarge":
        assert headline_speedup >= MIN_SPEEDUP_XLARGE, (
            f"8-shard speedup regressed: {headline_speedup:.2f}x < "
            f"{MIN_SPEEDUP_XLARGE}x at the 10,000-writer tier"
        )

    # Batched allocation: one RPC per write, not per chunk.
    assert alloc["batched"]["alloc_chunks"] == alloc["per-chunk"]["alloc_chunks"]
    assert alloc["batched"]["alloc_rpcs"] == alloc["batched"]["ops"]
    assert (alloc["per-chunk"]["alloc_rpcs"]
            == ABLATION_CHUNKS * alloc["per-chunk"]["ops"])
    assert alloc_factor >= ABLATION_CHUNKS, (
        f"batched allocation saves only {alloc_factor:.1f}x RPCs, "
        f"expected >= {ABLATION_CHUNKS}x"
    )
