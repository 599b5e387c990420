"""BENCH-CACHE: hot-spot read throughput, caches off vs on vs tuned.

The cache subsystem (``repro.cache``) only earns its complexity if (a)
it is effectively free when a request misses, and (b) it converts
skewed read traffic into large end-to-end wins.  This bench measures
both, on the Zipf hot-spot scenario (one shared dataset BLOB, every
reader hammering a seeded skewed hot set):

- ``off``  — all cache tiers disabled (the seed behavior),
- ``on``   — client chunk + metadata tiers and the provider memory
  tier enabled at fixed capacities,
- ``tuned`` — same tiers under-provisioned at the client, with the
  :class:`~repro.adaptation.CacheTuner` reallocating capacity live.

Shape claims: caches-on aggregate read throughput is >= 2x off; the
tuner grows the thrashing reader chunk caches and shrinks the idle
writer cache (the utility-predicted directions); and the pure-Python
all-miss lookup path costs well under 50 us/op, so cache-less and
cache-cold request paths are not taxed.
"""

import time

from _util import env_stats, once, report

from repro.cache import Cache
from repro.workloads import build_hotspot_scenario

SEED = 11
READERS = 6
DATASET_CHUNKS = 48
CHUNK_MB = 8.0
READS_PER_CLIENT = 40
MISS_LOOKUPS = 200_000
MISS_BOUND_US = 50.0


def run_hotspot(with_caches: bool):
    scenario = build_hotspot_scenario(
        readers=READERS,
        dataset_chunks=DATASET_CHUNKS,
        chunk_size_mb=CHUNK_MB,
        reads_per_client=READS_PER_CLIENT,
        seed=SEED,
        with_caches=with_caches,
    )
    scenario.run()
    return scenario


def run_tuned():
    # Client chunk caches start under-provisioned (16 MB = 2 chunks), so
    # the hot set cannot fit and they thrash; the writer's cache is idle
    # after preload.  The tuner should migrate capacity readers-ward.
    scenario = build_hotspot_scenario(
        readers=READERS,
        dataset_chunks=DATASET_CHUNKS,
        chunk_size_mb=CHUNK_MB,
        reads_per_client=4 * READS_PER_CLIENT,  # long enough to adapt
        seed=SEED,
        with_caches=True,
        chunk_cache_mb=16.0,
        with_tuner=True,
        tuner_interval_s=0.5,
    )
    scenario.run()
    return scenario


def measure_all_miss_overhead(n: int = MISS_LOOKUPS) -> float:
    """Mean seconds per lookup on keys that are never present."""
    cache = Cache("bench-miss", 64.0)
    started = time.perf_counter()
    for i in range(n):
        cache.lookup(i)
    return (time.perf_counter() - started) / n


def _tier_hit_rate(scenario, prefix: str) -> float:
    tiers = [c for c in scenario.deployment.caches if c.name.startswith(prefix)]
    lookups = sum(c.stats.lookups for c in tiers)
    hits = sum(c.stats.hits for c in tiers)
    return hits / lookups if lookups else 0.0


def test_bench_cache(benchmark):
    def run():
        return {
            "off": run_hotspot(with_caches=False),
            "on": run_hotspot(with_caches=True),
            "tuned": run_tuned(),
            "miss_s": measure_all_miss_overhead(),
        }

    grid = once(benchmark, run)
    off, on, tuned = grid["off"], grid["on"], grid["tuned"]
    miss_us = grid["miss_s"] * 1e6

    off_mbps = off.aggregate_read_throughput()
    on_mbps = on.aggregate_read_throughput()
    tuned_mbps = tuned.aggregate_read_throughput()
    speedup = on_mbps / off_mbps if off_mbps else 0.0

    rows = []
    for mode, scenario, mbps in (
        ("off", off, off_mbps), ("on", on, on_mbps), ("tuned", tuned, tuned_mbps),
    ):
        rows.append((
            mode,
            f"{mbps:.1f}",
            f"{mbps / off_mbps:.2f}x" if off_mbps else "-",
            f"{_tier_hit_rate(scenario, 'chunk.hotspot-reader') * 100:.1f}%",
            f"{_tier_hit_rate(scenario, 'provider.') * 100:.1f}%",
            len(scenario.tuner.decisions) if scenario.tuner else 0,
        ))

    # Tuner trajectory: first vs last capacity of the moved caches.
    timeline = tuned.tuner.capacity_timeline
    first, last = timeline[0][1], timeline[-1][1]
    reader_caches = [n for n in first if n.startswith("chunk.hotspot-reader")]
    writer_cache = "chunk.hotspot-writer"

    report(
        "BENCH-CACHE",
        "Zipf hot-spot reads: multi-tier caches off vs on vs adaptively "
        f"tuned ({READERS} readers, {DATASET_CHUNKS}x{CHUNK_MB:.0f} MB "
        f"dataset, skew 1.1)",
        ["mode", "agg read MB/s", "vs off", "chunk cache hits",
         "provider cache hits", "tuner decisions"],
        rows,
        notes=[
            # A host-time number differs every run and this table is
            # diffed by CI: the measured value goes to the JSON only.
            f"all-miss lookup overhead: under the {MISS_BOUND_US:.0f} us/op "
            f"bound over {MISS_LOOKUPS} lookups (measured: "
            "all_miss_lookup_us in BENCH_BENCH-CACHE.json)",
            "tuned mode starts reader chunk caches at 16 MB (2 chunks); "
            "the tuner grows thrashing reader caches and shrinks the "
            "idle writer cache: "
            + ", ".join(
                f"{name.split('.')[-1]} {first[name]:.0f}->{last[name]:.0f} MB"
                for name in sorted(reader_caches + [writer_cache])
            ),
        ],
        stats=dict(env_stats(on.deployment.env, net=on.deployment.testbed.net,
                             deployment=on.deployment),
                   all_miss_lookup_us=miss_us),
        headline={"metric": "hotspot_read_speedup", "value": round(speedup, 3)},
    )

    # Caches must not perturb the workload itself, only its speed: the
    # same seed reads the same number of bytes in every mode.
    assert off.total_read_mb() == on.total_read_mb() > 0
    # The headline claim: >= 2x aggregate read throughput with caches on.
    assert speedup >= 2.0
    # The all-miss path is effectively free.
    assert miss_us < MISS_BOUND_US
    # The tuner moved capacity in the utility-predicted directions:
    # every thrashing reader cache grew, the idle writer cache shrank.
    grow = tuned.tuner.decisions_of("cache_grow")
    shrink = tuned.tuner.decisions_of("cache_shrink")
    assert grow and shrink
    assert all(last[name] > first[name] for name in reader_caches)
    assert last[writer_cache] < first[writer_cache]
    # And tuned throughput did not fall below the fixed-size config's
    # cold-start-heavy baseline (it adapts, it does not regress).
    assert tuned_mbps >= off_mbps
