"""Integration tests: cache tiers threaded through BlobSeer, determinism
seams, the Zipf hot-spot workload and the adaptive cache tuner."""

import json

import pytest

from repro import telemetry
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.telemetry.export import chrome_trace_json
from repro.workloads import ZipfReader, build_hotspot_scenario


def make_deployment(seed=5, **overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=16.0,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def write_then_read(deployment, reads=2, write_mb=64.0):
    """One writer creates a blob; one reader reads it *reads* times."""
    env = deployment.env
    writer = deployment.new_client("writer")
    reader = deployment.new_client("reader")
    out = {}

    def scenario(env):
        blob_id = yield env.process(writer.create_blob(16.0))
        yield env.process(writer.append(blob_id, write_mb))
        results = []
        for _ in range(reads):
            results.append(
                (yield env.process(reader.read(blob_id, 0.0, write_mb)))
            )
        out["reads"] = results
        out["reader"] = reader

    proc = env.process(scenario(env))
    deployment.run(until=proc)
    return out


# ------------------------------------------------------------- defaults off
def test_caches_default_off():
    deployment = make_deployment()
    client = deployment.new_client("c")
    assert deployment.caches == []
    assert client.chunk_cache is None
    assert client.meta.cache is None
    for provider in deployment.providers.values():
        assert provider.memory_cache is None


def test_cache_policy_applies_to_every_tier():
    deployment = make_deployment(
        client_chunk_cache_mb=64.0, client_metadata_cache_mb=8.0,
        provider_cache_mb=64.0, cache_policy="arc",
    )
    deployment.new_client("c")
    assert len(deployment.caches) == 6 + 2
    assert {cache.policy.name for cache in deployment.caches} == {"arc"}


# ------------------------------------------------------------- client tiers
def test_chunk_cache_serves_repeat_reads_without_providers():
    deployment = make_deployment(client_chunk_cache_mb=256.0)
    out = write_then_read(deployment, reads=3)
    reader = out["reader"]
    first, rest = out["reads"][0], out["reads"][1:]
    # First read populated the cache; later reads hit it entirely.
    chunks = 4  # 64 MB / 16 MB
    assert reader.chunk_cache.stats.misses == chunks
    assert reader.chunk_cache.stats.hits == 2 * chunks
    # A fully cache-served read never touches the network: it is faster
    # than the cold read by far (only metadata traffic remains).
    assert all(r.duration_s < first.duration_s / 2 for r in rest)


def test_metadata_cache_stops_repeat_tree_traffic():
    deployment = make_deployment(client_metadata_cache_mb=16.0)
    out = write_then_read(deployment, reads=3)
    cache = out["reader"].meta.cache
    assert cache.stats.hits > 0
    # Repeat reads of the same version traverse the same tree nodes:
    # after the first pass everything is hot.
    assert cache.stats.hits >= cache.stats.misses


def test_provider_memory_tier_skips_disk_on_repeat_serves():
    deployment = make_deployment(provider_cache_mb=256.0)
    out = write_then_read(deployment, reads=2)
    tiers = [p.memory_cache for p in deployment.providers.values()]
    # Ingest write-through made every chunk memory-resident, so even the
    # first read hits RAM; the disk never sees a read.
    assert sum(t.stats.hits for t in tiers) >= 4
    first, second = out["reads"]
    assert second.duration_s <= first.duration_s


def test_provider_crash_wipes_memory_tier():
    deployment = make_deployment(provider_cache_mb=256.0)
    write_then_read(deployment, reads=1)
    provider = next(
        p for p in deployment.providers.values()
        if p.memory_cache is not None and len(p.memory_cache) > 0
    )
    provider.node.fail()
    assert len(provider.memory_cache) == 0  # RAM dies with the node


# ------------------------------------------------------------- determinism
def test_cache_disabled_runs_are_byte_identical():
    def run():
        deployment = make_deployment(seed=23)
        tele = telemetry.enable(deployment, profile=False)
        write_then_read(deployment, reads=2)
        return deployment.env, tele

    env_a, tele_a = run()
    env_b, tele_b = run()
    assert env_a.now == env_b.now
    assert env_a.events_processed == env_b.events_processed
    assert chrome_trace_json(tele_a.tracer) == chrome_trace_json(tele_b.tracer)


def test_cache_enabled_runs_reproduce_per_seed():
    def run():
        deployment = make_deployment(
            seed=23,
            client_chunk_cache_mb=256.0,
            client_metadata_cache_mb=16.0,
            provider_cache_mb=256.0,
        )
        tele = telemetry.enable(deployment, profile=False)
        out = write_then_read(deployment, reads=2)
        stats = {c.name: c.to_dict() for c in deployment.caches}
        return deployment.env, tele, out, stats

    env_a, tele_a, out_a, stats_a = run()
    env_b, tele_b, out_b, stats_b = run()
    assert env_a.now == env_b.now
    assert env_a.events_processed == env_b.events_processed
    assert chrome_trace_json(tele_a.tracer) == chrome_trace_json(tele_b.tracer)
    assert json.dumps(stats_a, sort_keys=True) == json.dumps(stats_b, sort_keys=True)


# ------------------------------------------------------------- zipf workload
def test_zipf_reader_draws_are_seeded():
    def draw(seed):
        deployment = make_deployment(seed=seed)
        client = deployment.new_client("z")
        reader = ZipfReader(
            client, blob_id=1, total_chunks=64, chunk_size_mb=8.0,
            rng=deployment.rng.stream("zipf:0"), skew=1.2,
        )
        return [reader.next_chunk() for _ in range(200)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_zipf_reader_is_skewed():
    deployment = make_deployment()
    client = deployment.new_client("z")
    reader = ZipfReader(
        client, blob_id=1, total_chunks=64, chunk_size_mb=8.0,
        rng=deployment.rng.stream("zipf:0"), skew=1.2,
    )
    from collections import Counter
    draws = Counter(reader.next_chunk() for _ in range(2000))
    top = draws.most_common(1)[0][1]
    # Hot chunk dominates: far above the uniform share (2000/64 ~ 31).
    assert top > 5 * (2000 / 64)
    assert all(0 <= c < 64 for c in draws)


def test_hotspot_scenario_caches_speed_up_reads():
    def run(with_caches):
        scenario = build_hotspot_scenario(
            readers=3, dataset_chunks=24, chunk_size_mb=8.0,
            reads_per_client=15, seed=7, with_caches=with_caches,
        )
        scenario.run()
        return scenario

    off, on = run(False), run(True)
    # Same seed, same offered workload, only the speed differs.
    assert off.total_read_mb() == on.total_read_mb() > 0
    assert on.aggregate_read_throughput() > 1.5 * off.aggregate_read_throughput()


# ------------------------------------------------------------- cache tuner
def test_tuner_grows_thrashing_caches_and_shrinks_idle_ones():
    scenario = build_hotspot_scenario(
        readers=3, dataset_chunks=48, chunk_size_mb=8.0,
        reads_per_client=120, seed=7, with_caches=True,
        chunk_cache_mb=16.0, with_tuner=True, tuner_interval_s=0.5,
    )
    scenario.run()
    tuner = scenario.tuner
    assert tuner.decisions_of("cache_grow")
    assert tuner.decisions_of("cache_shrink")
    first = tuner.capacity_timeline[0][1]
    last = tuner.capacity_timeline[-1][1]
    # Thrashing reader chunk caches grew; the idle writer cache shrank.
    readers = [n for n in first if n.startswith("chunk.hotspot-reader")]
    assert readers
    assert all(last[n] > first[n] for n in readers)
    assert last["chunk.hotspot-writer"] < first["chunk.hotspot-writer"]
    # Decisions are traced via the ControlLoop: counters tick.
    metrics = scenario.deployment.env.metrics
    assert metrics.counter("adaptation.cache_grow").value > 0


def test_tuner_respects_total_budget():
    scenario = build_hotspot_scenario(
        readers=3, dataset_chunks=48, chunk_size_mb=8.0,
        reads_per_client=120, seed=7, with_caches=True,
        chunk_cache_mb=16.0, with_tuner=True, tuner_interval_s=0.5,
    )
    # Freeze the fleet-wide budget at the initial total: from here on,
    # growth must be funded by shrinking.
    budget = sum(c.capacity_mb for c in scenario.deployment.caches)
    scenario.tuner.total_budget_mb = budget
    scenario.run()
    total = sum(c.capacity_mb for c in scenario.deployment.caches)
    assert total <= budget + 1e-6
    # It still reallocated: growth was funded by shrinking.
    assert scenario.tuner.decisions_of("cache_grow")
    assert scenario.tuner.decisions_of("cache_shrink")


def test_tuner_dry_run_publishes_but_never_resizes():
    scenario = build_hotspot_scenario(
        readers=3, dataset_chunks=48, chunk_size_mb=8.0,
        reads_per_client=120, seed=7, with_caches=True,
        chunk_cache_mb=16.0, with_tuner=True, tuner_interval_s=0.5,
    )
    scenario.tuner.dry_run = True
    before = {c.name: c.capacity_mb for c in scenario.deployment.caches}
    scenario.run()
    after = {c.name: c.capacity_mb for c in scenario.deployment.caches}
    assert before == after
    assert not scenario.tuner.decisions
    # ... but the cache.* series exist for the introspection layer.
    metrics = scenario.deployment.env.metrics
    assert metrics.series_names("cache.chunk.hotspot-reader-0")


def test_query_engine_cache_rollup():
    from repro.introspection import QueryEngine

    scenario = build_hotspot_scenario(
        readers=3, dataset_chunks=24, chunk_size_mb=8.0,
        reads_per_client=30, seed=7, with_caches=True,
        with_tuner=True, tuner_interval_s=0.5,
    )
    scenario.run()
    engine = QueryEngine.for_deployment(scenario.deployment)
    rollup = engine.cache_stats(window_s=scenario.deployment.env.now)
    reader_tier = rollup.get("chunk.hotspot-reader-0")
    assert reader_tier is not None
    assert 0.0 <= reader_tier["hit_rate"] <= 1.0
    assert reader_tier["capacity_mb"] > 0
    assert reader_tier["lookups_per_s"] > 0
