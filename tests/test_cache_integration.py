"""Integration tests: cache tiers threaded through BlobSeer, determinism
seams, the Zipf hot-spot workload and the adaptive cache tuner."""

import json

import pytest

import repro.blobseer.client as client_module
from repro import telemetry
from repro.blobseer import (
    BlobSeerConfig,
    BlobSeerDeployment,
    RangeError,
    VersionNotFound,
)
from repro.blobseer.provider import DataProvider
from repro.blobseer.segment_tree import node_key
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
    """All three tiers are the one ``Cache``: six provider tiers and a
    client's chunk and metadata tiers, every one of them LRU."""
    deployment = make_deployment(
        client_chunk_cache_mb=64.0, client_metadata_cache_mb=8.0,
        provider_cache_mb=64.0,
    )
    deployment.new_client("c")
    assert len(deployment.caches) == 6 + 2
    assert {cache.to_dict()["policy"] for cache in deployment.caches} == {"lru"}


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


# ------------------------------------------------- resolved ranges
def drive(deployment, operation):
    """Run one client operation to completion; returns its result."""
    return deployment.run(until=deployment.env.process(operation))


def count_tree_queries(monkeypatch):
    """Tally of the ``tree_query`` generators the client module creates."""
    tally = []
    walk = client_module.tree_query
    monkeypatch.setattr(
        client_module, "tree_query",
        lambda *args, **kwargs: tally.append(args[2:5]) or walk(*args, **kwargs))
    return tally


def spy_on_serves(monkeypatch):
    """``(provider_id, storage_key)`` of every chunk a provider is asked
    to serve from here on (the chunk caches are off in these tests, so
    that is every chunk a read returns that is not a hole)."""
    served = []
    serve = DataProvider.serve

    def spy(self, dst, descriptor, *args, **kwargs):
        served.append((self.provider_id, descriptor.storage_key))
        return serve(self, dst, descriptor, *args, **kwargs)

    monkeypatch.setattr(DataProvider, "serve", spy)
    return served


def drain(served):
    """The storage keys served since the last drain, as a sorted multiset."""
    keys = sorted(key for _provider, key in served)
    del served[:]
    return keys


def written_blob(deployment, chunks=4):
    writer = deployment.new_client("writer")
    blob_id = drive(deployment, writer.create_blob(16.0))
    drive(deployment, writer.append(blob_id, chunks * 16.0))
    return writer, blob_id


def provider_gets(deployment):
    return sum(p.gets for p in deployment.metadata_providers)


def test_metadata_cache_stops_repeat_tree_traffic(monkeypatch):
    """After the first read of a range of a published version, a repeat
    read is one metadata-cache lookup — a hit — and nothing else: no
    tree walk, no metadata provider asked."""
    deployment = make_deployment(client_metadata_cache_mb=16.0)
    _writer, blob_id = written_blob(deployment)
    reader = deployment.new_client("reader")
    walks = count_tree_queries(monkeypatch)
    stats = reader.meta.cache.stats
    first = drive(deployment, reader.read(blob_id, 0.0, 64.0))
    assert len(walks) == 1 and provider_gets(deployment) > 0
    for _ in range(2):
        before = (stats.hits, stats.misses, provider_gets(deployment))
        again = drive(deployment, reader.read(blob_id, 0.0, 64.0))
        assert (stats.hits, stats.misses, provider_gets(deployment)) == (
            before[0] + 1, before[1], before[2])
        assert again.ok and again.version == first.version == 1
    assert len(walks) == 1


def test_without_a_metadata_cache_every_read_walks_and_fetches(monkeypatch):
    deployment = make_deployment()  # client_metadata_cache_mb = 0
    _writer, blob_id = written_blob(deployment)
    reader = deployment.new_client("reader")
    walks = count_tree_queries(monkeypatch)
    fetched = []
    for _ in range(3):
        before = provider_gets(deployment)
        drive(deployment, reader.read(blob_id, 0.0, 64.0))
        fetched.append(provider_gets(deployment) - before)
    assert walks == [(1, 0, 4)] * 3
    assert fetched[0] > 0 and fetched == [fetched[0]] * 3


def test_a_warm_range_never_hides_a_newer_version(monkeypatch):
    """The entry is stamped with the version ``get_latest`` returned, so
    a reader that warmed ``latest`` sees the next publish at once — and
    can still name the old version."""
    deployment = make_deployment(client_metadata_cache_mb=16.0)
    writer, blob_id = written_blob(deployment, chunks=2)
    reader = deployment.new_client("reader")
    served = spy_on_serves(monkeypatch)
    assert drive(deployment, reader.read(blob_id, 0.0, 32.0)).version == 1
    old_keys = drain(served)
    assert drive(deployment, reader.read(blob_id, 0.0, 32.0)).version == 1  # warm
    assert len(set(old_keys)) == 2 and drain(served) == old_keys

    drive(deployment, writer.write(blob_id, 0.0, 32.0))  # v2: same range
    assert drive(deployment, reader.read(blob_id, 0.0, 32.0)).version == 2
    new_keys = drain(served)
    assert len(new_keys) == 2 and not set(new_keys) & set(old_keys)

    drive(deployment, writer.append(blob_id, 16.0))  # v3 shares v2's subtree
    assert drive(deployment, reader.read(blob_id, 0.0, 32.0)).version == 3
    assert drain(served) == new_keys

    old = drive(deployment, reader.read(blob_id, 0.0, 32.0, version=1))
    assert old.version == 1 and drain(served) == old_keys


def test_visibility_checks_run_ahead_of_a_warm_range():
    """A reader holding [16, 32) of v2 and [0, 16) of latest is still
    refused that range of v1 (beyond its size), a version never
    ticketed, and one ticketed but not yet published."""
    deployment = make_deployment(client_metadata_cache_mb=16.0)
    env = deployment.env
    writer, blob_id = written_blob(deployment, chunks=1)      # v1: 16 MB
    drive(deployment, writer.append(blob_id, 16.0))            # v2: 32 MB
    reader = deployment.new_client("reader")
    for _ in range(2):
        drive(deployment, reader.read(blob_id, 16.0, 16.0))
        drive(deployment, reader.read(blob_id, 16.0, 16.0, version=2))
        drive(deployment, reader.read(blob_id, 0.0, 16.0))
    with pytest.raises(RangeError):
        drive(deployment, reader.read(blob_id, 16.0, 16.0, version=1))
    with pytest.raises(VersionNotFound):
        drive(deployment, reader.read(blob_id, 0.0, 16.0, version=7))

    release = env.event()

    class HeldPublish:
        """The writer's version manager, its complete held back."""

        def __getattr__(self, name):
            return getattr(deployment.vmanager, name)

        def remote_complete(self, caller, ticket, **deadline):
            yield release
            return (yield from deployment.vmanager.remote_complete(
                caller, ticket, **deadline))

    writer.vm = HeldPublish()
    held = env.process(writer.write(blob_id, 0.0, 16.0))  # v3, unpublished
    deployment.run(until=env.now + 30.0)
    assert deployment.vmanager.blob_info(blob_id).versions[3].publish_time is None
    with pytest.raises(VersionNotFound):
        drive(deployment, reader.read(blob_id, 0.0, 16.0, version=3))
    assert drive(deployment, reader.read(blob_id, 0.0, 16.0)).version == 2
    release.succeed()
    deployment.run(until=held)
    assert drive(deployment, reader.read(blob_id, 0.0, 16.0)).version == 3
    assert [op.ok for op in reader.history[-6:]] == [
        True, False, False, False, True, True]


def test_a_hole_resolves_the_same_cold_and_warm(monkeypatch):
    deployment = make_deployment(client_metadata_cache_mb=16.0)
    writer = deployment.new_client("writer")
    blob_id = drive(deployment, writer.create_blob(16.0))
    drive(deployment, writer.write(blob_id, 32.0, 16.0))  # chunks 0, 1 unwritten
    reader = deployment.new_client("reader")
    served = spy_on_serves(monkeypatch)
    cold = drive(deployment, reader.read(blob_id, 0.0, 48.0))
    cold_keys = drain(served)
    warm = drive(deployment, reader.read(blob_id, 0.0, 48.0))
    assert cold.ok and warm.ok and len(cold_keys) == 1
    assert drain(served) == cold_keys
    hit, entry = reader.meta.cache.lookup(("r", blob_id, 1, 0, 3))
    assert hit and list(entry) == [2]
    # A range that is nothing but hole is held too (an empty dict is a hit).
    walks = count_tree_queries(monkeypatch)
    for _ in range(2):
        assert drive(deployment, reader.read(blob_id, 0.0, 32.0)).ok
    assert walks == [(1, 0, 2)] and drain(served) == []


def test_a_warm_range_holds_the_leaves_own_descriptors(monkeypatch):
    """The entry is the dict the walk returned: its descriptors are the
    objects in the providers' leaves, so a replica list mutated in place
    (what the ``ReplicationManager`` does) reaches a warm read exactly
    as it reaches a cold one."""
    deployment = make_deployment(client_metadata_cache_mb=16.0, replication=2)
    _writer, blob_id = written_blob(deployment, chunks=1)
    warm_reader = deployment.new_client("warm")
    drive(deployment, warm_reader.read(blob_id, 0.0, 16.0))
    hit, entry = warm_reader.meta.cache.lookup(("r", blob_id, 1, 0, 1))
    (leaf,) = [p.store[node_key(blob_id, 1, 0, 1)]
               for p in deployment.metadata_providers
               if node_key(blob_id, 1, 0, 1) in p.store]
    descriptor = leaf[1]
    assert hit and entry[0] is descriptor

    served = spy_on_serves(monkeypatch)

    def servers(client, reads=6):
        for _ in range(reads):
            drive(deployment, client.read(blob_id, 0.0, 16.0))
        providers = {provider for provider, _key in served}
        del served[:]
        return providers

    kept, dropped = descriptor.replicas
    descriptor.replicas.remove(dropped)
    assert servers(warm_reader) == servers(deployment.new_client("cold-1")) == {kept}

    added = next(p for p in deployment.providers.values()
                 if p.provider_id not in (kept, dropped))
    deployment.run(until=added.ingest(
        deployment.providers[kept].node, descriptor, client_id=None))
    descriptor.replicas[:] = [added.provider_id]
    assert servers(warm_reader) == servers(deployment.new_client("cold-2")) == {
        added.provider_id}


def test_dropped_ranges_are_walked_again(monkeypatch):
    """A resolved range is an entry like any other: ``invalidate`` and
    ``clear`` drop it and the next read walks to the same answer."""
    deployment = make_deployment(client_metadata_cache_mb=16.0)
    _writer, blob_id = written_blob(deployment)
    reader = deployment.new_client("reader")
    served = spy_on_serves(monkeypatch)
    walks = count_tree_queries(monkeypatch)
    cache = reader.meta.cache
    drive(deployment, reader.read(blob_id, 16.0, 32.0))
    keys = drain(served)
    assert cache.invalidate(("r", blob_id, 1, 1, 3))
    drive(deployment, reader.read(blob_id, 16.0, 32.0))
    assert len(walks) == 2 and drain(served) == keys
    gets = provider_gets(deployment)
    assert cache.clear() > 0 and len(cache) == 0
    drive(deployment, reader.read(blob_id, 16.0, 32.0))
    assert len(walks) == 3 and drain(served) == keys
    assert provider_gets(deployment) > gets  # the nodes went with it
    drive(deployment, reader.read(blob_id, 16.0, 32.0))
    assert len(walks) == 3 and drain(served) == keys


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
