"""Focused unit tests for data providers and metadata providers."""

import pytest

from repro.blobseer import (
    BlobSeerConfig,
    BlobSeerDeployment,
    BlobSeerError,
    ProviderUnavailable,
    StorageFull,
)
from repro.blobseer.blob import ChunkDescriptor
from repro.blobseer.metadata import LocalKV, MetadataProvider, MetadataStore
from repro.blobseer.provider import DataProvider
from repro.cluster import Testbed, TestbedConfig


def make_pair(disk_mb=1000.0, seed=55):
    bed = Testbed(TestbedConfig(seed=seed))
    src = bed.add_node("src")
    dst = bed.add_node("dst", disk_mb=disk_mb)
    provider = DataProvider(dst, "p0")
    return bed, src, provider


def chunk(key="k0", size=64.0):
    return ChunkDescriptor(blob_id=1, storage_key=key, size_mb=size)


def test_ingest_stores_and_accounts():
    bed, src, provider = make_pair()
    descriptor = chunk()
    done = provider.ingest(src, descriptor, client_id="c1")
    bed.run(until=done)
    assert descriptor.storage_key in provider.chunks
    assert provider.node.disk_used_mb == 64.0
    assert provider.chunks_written == 1
    assert provider.bytes_written_mb == 64.0
    assert descriptor.created_at > 0


def test_ingest_rejected_when_disk_full():
    bed, src, provider = make_pair(disk_mb=100.0)

    def scenario(env):
        yield provider.ingest(src, chunk("a", 64.0))
        try:
            yield provider.ingest(src, chunk("b", 64.0))
        except StorageFull:
            return "full"
        return "stored"

    process = bed.env.process(scenario(bed.env))
    assert bed.run(until=process) == "full"


def test_ingest_rejected_when_decommissioned():
    bed, src, provider = make_pair()
    provider.decommission()

    def scenario(env):
        try:
            yield provider.ingest(src, chunk())
        except ProviderUnavailable:
            return "unavailable"
        return "stored"

    process = bed.env.process(scenario(bed.env))
    assert bed.run(until=process) == "unavailable"
    provider.recommission()
    assert provider.available


def test_serve_unknown_chunk_rejected():
    bed, src, provider = make_pair()

    def scenario(env):
        try:
            yield provider.serve(src, chunk("ghost"))
        except BlobSeerError:
            return "missing"
        return "served"

    process = bed.env.process(scenario(bed.env))
    assert bed.run(until=process) == "missing"


def test_disk_queue_serializes_commits():
    """Two simultaneous ingests commit one after the other: the second
    completes one disk service time (64 MB at 120 MB/s + 3 ms) later."""
    bed, src, provider = make_pair()
    times = []

    def one(env, key):
        yield provider.ingest(src, chunk(key))
        times.append(bed.env.now)

    bed.env.process(one(bed.env, "a"))
    bed.env.process(one(bed.env, "b"))
    bed.run(until=30.0)
    assert len(times) == 2
    # Network transfer (~0.5 s shared) + one commit each, serialized.
    assert times[1] - times[0] == pytest.approx(64.0 / 120.0 + 0.003)


def test_disk_queue_length_reports_backlog():
    bed, src, provider = make_pair()  # ~0.54 s of disk per chunk
    for i in range(4):
        provider.ingest(src, chunk(f"k{i}"))
    bed.run(until=2.3)  # transfers done (shared NIC ~2 s), commits queued
    assert provider.disk_queue_length >= 3


def test_delete_chunk_frees_space_and_updates_replicas():
    bed, src, provider = make_pair()
    descriptor = chunk()
    descriptor.replicas = ["p0", "p1"]
    done = provider.ingest(src, descriptor)
    bed.run(until=done)
    assert provider.delete_chunk(descriptor.storage_key)
    assert provider.node.disk_used_mb == 0.0
    assert descriptor.replicas == ["p1"]
    assert not provider.delete_chunk(descriptor.storage_key)  # idempotent


def test_node_failure_clears_chunks_and_replicas():
    bed, src, provider = make_pair()
    descriptor = chunk()
    descriptor.replicas = ["p0"]
    done = provider.ingest(src, descriptor)
    bed.run(until=done)
    provider.node.fail()
    assert provider.chunks == {}
    assert descriptor.replicas == []
    assert not provider.available


def test_load_score_rises_under_traffic():
    bed, src, provider = make_pair()
    idle = provider.load_score()
    provider.ingest(src, chunk("big", 500.0))
    bed.run(until=1.0)
    busy = provider.load_score()
    assert busy > idle


# ------------------------------------------------------------------ metadata
def test_local_kv_generator_interface():
    kv = LocalKV()

    def drain(gen):
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    assert drain(kv.put("a", 1)) is None
    assert drain(kv.get("a")) == 1
    assert drain(kv.get("missing")) is None
    assert "a" in kv and len(kv) == 1


def test_metadata_store_routes_deterministically():
    bed = Testbed(TestbedConfig(seed=55))
    nodes = [bed.add_node(f"m{i}") for i in range(3)]
    providers = [MetadataProvider(n, f"meta-{i}") for i, n in enumerate(nodes)]
    client_node = bed.add_node("client")
    store = MetadataStore(bed.net, client_node, providers)

    def scenario(env):
        for i in range(30):
            yield from store.put(f"key-{i}", i)
        values = []
        for i in range(30):
            values.append((yield from store.get(f"key-{i}")))
        return values

    process = bed.env.process(scenario(bed.env))
    assert bed.run(until=process) == list(range(30))
    # Keys sharded across providers, same key -> same provider.
    counts = [len(p.store) for p in providers]
    assert sum(counts) == 30
    assert sum(1 for c in counts if c > 0) >= 2
    assert store._provider_for("key-7") is store._provider_for("key-7")


def test_metadata_store_requires_providers():
    bed = Testbed(TestbedConfig(seed=55))
    client_node = bed.add_node("client")
    with pytest.raises(ValueError):
        MetadataStore(bed.net, client_node, [])


def test_metadata_counters_track_ops():
    bed = Testbed(TestbedConfig(seed=55))
    provider = MetadataProvider(bed.add_node("m0"), "meta-0")
    provider.local_put("k", 1)
    provider.local_get("k")
    provider.local_get("other")
    assert provider.puts == 1
    assert provider.gets == 2
    assert len(provider) == 1
