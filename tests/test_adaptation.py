"""Tests for the self-* adaptation engines."""

import pytest

from repro.adaptation import (
    ColdDataRemoval,
    ControlLoop,
    ElasticityController,
    LRURemoval,
    OrphanRemoval,
    RemovalManager,
    ReplicationManager,
    TTLRemoval,
    migrate_chunks,
)
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.decision import Action, Arbiter
from repro.introspection import QueryEngine
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads import CorrectWriter


def make_deployment(**overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=7),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def write_blob(dep, client, size_mb=256.0, chunk=64.0):
    def scenario(env):
        blob_id = yield env.process(client.create_blob(chunk))
        yield env.process(client.append(blob_id, size_mb))
        return blob_id

    process = dep.env.process(scenario(dep.env))
    return dep.run(until=process)


# ------------------------------------------------------------------ control loop
def test_control_loop_cooldown_suppresses_steps():
    dep = make_deployment()

    class Noisy(ControlLoop):
        name = "noisy"

        def plan(self, now):
            yield Action("act", self.name)

    loop = Noisy(interval_s=1.0, cooldown_s=5.0)
    dep.env.process(loop.run(dep.env))
    dep.run(until=12.5)
    # Steps at 1s, then cooldown to 6s, act, cooldown to 11s, act.
    assert len(loop.decisions) == 3


# ------------------------------------------------------------------ replication
def test_replication_repairs_after_crash():
    dep = make_deployment(replication=2)
    client = dep.new_client("c1")
    write_blob(dep, client)
    manager = ReplicationManager(dep, target_replication=2, interval_s=2.0)
    dep.env.process(manager.run(dep.env))

    victim = next(p for p in dep.providers.values() if p.chunks)
    lost = len(victim.chunks)
    assert lost > 0
    victim.node.fail()
    dep.run(until=dep.now + 30.0)

    assert manager.repairs_done >= lost
    assert manager.repair_traffic_mb >= lost * 64.0
    # Every chunk is back at 2 live replicas.
    for key, descriptor in manager.chunk_directory().items():
        assert len(manager.live_replicas(descriptor)) >= 2


def test_replication_reports_lost_chunks():
    dep = make_deployment(replication=1)
    client = dep.new_client("c1")
    write_blob(dep, client)
    manager = ReplicationManager(dep, target_replication=1, interval_s=2.0)
    dep.env.process(manager.run(dep.env))
    for provider in list(dep.providers.values()):
        if provider.chunks:
            provider.node.fail()
    dep.run(until=dep.now + 10.0)
    # Sole replicas died with their nodes: nothing to repair from.
    assert manager.lost_chunks == [] or manager.repairs_done == 0


def test_replication_promotes_hot_chunks():
    dep = make_deployment(replication=1)
    client = dep.new_client("writer")
    blob_id = write_blob(dep, client, size_mb=64.0)
    manager = ReplicationManager(dep, target_replication=1, interval_s=5.0)
    dep.env.process(manager.run(dep.env))

    def hot_reader(env, reader):
        for _ in range(30):
            yield env.process(reader.read(blob_id, 0.0, 64.0))

    # Three readers back to back keep the chunk above one read per second.
    dep.run(until=dep.env.all_of([
        dep.env.process(hot_reader(dep.env, dep.new_client(f"reader-{i}")))
        for i in range(3)]))
    dep.run(until=dep.now + 15.0)
    # Hot while read: promoted; cooled afterwards: demoted back to target.
    assert manager.promotions >= 1
    assert manager.demotions >= 1
    for descriptor in manager.chunk_directory().values():
        assert len(descriptor.replicas) == 1


def test_replication_demotes_cold_extra_replicas():
    dep = make_deployment(replication=3)
    client = dep.new_client("c1")
    write_blob(dep, client, size_mb=64.0)
    manager = ReplicationManager(dep, target_replication=2, interval_s=2.0)
    dep.env.process(manager.run(dep.env))
    dep.run(until=dep.now + 10.0)
    assert manager.demotions >= 1
    for descriptor in manager.chunk_directory().values():
        assert len(descriptor.replicas) == 2


def test_migrate_chunks_moves_sole_copies():
    dep = make_deployment(replication=1)
    client = dep.new_client("c1")
    write_blob(dep, client)
    source = next(p for p in dep.providers.values() if p.chunks)
    count = len(source.chunks)

    def drain(env):
        moved = yield from migrate_chunks(source, dep)
        return moved

    process = dep.env.process(drain(dep.env))
    moved = dep.run(until=process)
    assert moved == count
    assert not source.chunks
    total_elsewhere = sum(
        len(p.chunks) for p in dep.providers.values() if p is not source
    )
    assert total_elsewhere >= count


# ------------------------------------------------------------------ elasticity
def test_elasticity_scales_up_under_load():
    dep = make_deployment(data_providers=3)
    controller = ElasticityController(
        dep, min_providers=3, max_providers=10,
        high_load=0.3, interval_s=2.0, cooldown_s=4.0, provision_delay_s=1.0,
    )
    dep.env.process(controller.run(dep.env))
    writers = [CorrectWriter(dep.new_client(f"w{i}"), op_mb=512.0, max_ops=6)
               for i in range(6)]
    for writer in writers:
        dep.env.process(writer.run(dep.env))
    dep.run(until=60.0)
    assert controller.scale_ups > 0
    # The pool grew while the load lasted (it may have contracted again
    # once the writers finished — that is the desired elastic behaviour).
    peak_pool = max(pool for _t, pool, _load in controller.pool_timeline)
    assert peak_pool > 3


def test_elasticity_scales_down_when_idle():
    dep = make_deployment(data_providers=8)
    controller = ElasticityController(
        dep, min_providers=3, max_providers=10,
        low_load=0.2, interval_s=2.0, cooldown_s=2.0,
    )
    dep.env.process(controller.run(dep.env))
    dep.run(until=40.0)
    assert controller.scale_downs > 0
    assert dep.pmanager.pool_size() < 8
    assert dep.pmanager.pool_size() >= 3


def test_elasticity_respects_min_pool():
    dep = make_deployment(data_providers=3)
    controller = ElasticityController(
        dep, min_providers=3, low_load=0.5, interval_s=1.0, cooldown_s=0.0,
    )
    dep.env.process(controller.run(dep.env))
    dep.run(until=20.0)
    assert dep.pmanager.pool_size() == 3
    assert controller.scale_downs == 0


def test_elasticity_drain_preserves_data():
    dep = make_deployment(data_providers=6, replication=1)
    client = dep.new_client("c1")
    blob_id = write_blob(dep, client, size_mb=256.0)
    controller = ElasticityController(
        dep, min_providers=2, low_load=0.5, interval_s=2.0, cooldown_s=2.0,
    )
    dep.env.process(controller.run(dep.env))
    dep.run(until=60.0)
    assert controller.scale_downs > 0

    def read_back(env):
        return (yield env.process(client.read(blob_id, 0.0, 256.0)))

    process = dep.env.process(read_back(dep.env))
    result = dep.run(until=process)
    assert result.ok


def test_a_cancelled_scale_down_keeps_its_provider_charged():
    """The ``memory_mb`` ledger charges elasticity one footprint per
    pooled provider.  Five 100 MB disks hold four 64 MB sole copies, one
    each: the empty fifth provider drains at once and is retired, which
    credits its footprint; every later drain finds no 64 MB free for its
    sole copy, is cancelled and keeps its provider pooled — and charged."""
    cost = 64.0
    dep = make_deployment(data_providers=5, replication=1,
                          testbed=TestbedConfig(seed=7, disk_mb=100.0))
    write_blob(dep, dep.new_client("c1"), size_mb=256.0)
    arbiter = Arbiter(env=dep.env)
    arbiter.ledger("memory_mb", capacity=10 * cost)
    arbiter.assume("elasticity", "memory_mb", 5 * cost)
    controller = ElasticityController(
        dep, min_providers=2, interval_s=2.0, cooldown_s=2.0,
        arbiter=arbiter, provider_cost_mb=cost,
    )
    dep.env.process(controller.run(dep.env))
    dep.run(until=dep.now + 30.0)
    assert controller.scale_downs >= 3
    pool = dep.active_pmanager().pool_size()
    assert pool == 4
    assert arbiter.ledgers["memory_mb"].holding("elasticity") == \
        pytest.approx(pool * cost)


# ------------------------------------------------------------------ removal
def place_chunk(dep, provider_id, key, created_at=0.0, last_access=0.0,
                version=1, size=64.0, blob_id=1):
    from repro.blobseer.blob import ChunkDescriptor

    provider = dep.providers[provider_id]
    descriptor = ChunkDescriptor(
        blob_id=blob_id, storage_key=key, size_mb=size,
        replicas=[provider_id], version=version,
        created_at=created_at, last_access=last_access,
    )
    provider.node.disk.put(size)
    provider.chunks[key] = descriptor
    return descriptor


def test_ttl_removal_selects_old_chunks():
    strategy = TTLRemoval(ttl_s=100.0)
    dep = make_deployment()
    old = place_chunk(dep, "provider-0", "old", created_at=1.0)
    new = place_chunk(dep, "provider-0", "new", created_at=950.0)
    chunks = {"old": old, "new": new}
    assert strategy.select(chunks, now=1000.0) == ["old"]


def test_cold_removal_selects_idle_chunks():
    strategy = ColdDataRemoval(idle_s=50.0)
    dep = make_deployment()
    cold = place_chunk(dep, "provider-0", "cold", last_access=1.0)
    hot = place_chunk(dep, "provider-0", "hot", last_access=990.0)
    assert strategy.select({"cold": cold, "hot": hot}, now=1000.0) == ["cold"]


def test_lru_removal_respects_budget():
    strategy = LRURemoval(budget_mb=128.0)
    dep = make_deployment()
    chunks = {
        f"k{i}": place_chunk(dep, "provider-0", f"k{i}", last_access=float(i))
        for i in range(4)  # 256 MB total, budget 128 -> evict 2 oldest
    }
    victims = strategy.select(chunks, now=100.0)
    assert victims == ["k0", "k1"]


def test_lru_removal_noop_under_budget():
    strategy = LRURemoval(budget_mb=1000.0)
    dep = make_deployment()
    chunks = {"k": place_chunk(dep, "provider-0", "k")}
    assert strategy.select(chunks, now=100.0) == []


def test_orphan_removal_selects_unpublished():
    strategy = OrphanRemoval(grace_s=10.0)
    dep = make_deployment()
    orphan = place_chunk(dep, "provider-0", "orphan", created_at=1.0, version=-1)
    published = place_chunk(dep, "provider-0", "ok", created_at=1.0, version=3)
    assert strategy.select({"orphan": orphan, "ok": published}, now=100.0) == ["orphan"]


def test_removal_manager_reclaims_space():
    """What a later version overwrote is no part of the latest version:
    the periodic sweep reclaims it, replica by replica."""
    dep = make_deployment(replication=2)
    client = dep.new_client("c1")
    blob_id = write_blob(dep, client, size_mb=128.0)
    dep.run(until=dep.env.process(client.write(blob_id, 0.0, 128.0)))
    used = sum(p.node.disk_used_mb for p in dep.providers.values())
    manager = RemovalManager(dep, [TTLRemoval(ttl_s=50.0)])
    dep.env.process(manager.run(dep.env))
    dep.run(until=70.0)
    assert manager.removed_chunks == 4  # v1's two chunks x two replicas
    assert manager.reclaimed_mb == pytest.approx(256.0)
    assert sum(p.node.disk_used_mb for p in dep.providers.values()) == \
        pytest.approx(used - 256.0)
    assert dep.run(until=dep.env.process(
        client.read(blob_id, 0.0, 128.0))).ok


def read_all(dep, client, blob_id, size_mb):
    return dep.run(until=dep.env.process(client.read(blob_id, 0.0, size_mb)))


def test_removal_never_touches_what_the_latest_version_references():
    """A copy-on-write version shares every chunk it did not overwrite:
    after two appends v2 still points at v1's chunk, so a TTL sweep past
    both removes nothing and v2 reads back in full.  Once v3 overwrites
    chunk 0, exactly v1's chunk 0 is garbage — and v3 reads back."""
    dep = make_deployment()
    client = dep.new_client("c1")
    blob_id = write_blob(dep, client, size_mb=64.0)            # v1: chunk 0
    dep.run(until=dep.env.process(client.append(blob_id, 64.0)))  # v2: chunk 1
    dep.run(until=dep.now + 30.0)
    manager = RemovalManager(dep, [TTLRemoval(ttl_s=10.0)])
    assert manager.step(dep.now) == []
    assert manager.removed_chunks == 0
    assert read_all(dep, client, blob_id, 128.0).ok

    dep.run(until=dep.env.process(client.write(blob_id, 0.0, 64.0)))  # v3
    dep.run(until=dep.now + 30.0)
    (decision,) = manager.step(dep.now)
    assert decision.detail["chunks"] == 1 and manager.removed_chunks == 1
    held = sorted((d.chunk_index, d.version) for p in dep.providers.values()
                  for d in p.chunks.values())
    assert held == [(0, 3), (1, 2)]
    assert read_all(dep, client, blob_id, 128.0).ok


def test_removal_manager_protects_latest_version():
    dep = make_deployment()
    client = dep.new_client("c1")
    blob_id = write_blob(dep, client, size_mb=128.0)
    manager = RemovalManager(dep, [TTLRemoval(ttl_s=5.0)])
    dep.env.process(manager.run(dep.env))
    dep.run(until=60.0)
    # The blob's only version stays intact despite the aggressive TTL.
    def read_back(env):
        return (yield env.process(client.read(blob_id, 0.0, 128.0)))

    process = dep.env.process(read_back(dep.env))
    assert dep.run(until=process).ok


def test_removal_manager_collects_orphans_from_aborted_writes():
    from repro.blobseer import AccessTable

    access = AccessTable()
    dep = BlobSeerDeployment(
        BlobSeerConfig(data_providers=4, metadata_providers=1,
                       testbed=TestbedConfig(seed=7)),
        access=access,
    )
    client = dep.new_client("victim")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        # Abort the write mid-flight by blocking + killing its transfers.
        def kill(env):
            yield env.timeout(1.0)
            access.block("victim", "test")
            dep.net.abort_matching(lambda f: f.tag == "victim", "blocked")

        env.process(kill(env))
        try:
            yield env.process(client.append(blob_id, 256.0))
        except Exception:
            pass

    process = dep.env.process(scenario(dep.env))
    dep.run(until=process)
    orphaned = sum(
        1 for p in dep.providers.values()
        for d in p.chunks.values() if d.version < 0
    )
    manager = RemovalManager(dep, [OrphanRemoval(grace_s=5.0)])
    dep.env.process(manager.run(dep.env))
    dep.run(until=dep.now + 30.0)
    if orphaned:
        assert manager.removed_chunks == orphaned
    leftover = sum(
        1 for p in dep.providers.values()
        for d in p.chunks.values() if d.version < 0
    )
    assert leftover == 0


def test_elasticity_controller_publishes_and_smooths_with_query():
    from repro.adaptation.elasticity import ElasticityController
    from repro.blobseer import BlobSeerConfig, BlobSeerDeployment

    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=3, metadata_providers=1))
    env = deployment.env
    registry = MetricsRegistry(env)
    engine = QueryEngine(metrics=registry, env=env, window_s=30.0)
    controller = ElasticityController(deployment, query=engine,
                                      interval_s=5.0)
    assert controller.smooth_window_s == 15.0

    raw_load = controller.pool_load()
    # A synthetic earlier reading drags the windowed mean away from the
    # instantaneous value — proof the controller acts on the smoothed
    # signal.
    registry.sample("elasticity.pool_load", raw_load + 1.0, time=0.0)
    controller.step(env.now)
    assert len(registry.series("elasticity.pool_load")) == 2
    assert len(registry.series("elasticity.pool_fill")) == 1
    assert len(registry.series("elasticity.pool_size")) == 1
    _now, _pool, used_load = controller.pool_timeline[0]
    assert used_load == pytest.approx(raw_load + 0.5)

    # Without a query engine nothing is published and raw signals rule.
    bare = ElasticityController(BlobSeerDeployment(BlobSeerConfig(
        data_providers=3, metadata_providers=1)))
    bare.step(0.0)
    assert bare.pool_timeline[0][2] == pytest.approx(bare.pool_load())
