"""Tests for the monitoring layer: filters, repository, pipeline."""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.blobseer.instrument import (
    EV_CHUNK_WRITE,
    EV_NODE_PHYSICAL,
    EV_OP_END,
    MonitoringEvent,
)
from repro.cluster import Testbed, TestbedConfig
from repro.monitoring import (
    FilterChain,
    MonitoringConfig,
    MonitoringService,
    MonitoringStack,
    SamplingFilter,
    StorageRepository,
    StorageServer,
    TypeFilter,
    WindowAggregateFilter,
)


def make_event(t=0.0, actor="p0", etype=EV_CHUNK_WRITE, client=None, **fields):
    return MonitoringEvent(
        time=t, actor_type="provider", actor_id=actor, event_type=etype,
        client_id=client, fields=fields,
    )


# ------------------------------------------------------------------ filters
def test_type_filter_keeps_allowed():
    f = TypeFilter([EV_CHUNK_WRITE])
    events = [make_event(etype=EV_CHUNK_WRITE), make_event(etype=EV_OP_END)]
    assert [e.event_type for e in f.apply(events)] == [EV_CHUNK_WRITE]


def test_sampling_filter_keeps_every_nth_per_parameter():
    f = SamplingFilter(every=3)
    events = [make_event(t=i, actor="p0") for i in range(9)]
    kept = f.apply(events)
    assert [e.time for e in kept] == [0, 3, 6]


def test_sampling_filter_independent_streams():
    f = SamplingFilter(every=2)
    events = [make_event(t=i, actor=f"p{i % 2}") for i in range(8)]
    kept = f.apply(events)
    # Each actor's stream is sampled separately: both keep 2 of 4.
    assert sum(1 for e in kept if e.actor_id == "p0") == 2
    assert sum(1 for e in kept if e.actor_id == "p1") == 2


def test_window_aggregate_filter_collapses_batches():
    f = WindowAggregateFilter([EV_CHUNK_WRITE])
    events = [make_event(t=i, client="c1", size_mb=64.0) for i in range(4)]
    out = f.apply(events)
    assert len(out) == 1
    assert out[0].fields["count"] == 4
    assert out[0].fields["size_mb"] == pytest.approx(256.0)


def test_filter_chain_composes():
    chain = FilterChain(TypeFilter([EV_CHUNK_WRITE]), SamplingFilter(every=2))
    events = [make_event(t=i) for i in range(4)] + [make_event(etype=EV_OP_END)]
    assert len(chain.apply(events)) == 2


def test_monitoring_service_stores_only_what_its_filters_keep():
    bed = Testbed()
    repo = StorageRepository([StorageServer(bed.add_node("s0"), "s0")])
    service = MonitoringService(bed.add_node("svc"), "svc", repo,
                                filters=[TypeFilter([EV_CHUNK_WRITE])])
    batch = [make_event(t=i) for i in range(3)] + [make_event(etype=EV_OP_END)]
    kept = bed.run(until=bed.env.process(service.ingest(batch)))
    assert kept == 3 and (service.received, service.forwarded) == (4, 3)
    bed.run(until=bed.now + 1.0)
    assert {e.event_type for e in repo.all_records()} == {EV_CHUNK_WRITE}
    # A batch the chain drops entirely costs no transfer and stores nothing.
    assert bed.run(until=bed.env.process(
        service.ingest([make_event(etype=EV_OP_END)]))) == 0
    assert repo.stored_count == 3


# ------------------------------------------------------------------ repository
def test_storage_server_persists_at_bounded_rate():
    bed = Testbed()
    node = bed.add_node("s0")
    server = StorageServer(node, "s0", write_rate_eps=100.0, buffer_capacity=1000)
    server.offer([make_event(t=0.0) for _ in range(50)])
    bed.run(until=0.2)
    assert len(server.records) < 50  # still draining
    bed.run(until=2.0)
    assert len(server.records) == 50
    assert server.dropped == 0


def test_storage_server_drops_on_overflow_without_cache():
    bed = Testbed()
    node = bed.add_node("s0")
    server = StorageServer(node, "s0", write_rate_eps=10.0, buffer_capacity=10,
                           burst_cache_capacity=0)
    dropped = server.offer([make_event() for _ in range(50)])
    assert dropped == 40
    assert server.dropped == 40


def test_burst_cache_absorbs_overflow():
    bed = Testbed()
    node = bed.add_node("s0")
    server = StorageServer(node, "s0", write_rate_eps=10.0, buffer_capacity=10,
                           burst_cache_capacity=100)
    dropped = server.offer([make_event() for _ in range(50)])
    assert dropped == 0
    assert server.cached_peak == 40
    # The cache reserves server memory.
    assert node.memory_used_mb > 0


def test_repository_shards_and_queries():
    bed = Testbed()
    servers = [
        StorageServer(bed.add_node(f"s{i}"), f"s{i}", write_rate_eps=1e6)
        for i in range(3)
    ]
    repo = StorageRepository(servers)
    events = [make_event(t=float(i), actor=f"p{i}") for i in range(30)]
    repo.store(events)
    bed.run(until=1.0)
    assert repo.stored_count == 30
    assert repo.dropped_count == 0
    # Sharding used more than one server for 30 distinct parameters.
    assert sum(1 for s in servers if s.records) >= 2
    assert [e.time for e in repo.all_records()] == sorted(e.time for e in events)
    assert len(repo.records_since(15.0)) == 15


# ------------------------------------------------------------------ pipeline
def deploy_with_monitoring(clients=2, **mon_overrides):
    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=6, metadata_providers=2, testbed=TestbedConfig(seed=5),
    ))
    config = MonitoringConfig(
        services=2, storage_servers=2, flush_interval_s=0.5, **mon_overrides
    )
    stack = MonitoringStack(dep.testbed, config)
    stack.attach(dep)
    cs = [dep.new_client(f"c{i}") for i in range(clients)]
    return dep, stack, cs


def test_pipeline_delivers_events_to_repository():
    dep, stack, clients = deploy_with_monitoring()

    def scenario(env):
        blob_id = yield env.process(clients[0].create_blob(64.0))
        yield env.process(clients[0].append(blob_id, 256.0))
        yield env.process(clients[1].read(blob_id, 0.0, 256.0))

    process = dep.env.process(scenario(dep.env))
    dep.run(until=process)
    dep.run(until=dep.now + 5.0)  # let flushers and writers drain
    stats = stack.stats()
    assert stats["emitted"] > 0
    assert stats["stored"] > 0
    assert stats["stored"] + stats["dropped"] <= stats["emitted"]
    assert stats["parameters"] >= 5


def test_pipeline_event_types_preserved():
    dep, stack, clients = deploy_with_monitoring()

    def scenario(env):
        blob_id = yield env.process(clients[0].create_blob(64.0))
        yield env.process(clients[0].append(blob_id, 128.0))

    process = dep.env.process(scenario(dep.env))
    dep.run(until=process)
    dep.run(until=dep.now + 5.0)
    types = {e.event_type for e in stack.repository.all_records()}
    assert "chunk_write" in types
    assert "ticket" in types
    assert "publish" in types


def test_physical_sensors_sample_nodes():
    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=3, metadata_providers=1, testbed=TestbedConfig(seed=5),
    ))
    stack = MonitoringStack(dep.testbed, MonitoringConfig(
        flush_interval_s=0.5,
        physical_sample_interval_s=1.0,
        sensor_stop_at=10.0,
    ))
    stack.attach(dep)
    dep.run(until=15.0)
    physical = [
        e for e in stack.repository.all_records()
        if e.event_type == EV_NODE_PHYSICAL
    ]
    assert physical
    sample = physical[0]
    assert "cpu_util" in sample.fields
    assert "disk_used_mb" in sample.fields


def test_monitoring_flush_latency_bounded():
    """Events must reach the repository within a few flush intervals."""
    dep, stack, clients = deploy_with_monitoring()

    def scenario(env):
        blob_id = yield env.process(clients[0].create_blob(64.0))
        yield env.process(clients[0].append(blob_id, 64.0))

    process = dep.env.process(scenario(dep.env))
    dep.run(until=process)
    op_end_time = dep.now
    dep.run(until=op_end_time + 3.0)
    stored_types = {e.event_type for e in stack.repository.all_records()}
    assert "chunk_write" in stored_types  # arrived within 3 s (6 flushes)


def test_a_batch_lost_in_flight_is_dropped_and_the_flushers_go_on():
    """Four writers x 2 x 1 GB on 10 providers with two monitoring
    services; provider-0's node crashes right after its first batch is
    admitted (t = 9.004 s).  That batch is lost — not counted as shipped
    — and every flusher keeps going: the run ends, every write is
    acknowledged and later batches are stored.  The severed transfer's
    ``TransferAborted`` used to escape the flusher and end the run."""
    from repro.cluster import FaultInjector
    from repro.monitoring.service import EVENT_WIRE_MB
    from repro.workloads import build_write_scenario

    scenario = build_write_scenario(clients=4, data_providers=10,
                                    op_mb=1024.0, ops_per_client=2,
                                    monitoring_services=2, seed=0)
    dep, stack = scenario.deployment, scenario.monitoring
    net, env = dep.testbed.net, dep.env
    injector = FaultInjector(dep.testbed)
    provider = dep.testbed.nodes["provider-0-node"]
    lost = []
    admit = net._admit

    def admit_then_crash(flow):
        admit(flow)
        if flow.src.name == provider.name and provider.alive:
            lost.append((env.now, round(flow.size / EVENT_WIRE_MB)))
            injector.crash_at(provider, env.now)

    net._admit = admit_then_crash
    scenario.run()
    ((crashed_at, batch),) = lost
    assert 9.0 < crashed_at < 9.01 and batch > 0
    assert all(op.ok for w in scenario.writers for op in w.client.history)
    stats = stack.stats()
    buffered = sum(map(len, stack._buffers.values()))
    assert stats["shipped"] == stats["emitted"] - batch - buffered
    assert stats["stored"] == stats["shipped"]
    assert max(r.time for r in stack.repository.all_records()) > crashed_at + 5.0
