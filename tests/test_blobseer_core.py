"""Integration tests for the BlobSeer substrate (five actors end to end)."""

import pytest

from repro.blobseer import (
    AccessDenied,
    AccessTable,
    BlobSeerConfig,
    BlobSeerDeployment,
    ChunkLost,
    RangeError,
    RecordingSink,
    VersionNotFound,
)
from repro.blobseer.instrument import (
    EV_ALLOCATION,
    EV_CHUNK_READ,
    EV_CHUNK_WRITE,
    EV_OP_END,
    EV_PUBLISH,
    EV_TICKET,
)
from repro.cluster import TestbedConfig


def make_deployment(**overrides):
    defaults = dict(
        data_providers=8,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=1),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def run_client_op(deployment, generator):
    process = deployment.env.process(generator)
    return deployment.run(until=process)


def test_create_blob_returns_ids():
    dep = make_deployment()
    client = dep.new_client("c1")

    def scenario(env):
        first = yield env.process(client.create_blob(64.0))
        second = yield env.process(client.create_blob(32.0))
        return first, second

    first, second = run_client_op(dep, scenario(dep.env))
    assert (first, second) == (1, 2)


def test_append_then_read_roundtrip():
    dep = make_deployment()
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        write = yield env.process(client.append(blob_id, 256.0))
        read = yield env.process(client.read(blob_id, 0.0, 256.0))
        return write, read

    write, read = run_client_op(dep, scenario(dep.env))
    assert write.ok and write.version == 1
    assert read.ok
    assert read.size_mb == 256.0
    assert write.throughput_mbps > 0


def test_write_throughput_near_nic_limit():
    """A single writer should push ~1 GB at close to its 125 MB/s NIC."""
    dep = make_deployment(data_providers=20)
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        return (yield env.process(client.append(blob_id, 1024.0)))

    result = run_client_op(dep, scenario(dep.env))
    assert result.throughput_mbps > 100.0  # NIC is 125, minus protocol overheads
    assert result.throughput_mbps <= 125.0


def test_versions_isolate_overwrites():
    dep = make_deployment()
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 256.0))
        yield env.process(client.write(blob_id, 64.0, 128.0))
        latest = dep.vmanager.latest(blob_id)
        old = yield env.process(client.read(blob_id, 0.0, 256.0, version=1))
        new = yield env.process(client.read(blob_id, 0.0, 256.0, version=2))
        return latest, old, new

    latest, old, new = run_client_op(dep, scenario(dep.env))
    assert latest[0] == 2
    assert latest[1] == 256.0
    assert old.ok and new.ok


def test_unaligned_write_rejected():
    dep = make_deployment()
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        try:
            yield env.process(client.append(blob_id, 100.0))
        except RangeError:
            return "rejected"
        return "accepted"

    assert run_client_op(dep, scenario(dep.env)) == "rejected"


def test_read_beyond_size_rejected():
    dep = make_deployment()
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 64.0))
        try:
            yield env.process(client.read(blob_id, 0.0, 128.0))
        except RangeError:
            return "rejected"
        return "accepted"

    assert run_client_op(dep, scenario(dep.env)) == "rejected"


def read_of_version(version, offset_mb):
    """After two 2-chunk appends (v1 = 8 MB, v2 = 16 MB), read 8 MB of
    *version* at *offset_mb*; returns (the error's type or None, the
    reader's last recorded op)."""
    dep = make_deployment()
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(4.0))
        yield env.process(client.append(blob_id, 8.0))
        yield env.process(client.append(blob_id, 8.0))
        try:
            yield env.process(client.read(blob_id, offset_mb, 8.0, version=version))
        except (RangeError, VersionNotFound) as exc:
            return type(exc)

    return run_client_op(dep, scenario(dep.env)), client.history[-1]


def test_versioned_read_is_range_checked_against_that_version():
    """[8, 16) exists in v2 but lies beyond the end of v1."""
    error, op = read_of_version(2, 8.0)
    assert error is None and op.ok and op.version == 2
    error, op = read_of_version(1, 8.0)
    assert error is RangeError
    assert op.op == "read" and not op.ok  # a failed op, not goodput


def test_read_of_a_version_never_ticketed_is_rejected():
    error, op = read_of_version(7, 0.0)
    assert error is VersionNotFound
    assert op.op == "read" and not op.ok


def test_concurrent_appends_serialize_versions():
    dep = make_deployment(data_providers=12)
    clients = [dep.new_client(f"c{i}") for i in range(4)]

    def writer(env, client, blob_id):
        return (yield env.process(client.append(blob_id, 128.0)))

    def scenario(env):
        blob_id = yield env.process(clients[0].create_blob(64.0))
        procs = [env.process(writer(env, c, blob_id)) for c in clients]
        results = yield env.all_of(procs)
        return blob_id, [results[p] for p in procs]

    blob_id, results = run_client_op(dep, scenario(dep.env))
    versions = sorted(r.version for r in results)
    assert versions == [1, 2, 3, 4]
    # All four appends landed: size = 4 * 128 MB.
    assert dep.vmanager.latest(blob_id)[1] == 512.0


def test_replication_places_chunks_on_distinct_providers():
    dep = make_deployment(replication=3)
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 128.0))
        return blob_id

    run_client_op(dep, scenario(dep.env))
    for provider in dep.providers.values():
        for descriptor in provider.chunks.values():
            assert len(set(descriptor.replicas)) == 3


def test_read_survives_single_replica_failure():
    dep = make_deployment(replication=2)
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 128.0))
        # Kill one provider that holds chunk replicas.
        holders = [p for p in dep.providers.values() if p.chunks]
        holders[0].node.fail()
        result = yield env.process(client.read(blob_id, 0.0, 128.0))
        return result

    result = run_client_op(dep, scenario(dep.env))
    assert result.ok


def test_read_fails_when_all_replicas_lost():
    dep = make_deployment(replication=1)
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 128.0))
        for provider in list(dep.providers.values()):
            if provider.chunks:
                provider.node.fail()
        try:
            yield env.process(client.read(blob_id, 0.0, 128.0))
        except ChunkLost:
            return "lost"
        return "ok"

    assert run_client_op(dep, scenario(dep.env)) == "lost"


def test_access_table_blocks_client():
    access = AccessTable()
    dep = BlobSeerDeployment(
        BlobSeerConfig(data_providers=4, metadata_providers=1,
                       testbed=TestbedConfig(seed=1)),
        access=access,
    )
    client = dep.new_client("attacker")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 64.0))
        access.block("attacker", reason="dos")
        try:
            yield env.process(client.append(blob_id, 64.0))
        except AccessDenied as exc:
            return exc.reason
        return "allowed"

    assert run_client_op(dep, scenario(dep.env)) == "dos"


def test_access_table_throttle_slows_writes():
    def run_with(cap):
        access = AccessTable()
        dep = BlobSeerDeployment(
            BlobSeerConfig(data_providers=4, metadata_providers=1,
                           testbed=TestbedConfig(seed=1)),
            access=access,
        )
        client = dep.new_client("c1")
        if cap is not None:
            access.throttle("c1", cap)

        def scenario(env):
            blob_id = yield env.process(client.create_blob(64.0))
            return (yield env.process(client.append(blob_id, 128.0)))

        return run_client_op(dep, scenario(dep.env))

    full = run_with(None)
    slow = run_with(10.0)
    assert slow.duration_s > 3 * full.duration_s


def test_instrumentation_emits_expected_events():
    sink = RecordingSink()
    dep = BlobSeerDeployment(
        BlobSeerConfig(data_providers=4, metadata_providers=1,
                       testbed=TestbedConfig(seed=1)),
        sink=sink,
    )
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 128.0))
        yield env.process(client.read(blob_id, 0.0, 128.0))

    run_client_op(dep, scenario(dep.env))
    assert len(sink.of_type(EV_CHUNK_WRITE)) == 2
    assert len(sink.of_type(EV_CHUNK_READ)) == 2
    assert len(sink.of_type(EV_TICKET)) == 1
    assert len(sink.of_type(EV_PUBLISH)) == 1
    assert len(sink.of_type(EV_ALLOCATION)) == 1
    op_ends = sink.of_type(EV_OP_END)
    assert {e.fields["op"] for e in op_ends} >= {"append", "read"}


def test_client_history_records_all_ops():
    dep = make_deployment()
    client = dep.new_client("c1")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 64.0))
        yield env.process(client.read(blob_id, 0.0, 64.0))

    run_client_op(dep, scenario(dep.env))
    assert [r.op for r in client.history] == ["create", "append", "read"]
    assert all(r.ok for r in client.history)


def test_elastic_add_and_retire_provider():
    dep = make_deployment(data_providers=4)
    assert dep.pmanager.pool_size() == 4
    new_provider = dep.add_provider()
    assert dep.pmanager.pool_size() == 5
    assert new_provider.provider_id == "provider-4"
    # Retiring is what elasticity's scale-down does: stop allocating
    # onto the provider, then drop it from the pool.
    dep.providers["provider-0"].decommission()
    dep.pmanager.deregister("provider-0")
    assert dep.pmanager.pool_size() == 4


def test_determinism_same_seed_same_trace():
    def run_once():
        dep = make_deployment(allocation="random")
        clients = [dep.new_client(f"c{i}") for i in range(3)]

        def writer(env, client, blob_id):
            yield env.process(client.append(blob_id, 128.0))

        def scenario(env):
            blob_id = yield env.process(clients[0].create_blob(64.0))
            procs = [env.process(writer(env, c, blob_id)) for c in clients]
            yield env.all_of(procs)
            return blob_id

        run_client_op(dep, scenario(dep.env))
        return [
            (r.client_id, r.op, round(r.duration_s, 9))
            for c in clients
            for r in c.history
        ], dep.now

    assert run_once() == run_once()
