"""Focused unit tests for the version manager's serialization protocol."""

import pytest

from repro.blobseer import (
    BlobNotFound,
    BlobSeerConfig,
    BlobSeerDeployment,
    RecordingSink,
    VersionNotFound,
)
from repro.cluster import TestbedConfig


def make_deployment(sink=None):
    return BlobSeerDeployment(BlobSeerConfig(
        data_providers=4, metadata_providers=1,
        testbed=TestbedConfig(seed=77),
    ), sink=sink)


def test_create_blob_validates_chunk_size():
    dep = make_deployment()
    with pytest.raises(ValueError):
        dep.vmanager.create_blob(0)
    with pytest.raises(ValueError):
        dep.vmanager.create_blob(-5)


def test_blob_info_unknown_blob():
    dep = make_deployment()
    with pytest.raises(BlobNotFound):
        dep.vmanager.blob_info(99)
    with pytest.raises(BlobNotFound):
        dep.vmanager.latest(99)


def test_version_record_requires_publication():
    dep = make_deployment()
    blob_id = dep.vmanager.create_blob(64.0)
    with pytest.raises(VersionNotFound):
        dep.vmanager.version_record(blob_id, 1)


def test_tickets_serialize_per_blob():
    """A second writer's ticket is only granted after the first writer
    completes (the per-blob metadata critical section)."""
    dep = make_deployment()
    env = dep.env
    vm = dep.vmanager
    blob_id = vm.create_blob(64.0)
    caller_a = dep.testbed.add_node("caller-a")
    caller_b = dep.testbed.add_node("caller-b")
    log = []

    def writer_a(env):
        ticket = yield from vm.remote_ticket(caller_a, blob_id, 64.0, "a")
        log.append(("a-ticket", env.now, ticket.version))
        yield env.timeout(5.0)  # long metadata phase
        yield from vm.remote_complete(caller_a, ticket)
        log.append(("a-done", env.now))

    def writer_b(env):
        yield env.timeout(0.5)  # request while A holds the lock
        ticket = yield from vm.remote_ticket(caller_b, blob_id, 64.0, "b")
        log.append(("b-ticket", env.now, ticket.version))
        yield from vm.remote_complete(caller_b, ticket)
        log.append(("b-done", env.now))

    env.process(writer_a(env))
    env.process(writer_b(env))
    dep.run(until=30.0)

    events = {name: entry for entry in log for name in [entry[0]]}
    assert events["a-ticket"][2] == 1
    assert events["b-ticket"][2] == 2
    # B's ticket was held back until A completed.
    assert events["b-ticket"][1] >= events["a-done"][1]
    assert vm.latest(blob_id)[0] == 2
    assert vm.latest(blob_id)[1] == 128.0  # two 64 MB appends


def test_tickets_to_distinct_blobs_do_not_serialize():
    dep = make_deployment()
    env = dep.env
    vm = dep.vmanager
    blob_a = vm.create_blob(64.0)
    blob_b = vm.create_blob(64.0)
    caller = dep.testbed.add_node("caller")
    grants = []

    def writer(env, blob_id, name):
        ticket = yield from vm.remote_ticket(caller, blob_id, 64.0, name)
        grants.append((name, env.now))
        yield env.timeout(5.0)
        yield from vm.remote_complete(caller, ticket)

    env.process(writer(env, blob_a, "a"))
    env.process(writer(env, blob_b, "b"))
    dep.run(until=30.0)
    times = dict(grants)
    # Both tickets granted promptly: no cross-blob serialization.
    assert times["a"] < 1.0 and times["b"] < 1.0


def test_abandon_releases_the_lock():
    dep = make_deployment()
    env = dep.env
    vm = dep.vmanager
    blob_id = vm.create_blob(64.0)
    caller = dep.testbed.add_node("caller")
    log = []

    def failing_writer(env):
        ticket = yield from vm.remote_ticket(caller, blob_id, 64.0, "crasher")
        log.append(("crasher-ticket", ticket.version))
        # Writer dies before completing: abandon instead of publish.
        vm.abandon(ticket)

    def healthy_writer(env):
        yield env.timeout(1.0)
        ticket = yield from vm.remote_ticket(caller, blob_id, 64.0, "healthy")
        log.append(("healthy-ticket", ticket.version))
        yield from vm.remote_complete(caller, ticket)

    env.process(failing_writer(env))
    env.process(healthy_writer(env))
    dep.run(until=30.0)
    # The abandoned version number is burned; the healthy writer got v2
    # and could publish (the lock was released).
    assert ("crasher-ticket", 1) in log
    assert ("healthy-ticket", 2) in log
    assert vm.latest(blob_id)[0] == 2
    # Version 1 never published.
    with pytest.raises(VersionNotFound):
        vm.version_record(blob_id, 1)


def test_a_ticketed_version_is_unreadable_until_it_is_published():
    """Atomic publish: a writer held between its ticket and its complete
    has written every chunk and every tree node of version 2, and a
    reader naming that version is still told it does not exist."""
    dep = make_deployment()
    env = dep.env
    writer, reader = dep.new_client("writer"), dep.new_client("reader")
    release = env.event()

    class HeldPublish:
        """The writer's version manager, its complete held back."""

        def __getattr__(self, name):
            return getattr(dep.vmanager, name)

        def remote_complete(self, caller, ticket, **deadline):
            yield release
            return (yield from dep.vmanager.remote_complete(
                caller, ticket, **deadline))

    def scenario(env):
        blob_id = yield env.process(writer.create_blob(64.0))
        yield env.process(writer.append(blob_id, 128.0))
        writer.vm = HeldPublish()
        held = env.process(writer.write(blob_id, 64.0, 64.0))
        yield env.timeout(30.0)  # pushes, ticket and tree nodes are long done
        assert dep.vmanager.blob_info(blob_id).versions[2].publish_time is None
        with pytest.raises(VersionNotFound):
            yield env.process(reader.read(blob_id, 0.0, 128.0, version=2))
        latest = yield env.process(reader.read(blob_id, 0.0, 128.0))
        release.succeed()
        yield held
        published = yield env.process(reader.read(blob_id, 0.0, 128.0, version=2))
        return latest, published

    latest, published = dep.run(until=env.process(scenario(env)))
    assert latest.ok and latest.version == 1
    assert published.ok and published.version == 2
    assert [op.ok for op in reader.history] == [False, True, True]


def test_double_publish_is_idempotent():
    """A re-sent complete (lost-reply retry, post-failover re-send) of an
    already-published ticket acks: same version, nothing published twice."""
    sink = RecordingSink()
    dep = make_deployment(sink=sink)
    env = dep.env
    vm = dep.vmanager
    blob_id = vm.create_blob(64.0)
    caller = dep.testbed.add_node("caller")

    def scenario(env):
        ticket = yield from vm.remote_ticket(caller, blob_id, 64.0, "w")
        first = yield from vm.remote_complete(caller, ticket)
        second = yield from vm.remote_complete(caller, ticket)
        return ticket.version, first, second

    process = env.process(scenario(env))
    version, first, second = dep.run(until=process)
    assert first == second == version == 1
    assert vm.versions_published == 1
    assert len(sink.of_type("publish")) == 1
    assert vm.latest(blob_id) == (1, 64.0, 64.0)
    assert not vm._held  # the lock was released once, by the first complete


def test_append_offsets_assigned_in_ticket_order():
    dep = make_deployment()
    env = dep.env
    vm = dep.vmanager
    blob_id = vm.create_blob(64.0)
    caller = dep.testbed.add_node("caller")
    offsets = {}

    def writer(env, name, size):
        ticket = yield from vm.remote_ticket(caller, blob_id, size, name)
        offsets[name] = ticket.offset_mb
        yield from vm.remote_complete(caller, ticket)

    def sequence(env):
        yield env.process(writer(env, "first", 128.0))
        yield env.process(writer(env, "second", 64.0))
        yield env.process(writer(env, "third", 256.0))

    process = env.process(sequence(env))
    dep.run(until=process)
    assert offsets == {"first": 0.0, "second": 128.0, "third": 192.0}
    assert vm.latest(blob_id)[1] == 448.0


def test_explicit_offset_write_grows_size_to_end():
    dep = make_deployment()
    vm = dep.vmanager
    blob_id = vm.create_blob(64.0)
    caller = dep.testbed.add_node("caller")

    def scenario(env):
        ticket = yield from vm.remote_ticket(
            caller, blob_id, 64.0, "w", offset_mb=256.0
        )
        yield from vm.remote_complete(caller, ticket)

    process = dep.env.process(scenario(dep.env))
    dep.run(until=process)
    # Sparse write at offset 256: size = 320 (offset + size).
    assert vm.latest(blob_id)[1] == 320.0


def test_publish_latency_recorded_in_events():
    sink = RecordingSink()
    dep = make_deployment(sink=sink)
    client = dep.new_client("c")

    def scenario(env):
        blob_id = yield env.process(client.create_blob(64.0))
        yield env.process(client.append(blob_id, 64.0))

    process = dep.env.process(scenario(dep.env))
    dep.run(until=process)
    publishes = sink.of_type("publish")
    assert len(publishes) == 1
    assert publishes[0].fields["latency_s"] > 0
