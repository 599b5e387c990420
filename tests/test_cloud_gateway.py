"""Tests for the S3-compatible Cumulus gateway over BlobSeer."""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cloud import (
    BucketAlreadyExists,
    BucketNotEmpty,
    CumulusGateway,
    InvalidPart,
    NoSuchBucket,
    NoSuchKey,
    Permission,
    S3AccessDenied,
)
from repro.cluster import TestbedConfig


def make_gateway(**overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=32.0,
        testbed=TestbedConfig(seed=9),
    )
    defaults.update(overrides)
    dep = BlobSeerDeployment(BlobSeerConfig(**defaults))
    gateway = CumulusGateway(dep)
    return dep, gateway


def add_user(dep, name):
    return dep.testbed.add_node(f"user-{name}")


def test_gateway_backend_is_the_client_the_factory_builds():
    """The gateway's backend comes from ``new_client``, placed on the
    gateway's own node: client-side caches and pipelining follow the
    deployment's config like any other client's."""
    dep, gw = make_gateway(client_chunk_cache_mb=32.0,
                           client_metadata_cache_mb=8.0,
                           client_pipelining=True)
    plain = dep.new_client("plain")
    for client in (gw.backend, plain):
        assert client.chunk_cache.capacity_mb == 32.0
        assert client.meta.cache.capacity_mb == 8.0
        assert client.pipeline_publish is True
    assert gw.backend.node is gw.node
    assert gw.node.netnode.capacity_out == 1250.0  # the fat NIC stays
    assert dep.clients["cumulus"] is gw.backend
    assert dep.actor_nodes["cumulus"] is gw.node
    assert [c.name for c in dep.caches] == [
        "chunk.cumulus", "meta.cumulus", "chunk.plain", "meta.plain"]


def run(dep, generator):
    process = dep.env.process(generator)
    return dep.run(until=process)


def test_duplicate_bucket_rejected():
    dep, gw = make_gateway()

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        try:
            yield from gw.create_bucket("bob", "data")
        except BucketAlreadyExists:
            return "rejected"

    assert run(dep, scenario(dep.env)) == "rejected"


def test_put_get_roundtrip():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        put = yield from gw.put_object("alice", alice, "data", "file.bin", 100.0)
        got = yield from gw.get_object("alice", alice, "data", "file.bin")
        return put, got

    put, got = run(dep, scenario(dep.env))
    assert put.size_mb == 100.0
    assert got.etag == put.etag
    assert gw.puts == 1 and gw.gets == 1
    assert gw.bytes_in_mb == 100.0


def test_object_padded_to_chunk_multiple():
    dep, gw = make_gateway(chunk_size_mb=32.0)
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        put = yield from gw.put_object("alice", alice, "data", "odd.bin", 33.0)
        return put

    put = run(dep, scenario(dep.env))
    # 33 MB object occupies 2 chunks (64 MB) in the backend.
    assert dep.vmanager.latest(put.blob_id)[1] == pytest.approx(64.0)
    assert put.size_mb == 33.0  # user-visible size is exact


def test_get_missing_key_raises():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        try:
            yield from gw.get_object("alice", alice, "data", "nope")
        except NoSuchKey:
            return "missing"

    assert run(dep, scenario(dep.env)) == "missing"


def test_missing_bucket_raises():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        try:
            yield from gw.put_object("alice", alice, "ghost", "k", 32.0)
        except NoSuchBucket:
            return "missing"

    assert run(dep, scenario(dep.env)) == "missing"


def test_acl_denies_stranger_and_grants_work():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")
    bob = add_user(dep, "bob")

    def scenario(env):
        bucket = yield from gw.create_bucket("alice", "data")
        yield from gw.put_object("alice", alice, "data", "secret", 32.0)
        denied = None
        try:
            yield from gw.get_object("bob", bob, "data", "secret")
        except S3AccessDenied:
            denied = True
        bucket.acl.grant("bob", Permission.READ)
        entry = yield from gw.get_object("bob", bob, "data", "secret")
        write_denied = None
        try:
            yield from gw.put_object("bob", bob, "data", "evil", 32.0)
        except S3AccessDenied:
            write_denied = True
        return denied, entry.key, write_denied

    assert run(dep, scenario(dep.env)) == (True, "secret", True)


def test_public_read_bucket():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")
    anon = add_user(dep, "anon")

    def scenario(env):
        bucket = yield from gw.create_bucket("alice", "pub")
        bucket.acl.public_read = True
        yield from gw.put_object("alice", alice, "pub", "obj", 32.0)
        entry = yield from gw.get_object("anonymous", anon, "pub", "obj")
        return entry.key

    assert run(dep, scenario(dep.env)) == "obj"


def test_list_objects_prefix():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        for key in ("logs/a", "logs/b", "img/c"):
            yield from gw.put_object("alice", alice, "data", key, 32.0)
        return (yield from gw.list_objects("alice", "data", prefix="logs/"))

    assert run(dep, scenario(dep.env)) == ["logs/a", "logs/b"]


def test_delete_object_and_bucket_lifecycle():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        yield from gw.put_object("alice", alice, "data", "k", 32.0)
        not_empty = None
        try:
            yield from gw.delete_bucket("alice", "data")
        except BucketNotEmpty:
            not_empty = True
        yield from gw.delete_object("alice", "data", "k")
        yield from gw.delete_bucket("alice", "data")
        gone = None
        try:
            yield from gw.list_objects("alice", "data")
        except NoSuchBucket:
            gone = True
        return not_empty, gone

    assert run(dep, scenario(dep.env)) == (True, True)


def test_head_object_metadata():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        yield from gw.put_object("alice", alice, "data", "k", 48.0,
                                 content_type="text/plain")
        return (yield from gw.head_object("alice", "data", "k"))

    entry = run(dep, scenario(dep.env))
    assert entry.size_mb == 48.0
    assert entry.content_type == "text/plain"
    assert entry.owner == "alice"


def test_multipart_upload_assembles_parts():
    dep, gw = make_gateway(chunk_size_mb=32.0)
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        upload_id = yield from gw.initiate_multipart("alice", "data", "big.bin")
        yield from gw.upload_part("alice", alice, upload_id, 2, 64.0)
        yield from gw.upload_part("alice", alice, upload_id, 1, 32.0)
        entry = yield from gw.complete_multipart("alice", upload_id)
        return entry

    entry = run(dep, scenario(dep.env))
    assert entry.size_mb == pytest.approx(96.0)
    # Backend blob holds both (padded) parts.
    assert dep.vmanager.latest(entry.blob_id)[1] == pytest.approx(96.0)
    assert gw.uploads == {}


def test_multipart_errors():
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        upload_id = yield from gw.initiate_multipart("alice", "data", "k")
        bad_part = None
        try:
            yield from gw.upload_part("alice", alice, upload_id, 0, 32.0)
        except InvalidPart:
            bad_part = True
        wrong_owner = None
        try:
            yield from gw.complete_multipart("mallory", upload_id)
        except InvalidPart:
            wrong_owner = True
        empty = None
        try:
            yield from gw.complete_multipart("alice", upload_id)
        except InvalidPart:
            empty = True
        return bad_part, wrong_owner, empty

    assert run(dep, scenario(dep.env)) == (True, True, True)


def test_get_serves_what_the_key_names_now():
    """A key republished — by PUT, by DELETE + PUT, by a multipart
    completion — is a new BLOB, and the next GET returns that one."""
    dep, gw = make_gateway()
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        v1 = yield from gw.put_object("alice", alice, "data", "k", 32.0)
        yield from gw.get_object("alice", alice, "data", "k")
        v2 = yield from gw.put_object("alice", alice, "data", "k", 64.0)
        after_put = yield from gw.get_object("alice", alice, "data", "k")
        yield from gw.delete_object("alice", "data", "k")
        v3 = yield from gw.put_object("alice", alice, "data", "k", 32.0)
        after_delete = yield from gw.get_object("alice", alice, "data", "k")
        upload_id = yield from gw.initiate_multipart("alice", "data", "k")
        yield from gw.upload_part("alice", alice, upload_id, 1, 32.0)
        yield from gw.upload_part("alice", alice, upload_id, 2, 32.0)
        v4 = yield from gw.complete_multipart("alice", upload_id)
        after_multipart = yield from gw.get_object("alice", alice, "data", "k")
        return (v1, v2, v3, v4), (after_put, after_delete, after_multipart)

    (v1, v2, v3, v4), (after_put, after_delete, after_multipart) = run(
        dep, scenario(dep.env))
    assert len({v.blob_id for v in (v1, v2, v3, v4)}) == 4
    assert (after_put.etag, after_put.size_mb) == (v2.etag, 64.0)
    assert (after_delete.etag, after_delete.size_mb) == (v3.etag, 32.0)
    assert after_multipart.etag == v4.etag
    assert after_multipart.size_mb == pytest.approx(64.0)
    assert gw.gets == 4


def test_concurrent_puts_share_backend():
    dep, gw = make_gateway(data_providers=8)
    users = [add_user(dep, f"user{i}") for i in range(4)]

    def putter(env, i):
        return (yield from gw.put_object(f"u{i}", users[i], "data", f"k{i}", 64.0))

    def scenario(env):
        yield from gw.create_bucket("admin", "data")
        bucket = gw.buckets["data"]
        for i in range(4):
            bucket.acl.grant(f"u{i}", Permission.FULL)
        procs = [env.process(putter(env, i)) for i in range(4)]
        yield env.all_of(procs)
        return (yield from gw.list_objects("admin", "data"))

    keys = run(dep, scenario(dep.env))
    assert keys == ["k0", "k1", "k2", "k3"]
    assert gw.puts == 4


def test_put_translates_rpc_timeout_to_service_unavailable():
    """A control-plane timeout surfaces as a retriable 503, not a leak."""
    from repro.blobseer import RpcTimeout
    from repro.cloud import ServiceUnavailable

    dep, gw = make_gateway()
    dep.net.blackhole_missing = True
    gw.backend.rpc_timeout_s = 2.0
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        dep.actor_nodes["vm"].fail()
        try:
            yield from gw.put_object("alice", alice, "data", "k", 64.0)
        except ServiceUnavailable as exc:
            return exc

    exc = run(dep, scenario(dep.env))
    assert isinstance(exc, ServiceUnavailable)
    assert exc.code == "ServiceUnavailable" and exc.status == 503
    assert exc.retriable
    assert exc.operation == "put_object"  # names the failed op
    assert isinstance(exc.__cause__, RpcTimeout)


def test_get_translates_rpc_timeout_to_service_unavailable():
    from repro.cloud import ServiceUnavailable

    dep, gw = make_gateway()
    dep.net.blackhole_missing = True
    gw.backend.rpc_timeout_s = 2.0
    alice = add_user(dep, "alice")

    def scenario(env):
        yield from gw.create_bucket("alice", "data")
        yield from gw.put_object("alice", alice, "data", "k", 64.0)
        dep.actor_nodes["vm"].fail()
        try:
            yield from gw.get_object("alice", alice, "data", "k")
        except ServiceUnavailable as exc:
            return exc

    exc = run(dep, scenario(dep.env))
    assert isinstance(exc, ServiceUnavailable)
    assert exc.operation == "get_object"
    assert exc.retriable
