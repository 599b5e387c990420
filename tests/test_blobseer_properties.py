"""Property-based end-to-end tests: BlobSeer vs. a reference model.

Random sequences of chunk-aligned writes/appends are applied both to a
real simulated deployment and to a trivial in-memory reference (a dict
of chunk-index -> writer tag per version).  Reads at every published
version must agree with the reference — the versioning isolation
property BlobSeer's design rests on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment, RangeError
from repro.blobseer.provider import DataProvider
from repro.cluster import TestbedConfig

CHUNK = 64.0
MAX_CHUNKS = 8  # in-place writes start below this chunk index


@st.composite
def op_sequences(draw):
    count = draw(st.integers(1, 6))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["append", "write"]))
        if kind == "append":
            chunks = draw(st.integers(1, 3))
            ops.append(("append", None, chunks))
        else:
            first = draw(st.integers(0, MAX_CHUNKS - 1))
            chunks = draw(st.integers(1, min(3, MAX_CHUNKS - first)))
            ops.append(("write", first, chunks))
    return ops


def apply_reference(ops):
    """Reference: version -> {chunk_index: op_serial}; size per version."""
    versions = {}
    sizes = {}
    current = {}
    size = 0
    for serial, (kind, first, chunks) in enumerate(ops, start=1):
        if kind == "append":
            first = size
        current = dict(current)
        for index in range(first, first + chunks):
            current[index] = serial
        size = max(size, first + chunks)
        versions[serial] = current
        sizes[serial] = size
    return versions, sizes


@settings(max_examples=25, deadline=None)
@given(ops=op_sequences())
def test_versions_agree_with_reference_model(ops):
    reference_versions, reference_sizes = apply_reference(ops)

    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=6, metadata_providers=2, chunk_size_mb=CHUNK,
        testbed=TestbedConfig(seed=99),
    ))
    client = dep.new_client("writer")
    outcome = {}

    def scenario(env):
        blob_id = yield env.process(client.create_blob(CHUNK))
        for kind, first, chunks in ops:
            if kind == "append":
                yield env.process(client.append(blob_id, chunks * CHUNK))
            else:
                yield env.process(
                    client.write(blob_id, first * CHUNK, chunks * CHUNK)
                )
        outcome["blob"] = blob_id

    process = dep.env.process(scenario(dep.env))
    dep.run(until=process)
    blob_id = outcome["blob"]

    # Size of every published version matches the reference.
    latest, size_mb, _chunk = dep.vmanager.latest(blob_id)
    assert latest == len(ops)
    assert size_mb == pytest.approx(reference_sizes[latest] * CHUNK)
    for version, expected_size in reference_sizes.items():
        record = dep.vmanager.version_record(blob_id, version)
        assert record.size_mb == pytest.approx(expected_size * CHUNK)

    # Chunk contents (identified by write serial embedded in the storage
    # key, "wN") of every version match the reference.
    from repro.blobseer.segment_tree import capacity_for, tree_query

    # Query through the real distributed metadata, via a probe client.
    probe = dep.new_client("probe")

    def audit(env):
        mismatches = []
        for version, expected in reference_versions.items():
            # Each version's tree is as wide as that version is long.
            capacity = capacity_for(reference_sizes[version])
            got = yield from tree_query(
                probe.meta, blob_id, version, 0, capacity, capacity=capacity,
            )
            # storage key format: b{blob}.{client}.w{serial}.c{index}
            got_serials = {
                index: int(d.storage_key.split(".")[-2][1:])
                for index, d in got.items()
            }
            if got_serials != expected:
                mismatches.append((version, got_serials, expected))
        return mismatches

    process = dep.env.process(audit(dep.env))
    mismatches = dep.run(until=process)
    assert mismatches == []


@st.composite
def read_plans(draw):
    """Reads woven into an op stream, as raw integers resolved against
    the reference: after which write, of which version (0 = latest),
    from which chunk, how many chunks, how many times in a row."""
    return draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 6), st.integers(0, 11),
                  st.integers(1, 4), st.integers(1, 3)),
        min_size=1, max_size=8))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ops=op_sequences(), plans=read_plans())
def test_warm_ranges_read_what_a_cacheless_reader_reads(ops, plans):
    """Differential oracle for the read path: every read is issued by two
    readers — one keeping tree nodes and resolved ranges in an 8 MB
    metadata cache, one with no cache that walks the tree every time
    (chunk caches off) — and both must be refused alike or be served
    exactly the same storage keys, the reference model's, under the same
    ``OpResult.version``.  Reads repeat, and every one is replayed by
    version once the whole stream is written, so most hit a warm entry;
    the stream overwrites ranges, leaves holes and takes the tree past
    powers of two.

    Mutation check (done by hand when this was written): keying the
    entry without ``version``, or looking it up ahead of
    ``remote_get_latest`` under the version the caller named (``None``
    for latest) so that the version / range / visibility checks no
    longer run first, makes this test fail.
    """
    reference_versions, reference_sizes = apply_reference(ops)
    dep = BlobSeerDeployment(BlobSeerConfig(
        data_providers=6, metadata_providers=2, chunk_size_mb=CHUNK,
        client_metadata_cache_mb=8.0, testbed=TestbedConfig(seed=99),
    ))
    writer, warm, plain = (dep.new_client(name)
                           for name in ("writer", "warm", "plain"))
    plain.meta.cache = None  # client_metadata_cache_mb = 0 for this one
    served = []
    real_serve = DataProvider.serve

    def spy(self, dst, descriptor, *args, **kwargs):
        served.append(descriptor.storage_key)
        return real_serve(self, dst, descriptor, *args, **kwargs)

    def outcome(env, reader, blob_id, version, first, count):
        del served[:]
        try:
            result = yield env.process(reader.read(
                blob_id, first * CHUNK, count * CHUNK, version=version))
        except RangeError:
            return "RangeError", None, []
        # storage key format: b{blob}.{client}.w{serial}.c{index}
        return None, result.version, sorted(
            int(key.split(".")[-2][1:]) for key in served)

    def check(env, blob_id, latest, version, first, count):
        read_version = version or latest
        chunks = reference_versions[read_version]
        expected = (None, read_version, sorted(
            chunks[i] for i in range(first, first + count) if i in chunks))
        if first + count > reference_sizes[read_version]:
            expected = ("RangeError", None, [])
        for reader in (warm, plain):
            got = yield from outcome(env, reader, blob_id, version, first, count)
            assert got == expected, (reader.client_id, version, first, count)

    def scenario(env):
        blob_id = yield env.process(writer.create_blob(CHUNK))
        replay = []
        for serial, (kind, first, chunks) in enumerate(ops, start=1):
            if kind == "append":
                yield env.process(writer.append(blob_id, chunks * CHUNK))
            else:
                yield env.process(
                    writer.write(blob_id, first * CHUNK, chunks * CHUNK))
            for after, pick, start, count, repeat in plans:
                if after % len(ops) + 1 != serial:
                    continue
                version = None if pick == 0 else 1 + (pick - 1) % serial
                start %= reference_sizes[version or serial]
                for _ in range(repeat):
                    yield from check(env, blob_id, serial, version, start, count)
                replay.append((version or serial, start, count))
        # Replayed by version, every read that is in range is warm: one
        # lookup, a hit, and not one tree node asked for.
        stats = warm.meta.cache.stats
        for version, start, count in replay:
            before = stats.hits, stats.misses
            yield from check(env, blob_id, len(ops), version, start, count)
            in_range = start + count <= reference_sizes[version]
            assert (stats.hits, stats.misses) == (before[0] + in_range, before[1])
        return len(replay)

    DataProvider.serve = spy
    try:
        assert dep.run(until=dep.env.process(scenario(dep.env))) == len(plans)
    finally:
        DataProvider.serve = real_serve
