"""Property-based end-to-end tests: BlobSeer vs. a reference model.

Random sequences of chunk-aligned writes/appends are applied both to a
real simulated deployment and to a trivial in-memory reference (a dict
of chunk-index -> writer tag per version).  Reads at every published
version must agree with the reference — the versioning isolation
property BlobSeer's design rests on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
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
