"""Unit + property tests for the copy-on-write segment-tree metadata."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blobseer.blob import ChunkDescriptor
from repro.blobseer.metadata import LocalKV
from repro.blobseer.segment_tree import (
    capacity_for,
    node_key,
    tree_query,
    tree_update,
)


def drain(generator):
    """Run a KV-generator to completion synchronously (LocalKV yields nothing)."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def make_descriptors(blob_id, first, count, version=1):
    return {
        first + i: ChunkDescriptor(
            blob_id=blob_id,
            storage_key=f"b{blob_id}.w{version}.c{first + i}",
            size_mb=64.0,
            replicas=["p0"],
        )
        for i in range(count)
    }


CAP = 16  # small capacity for readable tests


def node_bound(span, capacity):
    """Upper bound on KV puts for an update covering *span* chunks: at
    most ``2*span`` leaf-side nodes plus the two boundary paths to the
    root."""
    return 2 * span + 2 * (capacity.bit_length() - 1)


def test_single_write_and_query():
    kv = LocalKV()
    descs = make_descriptors(1, 0, 4)
    drain(tree_update(kv, 1, 1, None, descs, capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 0, 4, capacity=CAP))
    assert sorted(result) == [0, 1, 2, 3]
    assert result[2].storage_key == "b1.w1.c2"


def test_query_subrange():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, 8), capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 2, 5, capacity=CAP))
    assert sorted(result) == [2, 3, 4]


def test_holes_are_absent():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, None, make_descriptors(1, 4, 2), capacity=CAP))
    result = drain(tree_query(kv, 1, 1, 0, CAP, capacity=CAP))
    assert sorted(result) == [4, 5]


def test_cow_versioning_preserves_old_version():
    kv = LocalKV()
    v1 = make_descriptors(1, 0, 4, version=1)
    drain(tree_update(kv, 1, 1, None, v1, capacity=CAP))
    v2 = make_descriptors(1, 2, 2, version=2)
    drain(tree_update(kv, 1, 2, 1, v2, capacity=CAP))

    # Old version still reads the original chunks.
    old = drain(tree_query(kv, 1, 1, 0, 4, capacity=CAP))
    assert old[2].storage_key == "b1.w1.c2"
    # New version sees the overwrite in [2,4) and inherits [0,2).
    new = drain(tree_query(kv, 1, 2, 0, 4, capacity=CAP))
    assert new[0].storage_key == "b1.w1.c0"
    assert new[2].storage_key == "b1.w2.c2"
    assert new[3].storage_key == "b1.w2.c3"


def test_append_chain_of_versions():
    kv = LocalKV()
    prev = None
    for version in range(1, 5):
        descs = make_descriptors(1, (version - 1) * 2, 2, version=version)
        drain(tree_update(kv, 1, version, prev, descs, capacity=CAP))
        prev = version
    result = drain(tree_query(kv, 1, 4, 0, 8, capacity=CAP))
    assert sorted(result) == list(range(8))
    for i in range(8):
        assert result[i].storage_key == f"b1.w{i // 2 + 1}.c{i}"


def test_update_write_count_is_bounded():
    kv = LocalKV()
    span = 4
    writes = drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, span), capacity=CAP))
    assert writes <= node_bound(span, CAP)


def test_shared_subtrees_not_rewritten():
    kv = LocalKV()
    drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, CAP), capacity=CAP))
    before = len(kv)
    # Touch a single chunk: only one root-to-leaf path is rewritten.
    drain(tree_update(kv, 1, 2, 1, make_descriptors(1, 7, 1, version=2), capacity=CAP))
    path_length = CAP.bit_length()  # log2(CAP) + 1 nodes
    assert len(kv) - before == path_length


def test_non_contiguous_descriptors_rejected():
    kv = LocalKV()
    descs = make_descriptors(1, 0, 1)
    descs.update(make_descriptors(1, 3, 1))
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, descs, capacity=CAP))


def test_empty_update_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, {}, capacity=CAP))


def test_out_of_capacity_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, make_descriptors(1, CAP, 1), capacity=CAP))


def test_bad_capacity_rejected():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_update(kv, 1, 1, None, make_descriptors(1, 0, 1), capacity=13))


def test_query_range_validation():
    kv = LocalKV()
    with pytest.raises(ValueError):
        drain(tree_query(kv, 1, 1, 4, 2, capacity=CAP))


def test_node_key_uniqueness():
    keys = {
        node_key(b, v, lo, hi)
        for b in (1, 2)
        for v in (1, 2)
        for lo, hi in ((0, 8), (0, 4), (4, 8))
    }
    assert len(keys) == 12


# -- property-based: version isolation under arbitrary write sequences ---------
@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, CAP - 1), st.integers(1, CAP)).map(
            lambda t: (t[0], min(t[1], CAP - t[0]))
        ),
        min_size=1,
        max_size=8,
    )
)
def test_versions_match_reference_model(writes):
    """Each version's full-range query equals a naive dict-of-arrays model."""
    kv = LocalKV()
    reference = {}  # version -> {index: storage_key}
    current = {}
    prev = None
    for version, (first, count) in enumerate(writes, start=1):
        descs = make_descriptors(1, first, count, version=version)
        drain(tree_update(kv, 1, version, prev, descs, capacity=CAP))
        current = dict(current)
        for index, descriptor in descs.items():
            current[index] = descriptor.storage_key
        reference[version] = current
        prev = version

    for version, expected in reference.items():
        got = drain(tree_query(kv, 1, version, 0, CAP, capacity=CAP))
        assert {i: d.storage_key for i, d in got.items()} == expected


# -- the walks' KV traffic is frozen: same calls, same order -------------------
class LoggingKV(LocalKV):
    """LocalKV that records every ``(op, key, value)`` it serves."""

    def __init__(self):
        super().__init__()
        self.log = []

    @staticmethod
    def _plain(value):
        if value is not None and value[0] == "leaf":
            return ["leaf", value[1].storage_key]
        return value

    def peek(self, key):
        # A LocalKV answers every read here (``get`` is peek-or-fetch and
        # ``fetch`` is never reached), so this is one entry per node read
        # whether the walk peeks or gets.
        hit, value = super().peek(key)
        self.log.append(["get", key, self._plain(value)])
        return hit, value

    def put(self, key, value):
        self.log.append(["put", key, self._plain(value)])
        yield from super().put(key, value)


#: ("u", version, prev_version, first, count) | ("q", version, first, last)
WALK_SCRIPT = [
    ("u", 1, None, 5, 1),     # single chunk, first version
    ("u", 2, 1, 7, 2),        # span crossing the root's mid
    ("u", 3, 2, 3, 10),       # crosses mid, fully covers inner subtrees
    ("u", 4, 3, 4, 4),        # exactly one fully-covered subtree
    ("u", 5, 4, 8, 8),        # fully-covered right half
    ("u", 6, None, 0, CAP),   # whole tree, no previous version
    ("u", 7, 1, 12, 2),       # sparse previous version (only chunk 5 written)
    ("u", 8, 7, 0, 6),        # inherits stamps 1 and 7, left/right mixed
    ("u", 9, 99, 15, 1),      # previous version absent from the store
    ("q", 1, 0, CAP),         # holes everywhere but chunk 5
    ("q", 7, 6, 12),          # range that is one big hole
    ("q", 8, 0, CAP),         # mixed versions and holes
    ("q", 3, 7, 9),           # crosses mid
    ("q", 5, 11, 12),         # single index
    ("q", 42, 0, CAP),        # version never written
]

WALK_DIGEST = "57a9dee06dcc7176b1cea9949fbd54e9a8ffb8179d9d8fa1118793a535c78495"


def run_walk_script(update, query, script=WALK_SCRIPT, capacity=CAP):
    """Every version in one tree of fixed *capacity* (nothing grows)."""
    kv = LoggingKV()
    returned = []
    for step in script:
        if step[0] == "u":
            _op, version, prev, first, count = step
            descs = make_descriptors(1, first, count, version=version)
            returned.append(drain(update(kv, 1, version, prev, descs, capacity)))
        else:
            _op, version, first, last = step
            got = drain(query(kv, 1, version, first, last, capacity))
            returned.append([[i, d.storage_key] for i, d in got.items()])
    return kv.log, returned


def test_walk_kv_traffic_matches_frozen_digest():
    """sha256 frozen from the recursive implementation (commit c8911bc)."""
    import hashlib
    import json

    small = run_walk_script(tree_update, tree_query)
    default = run_walk_script(
        tree_update, tree_query, capacity=1 << 20,
        script=[("u", 1, None, 12345, 1), ("u", 2, 1, 12346, 3),
                ("q", 2, 12340, 12350)])
    text = json.dumps([small, default], separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == WALK_DIGEST


def reference_update(kv, blob_id, version, prev, descs, capacity, old=None,
                     lo=0, hi=None):
    """The recursive walk the iterative one replaced (test-only oracle);
    *old* is the capacity of the tree of *prev* (default: *capacity*)."""
    hi, old = capacity if hi is None else hi, old or capacity
    lo_w, hi_w = max(min(descs), lo), min(max(descs) + 1, hi)
    if hi - lo == 1:
        yield from kv.put(node_key(blob_id, version, lo, hi), ("leaf", descs[lo]))
        return 1
    mid, stamps, writes = (lo + hi) // 2, [None, None], 1
    inherits = prev is not None and not (lo_w <= lo and hi <= hi_w)
    if inherits and hi > old:  # a root above the old root: nothing to get
        stamps[0] = prev
    elif inherits:
        node = yield from kv.get(node_key(blob_id, prev, lo, hi))
        stamps = list(node[1:]) if node is not None else stamps
    for side, (a, b) in enumerate(((lo, mid), (mid, hi))):
        if (lo_w < b and hi_w > a) or (inherits and side == 0 and mid > old):
            writes += yield from reference_update(
                kv, blob_id, version, stamps[side], descs, capacity, old, a, b)
            stamps[side] = version
    yield from kv.put(node_key(blob_id, version, lo, hi), ("node", *stamps))
    return writes


def reference_query(kv, blob_id, stamp, first, last, capacity, lo=0, hi=None):
    hi = capacity if hi is None else hi
    node = yield from kv.get(node_key(blob_id, stamp, lo, hi))
    if node is None:
        return {}
    if node[0] == "leaf":
        return {lo: node[1]}
    mid, found = (lo + hi) // 2, {}
    for child, (a, b) in zip(node[1:], ((lo, mid), (mid, hi))):
        if child is not None and first < b and last > a:
            found.update((yield from reference_query(
                kv, blob_id, child, first, last, capacity, a, b)))
    return found


def test_reference_walks_reproduce_the_frozen_script():
    assert (run_walk_script(reference_update, reference_query)
            == run_walk_script(tree_update, tree_query))


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from("uq"),
            st.integers(0, CAP - 1),
            st.integers(1, CAP),
            st.one_of(st.none(), st.integers(0, 9)),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_walks_issue_the_reference_kv_traffic(steps):
    """Arbitrary update/query mixes — including previous versions that
    were never written — produce the recursive reference's exact
    ``(op, key, value)`` sequence and return values."""
    script = []
    for version, (op, first, count, other) in enumerate(steps, start=1):
        count = min(count, CAP - first)
        if op == "u":
            script.append(("u", version, other, first, count))
        else:
            script.append(("q", other if other is not None else version,
                           first, first + count))
    assert (run_walk_script(tree_update, tree_query, script)
            == run_walk_script(reference_update, reference_query, script))


def test_walk_depth_does_not_grow_with_tree_height():
    """A 2**40-capacity single-chunk update (41 nodes on the path)
    completes under a recursion limit that a 41-deep recursive
    ``yield from`` chain would exceed."""
    import inspect
    import sys

    kv = LocalKV()
    capacity = 1 << 40
    descs = make_descriptors(1, 123_456_789, 1)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        writes = drain(tree_update(kv, 1, 1, None, descs, capacity=capacity))
        got = drain(tree_query(kv, 1, 1, 123_456_789, 123_456_790,
                               capacity=capacity))
    finally:
        sys.setrecursionlimit(old_limit)
    assert writes == 41
    assert list(got) == [123_456_789]


# -- the tree grows with the blob ---------------------------------------------
#: Writes against a blob that starts empty: appends, in-place overwrites,
#: sparse writes past the end — 1…17 chunks each — and version numbers
#: burned in between (ticketed, never written).
GROWING_BLOB_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "append", "overwrite", "sparse", "burn"]),
        st.integers(1, 17),      # span
        st.integers(0, 10**6),   # where: overwrite offset / sparse gap
        st.integers(0, 10**6),   # sub-range of the read-back, first
        st.integers(0, 10**6),   # ... and length
    ),
    min_size=1, max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(steps=GROWING_BLOB_STEPS)
def test_growing_tree_matches_flat_model(steps):
    """Every version, read back at its own capacity, equals a flat dict;
    an update costs O(span + log chunks-in-blob) puts and gets, none of
    the gets above the previous version's root; and the walk is the
    recursive reference's, call for call."""
    kv, oracle_kv = LoggingKV(), LoggingKV()
    model, size, prev = {}, 0, None
    published = {}  # version -> (capacity, {index: storage_key}, sub-range)
    for version, (kind, span, where, sub_first, sub_len) in enumerate(steps, 1):
        if kind == "burn":
            continue
        if kind == "overwrite" and size:
            first = where % size
            span = min(span, size - first)
        else:
            first = size + (where % 40 + 1 if kind == "sparse" else 0)
        old_capacity = capacity_for(size)
        size = max(size, first + span)
        capacity = capacity_for(size)
        depth = capacity.bit_length() - 1
        descs = make_descriptors(1, first, span, version=version)

        mark = len(kv.log)
        puts = drain(tree_update(kv, 1, version, prev, descs, capacity, old_capacity))
        drain(reference_update(oracle_kv, 1, version, prev, descs, capacity,
                               old_capacity))
        assert kv.log == oracle_kv.log
        calls = kv.log[mark:]
        gets = [key for op, key, _value in calls if op == "get"]
        assert puts == len(calls) - len(gets) <= node_bound(span, capacity)
        assert len(gets) <= (depth if span == 1 else 2 * depth)
        for key in gets:
            lo, hi = map(int, key.split(":")[3:])
            assert hi - lo <= old_capacity

        model = {**model, **{i: d.storage_key for i, d in descs.items()}}
        sub_first %= capacity
        published[version] = (
            capacity, model,
            (sub_first, sub_first + 1 + sub_len % (capacity - sub_first)))
        prev = version

    for version, (capacity, expected, (first, last)) in published.items():
        whole = drain(tree_query(kv, 1, version, 0, capacity, capacity))
        assert {i: d.storage_key for i, d in whole.items()} == expected
        part = drain(tree_query(kv, 1, version, first, last, capacity))
        assert ({i: d.storage_key for i, d in part.items()}
                == {i: key for i, key in expected.items() if first <= i < last})
