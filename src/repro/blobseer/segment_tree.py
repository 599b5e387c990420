"""Copy-on-write segment-tree metadata, as in BlobSeer.

Each BLOB version is described by a binary tree over chunk indices
``[0, capacity)``, where the capacity follows the BLOB: it is the
smallest power of two that holds the version's chunks
(:func:`capacity_for`), so a one-chunk blob's tree is a single leaf.
Writing version *v* over chunk range ``[a, b)`` creates new tree nodes
only along the paths covering that range; subtrees untouched by the
write are *shared* with the previous version by storing the version
stamp at which each child was last written.  A write that takes the blob
past a power of two puts new roots *above* the previous version's root,
which becomes their leftmost descendant, untouched.  This yields
O(span + log chunks-in-blob) metadata writes per update and lets any
number of readers traverse old versions concurrently with writers — the
property BlobSeer's heavy-concurrency results rest on.

Node encoding in the KV store (see :mod:`repro.blobseer.metadata`):

- internal node at ``(blob, v, lo, hi)`` → ``("node", left_stamp, right_stamp)``
  where a stamp is the version at which that child subtree was last
  written, or ``None`` if never written;
- leaf at ``(blob, v, i, i+1)`` → ``("leaf", ChunkDescriptor)``.

All functions are generators so that a node access can be a real
(simulated) network operation — one the store answers locally
(``kv.peek``) is a plain call; run them with ``yield from`` inside a
process, or drain them synchronously against :class:`LocalKV` in tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .blob import ChunkDescriptor

__all__ = [
    "node_key",
    "capacity_for",
    "tree_update",
    "tree_query",
]


def node_key(blob_id: int, version: int, lo: int, hi: int) -> str:
    """KV key of the tree node covering chunk interval [lo, hi)."""
    return f"m:{blob_id}:{version}:{lo}:{hi}"


def capacity_for(chunks: int) -> int:
    """Leaves of the tree of a version that is *chunks* chunks long: the
    smallest power of two that holds them (1 for an empty blob)."""
    return 1 << max(chunks - 1, 0).bit_length()


def _check_capacity(capacity: int) -> None:
    if capacity < 1 or (capacity & (capacity - 1)) != 0:
        raise ValueError(f"capacity must be a power of two, got {capacity}")


def tree_update(
    kv,
    blob_id: int,
    version: int,
    prev_version: Optional[int],
    descriptors: Dict[int, ChunkDescriptor],
    capacity: int,
    prev_capacity: Optional[int] = None,
):
    """Generator: write the tree nodes for *version*.

    *descriptors* maps absolute chunk index → descriptor for every chunk
    written by this version.  *prev_version* is the version whose tree
    this one inherits from (``None`` for the first write) and
    *prev_capacity* the capacity of that tree (default: *capacity*, a
    tree that did not grow).

    Returns the number of KV puts performed.
    """
    _check_capacity(capacity)
    if prev_capacity is None:
        prev_capacity = capacity
    _check_capacity(prev_capacity)
    if prev_capacity > capacity:
        raise ValueError(
            f"a tree never shrinks: previous capacity {prev_capacity} > {capacity}")
    if not descriptors:
        raise ValueError("update with no chunks")
    lo_w = min(descriptors)
    hi_w = max(descriptors) + 1
    if lo_w < 0 or hi_w > capacity:
        raise ValueError(f"chunk range [{lo_w},{hi_w}) outside capacity {capacity}")
    if len(descriptors) != hi_w - lo_w:
        raise ValueError("descriptors must cover a contiguous chunk range")
    # Depth-first walk with an explicit stack instead of one generator
    # frame per tree level, so a wake-up from a KV round trip resumes two
    # frames whatever the tree height.  Previous-version gets happen on
    # the way down (pre-order) and puts on the way back up (post-order),
    # left subtree before right.  A stack entry is either a subtree still
    # to visit, ``(lo, hi, prev_stamp, None)``, or an internal node whose
    # children are done and whose put is due, ``(lo, hi, None, value)``.
    writes = 0
    stack = [(0, capacity, prev_version, None)]
    while stack:
        lo, hi, prev_stamp, value = stack.pop()
        if value is None and hi - lo == 1:
            value = ("leaf", descriptors[lo])
        elif value is None:
            mid = (lo + hi) // 2
            # Child stamps from the previous version of this node (if
            # any).  When the write covers this whole subtree both
            # children are about to be rewritten, so the old node need
            # not be fetched.
            left_stamp: Optional[int] = None
            right_stamp: Optional[int] = None
            fully_covered = lo_w <= lo and hi <= hi_w
            go_left = lo_w < mid  # write range intersects the left child
            go_right = hi_w > mid and lo_w < hi
            if prev_stamp is not None and not fully_covered:
                if hi > prev_capacity:
                    # A root added above the previous version's root (so
                    # lo == 0): that version has no such node to fetch.
                    # Everything older lies under the left child — the
                    # old root itself, or one more new root on the way
                    # down to it, which must exist even when the write
                    # lies wholly to its right (the one way a node that
                    # the write does not reach gets visited).  Nothing
                    # older lies under the right child.
                    left_stamp = prev_stamp
                    go_left = go_left or mid > prev_capacity
                else:
                    key = node_key(blob_id, prev_stamp, lo, hi)
                    hit, prev = kv.peek(key)
                    if not hit:
                        prev = yield from kv.fetch(key)
                    if prev is not None:
                        _tag, left_stamp, right_stamp = prev
            stack.append((lo, hi, None, (
                "node",
                version if go_left else left_stamp,
                version if go_right else right_stamp,
            )))
            if go_right:
                stack.append((mid, hi, right_stamp, None))
            if go_left:
                stack.append((lo, mid, left_stamp, None))
            continue
        yield from kv.put(node_key(blob_id, version, lo, hi), value)
        writes += 1
    return writes


def tree_query(
    kv,
    blob_id: int,
    version: int,
    first: int,
    last: int,
    capacity: int,
):
    """Generator: fetch descriptors for chunk indices [first, last) of
    *version*, whose tree has *capacity* leaves.

    Returns ``{index: ChunkDescriptor}``; indices never written are
    absent (holes read as unwritten data, like sparse files).
    """
    _check_capacity(capacity)
    if not 0 <= first < last <= capacity:
        raise ValueError(f"query range [{first},{last}) outside [0,{capacity})")
    result: Dict[int, ChunkDescriptor] = {}
    # Explicit stack, left subtree before right (see tree_update).
    stack = [(0, capacity, version)]
    while stack:
        lo, hi, stamp = stack.pop()
        key = node_key(blob_id, stamp, lo, hi)
        hit, node = kv.peek(key)
        if not hit:
            node = yield from kv.fetch(key)
        if node is None:
            continue  # unwritten subtree: hole
        if node[0] == "leaf":
            result[lo] = node[1]
            continue
        _tag, left_stamp, right_stamp = node
        mid = (lo + hi) // 2
        if last > mid and right_stamp is not None:
            stack.append((mid, hi, right_stamp))
        if first < mid and left_stamp is not None:
            stack.append((lo, mid, left_stamp))
    return result
