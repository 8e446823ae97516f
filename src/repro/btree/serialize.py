"""Chunk images of B+tree nodes (parity with the R-tree codec).

The object image is a :class:`BNodeSnapshot`.  The on-chunk byte layout
(little-endian)::

    header:   flags:u32 (bit0 = leaf)  count:u32  chunk_id:u64
              next_leaf:i64 (-1 when absent/inner)
    entries:  count x { key:u64  ref:u64 }   (ref = value | child chunk)
    inner:    one extra trailing ref (children = count+1 for inner nodes)
    versions: one u8 per 64-byte cache line (FaRM validation)

Inner nodes store ``count`` separator keys and ``count+1`` child refs;
leaves store ``count`` key/value pairs.  The version framing is the
R-tree codec's (:mod:`repro.rtree.serialize`).
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from ..rtree.serialize import (
    agreed_version,
    chunk_footprint,
    stamp_versions,
    torn_image,
)
from .bptree import BNode

HEADER_FORMAT = "<IIQq"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)  # 24
PAIR_SIZE = 16  # key u64 + ref u64

FLAG_LEAF = 0x1


@dataclass(frozen=True)
class BNodeSnapshot:
    """Client-visible image of one B+tree chunk."""

    chunk_id: int
    is_leaf: bool
    keys: Tuple[int, ...]
    #: children chunk ids (inner) or values (leaf)
    refs: Tuple[int, ...]
    next_leaf: Optional[int]
    version: int
    torn: bool

    def child_for(self, key: int) -> int:
        return self.refs[bisect.bisect_right(self.keys, key)]

    def children_for_range(self, lo: int, hi: int) -> Tuple[int, ...]:
        """Chunk ids of every child overlapping [lo, hi] (inner nodes)."""
        first = bisect.bisect_right(self.keys, lo)
        last = bisect.bisect_right(self.keys, hi)
        return self.refs[first:last + 1]


def snapshot_bnode(node: BNode) -> BNodeSnapshot:
    if node.is_leaf:
        refs = tuple(node.values)
        next_leaf = (node.next_leaf.chunk_id
                     if node.next_leaf is not None else None)
    else:
        refs = tuple(child.chunk_id for child in node.children)
        next_leaf = None
    return BNodeSnapshot(
        chunk_id=node.chunk_id,
        is_leaf=node.is_leaf,
        keys=tuple(node.keys),
        refs=refs,
        next_leaf=next_leaf,
        version=node.version,
        torn=node.active_writers > 0,
    )


def payload_size(capacity: int) -> int:
    # worst case: inner node with capacity children and capacity-1 keys,
    # or leaf with capacity pairs; reserve capacity pairs + one extra ref.
    return HEADER_SIZE + capacity * PAIR_SIZE + 8


def chunk_size(capacity: int) -> int:
    return chunk_footprint(payload_size(capacity))


def pack_bnode(node: BNode, capacity: int) -> bytes:
    """Serialize a live node into its chunk bytes."""
    out = bytearray(chunk_size(capacity))
    if node.is_leaf:
        count = len(node.keys)
        if count > capacity:
            raise ValueError(f"leaf has {count} > {capacity} keys")
        next_leaf = (node.next_leaf.chunk_id
                     if node.next_leaf is not None else -1)
        struct.pack_into(HEADER_FORMAT, out, 0, FLAG_LEAF, count,
                         node.chunk_id, next_leaf)
        offset = HEADER_SIZE
        for key, value in zip(node.keys, node.values):
            struct.pack_into("<QQ", out, offset, key, value)
            offset += PAIR_SIZE
    else:
        count = len(node.keys)
        if len(node.children) > capacity:
            raise ValueError(
                f"inner has {len(node.children)} > {capacity} children"
            )
        struct.pack_into(HEADER_FORMAT, out, 0, 0, count,
                         node.chunk_id, -1)
        offset = HEADER_SIZE
        for key, child in zip(node.keys, node.children):
            struct.pack_into("<QQ", out, offset, key, child.chunk_id)
            offset += PAIR_SIZE
        # trailing child (children = count + 1)
        struct.pack_into("<Q", out, offset, node.children[-1].chunk_id
                         if node.children else 0)
    stamp_versions(out, payload_size(capacity), node.version)
    return bytes(out)


def pack_bnode_torn(node: BNode, capacity: int) -> bytes:
    """A mid-write image: leading cache lines carry the in-flight stamp."""
    return torn_image(pack_bnode(node, capacity), payload_size(capacity),
                      node.version)


def snapshot_from_bytes(
    data: bytes, capacity: int
) -> Optional[BNodeSnapshot]:
    """Decode + FaRM-validate chunk bytes into a snapshot (None = retry)."""
    if len(data) != chunk_size(capacity):
        return None
    flags, count, chunk_id, next_leaf = struct.unpack_from(
        HEADER_FORMAT, data, 0
    )
    if count > capacity:
        return None
    version = agreed_version(data, payload_size(capacity))
    if version is None:
        return None  # torn
    is_leaf = bool(flags & FLAG_LEAF)
    keys = []
    refs = []
    offset = HEADER_SIZE
    for _ in range(count):
        key, ref = struct.unpack_from("<QQ", data, offset)
        keys.append(key)
        refs.append(ref)
        offset += PAIR_SIZE
    if not is_leaf:
        (tail,) = struct.unpack_from("<Q", data, offset)
        refs.append(tail)
    return BNodeSnapshot(
        chunk_id=chunk_id,
        is_leaf=is_leaf,
        keys=tuple(keys),
        refs=tuple(refs),
        next_leaf=(next_leaf if is_leaf and next_leaf >= 0 else None),
        version=version,
        torn=False,
    )
