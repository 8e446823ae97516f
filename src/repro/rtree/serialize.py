"""The on-chunk node format used by RDMA offloading.

Every R-tree node occupies one fixed-size chunk in the server's registered
region (§III-B of the paper).  A client that knows the region base and the
chunk size can fetch any node with a single RDMA Read.

Layout (little-endian)::

    header:   level:u32  count:u32  chunk_id:u32  lost_seq:u32
    entries:  count x { minx:f64 miny:f64 maxx:f64 maxy:f64 ref:u64 }
    versions: one u8 per 64-byte cache line of the chunk (FaRM style)

``ref`` is a data id in leaves and a child chunk id in internal nodes.
``lost_seq`` is the node's entry-loss stamp (:attr:`Node.lost_seq`, low
32 bits), which a one-sided traversal compares with its meta read.

The FaRM framing after the payload is shared by every index's codec (the
B+tree's too): :func:`version_lines`, :func:`chunk_footprint`,
:func:`stamp_versions`, :func:`torn_image`, :func:`garbage_image` and
:func:`agreed_version` are its only home.
The byte codec is exercised by the test suite for round-trip fidelity; the
simulation's hot path moves :class:`NodeView` snapshots instead of bytes
(equivalent content, no per-read pack cost) and charges the wire for
``chunk_size`` bytes, exactly what the real system reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from . import batch as _batch
from .geometry import Rect
from .node import DEFAULT_MAX_ENTRIES, Node

HEADER_FORMAT = "<IIII"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)  # 16
ENTRY_FORMAT = "<ddddQ"
ENTRY_SIZE = struct.calcsize(ENTRY_FORMAT)  # 40
CACHE_LINE = 64


def version_lines(payload: int) -> int:
    """One version byte per cache line touched by ``payload`` bytes."""
    return (payload + CACHE_LINE - 1) // CACHE_LINE


def chunk_footprint(payload: int) -> int:
    """Payload plus its version bytes, rounded up to whole cache lines."""
    raw = payload + version_lines(payload)
    return ((raw + CACHE_LINE - 1) // CACHE_LINE) * CACHE_LINE


def stamp_versions(out: bytearray, payload: int, version: int) -> None:
    """Write ``version`` (low byte) into every version byte of ``out``."""
    lines = version_lines(payload)
    out[payload:payload + lines] = bytes((version & 0xFF,)) * lines


def torn_image(data: bytes, payload: int, version: int) -> bytes:
    """``data`` as a concurrent writer exposes it mid-write: the first
    half of the cache lines carry the writer's in-flight stamp
    ``version + 1``, the rest still carry ``version`` — exactly the
    inconsistency FaRM's validation exists to catch."""
    out = bytearray(data)
    torn_at = max(1, version_lines(payload) // 2)
    out[payload:payload + torn_at] = bytes(((version + 1) & 0xFF,)) * torn_at
    return bytes(out)


def garbage_image(payload: int) -> bytes:
    """Recycled-memory bytes: version numbers that can never validate."""
    out = bytearray(chunk_footprint(payload))
    for i in range(version_lines(payload)):
        out[payload + i] = i & 0xFF or 1  # alternating, never uniform
    return bytes(out)


def agreed_version(data: bytes, payload: int) -> Optional[int]:
    """FaRM validation: the version every cache line carries, or None
    when they disagree (a torn read)."""
    lines = data[payload:payload + version_lines(payload)]
    if lines.count(lines[0]) != len(lines):
        return None
    return lines[0]


def payload_size(max_entries: int) -> int:
    """Bytes of header + full entry array (before version bytes)."""
    return HEADER_SIZE + max_entries * ENTRY_SIZE


def chunk_size(max_entries: int = DEFAULT_MAX_ENTRIES) -> int:
    """Total chunk footprint, rounded up to a cache-line multiple."""
    return chunk_footprint(payload_size(max_entries))


def pack_node(node: Node, max_entries: int = DEFAULT_MAX_ENTRIES) -> bytes:
    """Serialize a node into its chunk bytes (version bytes uniform)."""
    if node.count > max_entries:
        raise ValueError(
            f"node #{node.chunk_id} has {node.count} > {max_entries} entries"
        )
    out = bytearray(chunk_size(max_entries))
    struct.pack_into(HEADER_FORMAT, out, 0, node.level, node.count,
                     node.chunk_id if node.chunk_id >= 0 else 0,
                     node.lost_seq & 0xFFFFFFFF)
    offset = HEADER_SIZE
    for entry in node.entries:
        ref = entry.data_id if entry.is_leaf_entry else entry.child.chunk_id
        struct.pack_into(
            ENTRY_FORMAT, out, offset,
            entry.rect.minx, entry.rect.miny,
            entry.rect.maxx, entry.rect.maxy, ref,
        )
        offset += ENTRY_SIZE
    stamp_versions(out, payload_size(max_entries), node.version)
    return bytes(out)


@dataclass
class UnpackedEntry:
    rect: Rect
    ref: int


@dataclass
class UnpackedNode:
    level: int
    chunk_id: int
    entries: List[UnpackedEntry]
    versions: Tuple[int, ...]
    lost_seq: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def versions_consistent(self) -> bool:
        """FaRM validation: all cache-line versions must agree."""
        return len(set(self.versions)) <= 1


def unpack_node(
    data: bytes, max_entries: int = DEFAULT_MAX_ENTRIES
) -> UnpackedNode:
    """Parse chunk bytes back into a node image."""
    expected = chunk_size(max_entries)
    if len(data) != expected:
        raise ValueError(f"chunk is {len(data)} bytes, expected {expected}")
    level, count, chunk_id, lost_seq = struct.unpack_from(HEADER_FORMAT,
                                                          data, 0)
    if count > max_entries:
        raise ValueError(f"corrupt chunk: count {count} > {max_entries}")
    entries = []
    offset = HEADER_SIZE
    for _ in range(count):
        minx, miny, maxx, maxy, ref = struct.unpack_from(
            ENTRY_FORMAT, data, offset
        )
        entries.append(UnpackedEntry(Rect(minx, miny, maxx, maxy), ref))
        offset += ENTRY_SIZE
    base = payload_size(max_entries)
    versions = tuple(data[base:base + version_lines(base)])
    return UnpackedNode(level, chunk_id, entries, versions, lost_seq)


@dataclass
class NodeView:
    """A consistent snapshot of a node as an offloading client sees it.

    ``torn`` is True when the snapshot was taken while a server thread was
    mutating the node — the client's version check will reject it and
    retry, exactly like FaRM's per-cache-line version validation.
    ``lost_seq`` is the node's entry-loss stamp (:attr:`Node.lost_seq`).

    The entry MBRs are additionally mirrored into a flat coordinate list
    (built lazily, once per view) so the client's per-node intersection
    scans compare floats directly instead of calling ``Rect.intersects``
    per entry — the same flat-scan technique the server tree uses.
    Snapshots of quiescent nodes are cached and shared across reads (see
    :class:`~repro.server.base.ChunkReads`), so one coordinate
    build amortizes over every read of the node between mutations.
    """

    level: int
    chunk_id: int
    entries: Tuple[Tuple[Rect, int], ...]  # (mbr, ref) pairs
    version: int
    torn: bool
    lost_seq: int = 0
    #: lazy [minx, miny, maxx, maxy] * count mirror of the entry MBRs
    _coords: Optional[List[float]] = field(
        default=None, repr=False, compare=False
    )
    #: lazy packed ``(4, E)`` numpy mirror for the batch kernels, built
    #: at most once per view by ``repro.rtree.batch.view_packed``
    _np_packed: Optional[Any] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def scan_coords(self) -> List[float]:
        """The flat ``[minx, miny, maxx, maxy] * count`` coordinate list."""
        coords = self._coords
        if coords is None:
            coords = []
            for rect, _ref in self.entries:
                coords.append(rect.minx)
                coords.append(rect.miny)
                coords.append(rect.maxx)
                coords.append(rect.maxy)
            self._coords = coords
        return coords

    def intersecting_refs(self, query: Rect) -> List[int]:
        """Child chunk ids (or data ids at leaves) intersecting ``query``.

        Routed through the shared single-query scan kernel (the
        flat-list loop over the view's coordinate mirror).
        """
        entries = self.entries
        return [
            entries[j][1]
            for j in _batch.view_scan_indices(
                self, query.minx, query.miny, query.maxx, query.maxy
            )
        ]

    def intersecting_entries(self, query: Rect) -> List[Tuple[Rect, int]]:
        """The ``(mbr, ref)`` pairs intersecting ``query`` (leaf matches)."""
        entries = self.entries
        return [
            entries[j]
            for j in _batch.view_scan_indices(
                self, query.minx, query.miny, query.maxx, query.maxy
            )
        ]


def pack_node_torn(node: Node,
                   max_entries: int = DEFAULT_MAX_ENTRIES) -> bytes:
    """A node as a concurrent writer exposes it mid-write
    (:func:`torn_image`)."""
    return torn_image(pack_node(node, max_entries), payload_size(max_entries),
                      node.version)


def view_from_bytes(
    data: bytes, max_entries: int = DEFAULT_MAX_ENTRIES
) -> Optional[NodeView]:
    """Client-side decode + FaRM validation of raw chunk bytes.

    Returns None when the image cannot be trusted: unparsable content or
    inconsistent per-cache-line versions (a torn read).
    """
    try:
        img = unpack_node(data, max_entries)
    except ValueError:
        return None
    version = agreed_version(data, payload_size(max_entries))
    if version is None:
        return None
    return NodeView(
        level=img.level,
        chunk_id=img.chunk_id,
        entries=tuple((e.rect, e.ref) for e in img.entries),
        version=version,
        torn=False,
        lost_seq=img.lost_seq,
    )


def snapshot_node(node: Node, now: Optional[float] = None) -> NodeView:
    """Take the client-visible snapshot of a live node."""
    return NodeView(
        level=node.level,
        chunk_id=node.chunk_id,
        entries=tuple(
            (e.rect, e.data_id if e.is_leaf_entry else e.child.chunk_id)
            for e in node.entries
        ),
        version=node.version,
        torn=node.active_writers > 0,
        lost_seq=node.lost_seq,
    )
