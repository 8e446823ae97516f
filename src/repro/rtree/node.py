"""R-tree node structures.

A node holds up to ``max_entries`` entries.  Leaf entries carry user data
ids; internal entries point at child nodes.  Every node knows its chunk id
(its slot in the server's registered memory region, §III-B of the paper)
and carries versioning state for one-sided-read validation.
"""

from __future__ import annotations

from typing import List, Optional

from .geometry import Rect

#: Paper-style capacity: a 4 KB chunk fits 64 entries of 4 doubles + an id.
DEFAULT_MAX_ENTRIES = 64

#: R*-tree recommendation: m = 40% of M.
MIN_FILL_FRACTION = 0.4


class Entry:
    """One slot of a node: an MBR plus either a child or a data id."""

    __slots__ = ("rect", "child", "data_id")

    def __init__(
        self,
        rect: Rect,
        child: Optional["Node"] = None,
        data_id: Optional[int] = None,
    ):
        if (child is None) == (data_id is None):
            raise ValueError("entry needs exactly one of child / data_id")
        self.rect = rect
        self.child = child
        self.data_id = data_id

    @property
    def is_leaf_entry(self) -> bool:
        return self.data_id is not None

    def __repr__(self) -> str:
        ref = f"data={self.data_id}" if self.is_leaf_entry else (
            f"child=#{self.child.chunk_id}"
        )
        return f"Entry({self.rect!r}, {ref})"


class VersionedChunk:
    """One chunk of an index region: its id, and the FaRM write-window
    version protocol (§III-B) that one-sided readers validate against.

    The R-tree's nodes, the B+tree's nodes and the cuckoo table's buckets
    all carry it, so the server's write tracker treats them alike.
    """

    __slots__ = ("chunk_id", "version", "active_writers")

    def __init__(self, chunk_id: int):
        self.chunk_id = chunk_id
        #: Incremented on every modification (per-cache-line version model).
        self.version = 0
        #: Number of server threads currently mutating this chunk; a one-
        #: sided read sampled while this is non-zero is a torn read.
        self.active_writers = 0

    def begin_write(self) -> None:
        """Mark the start of a server-side mutation (versioning model)."""
        self.active_writers += 1

    def end_write(self) -> None:
        """Mark the end of a mutation; bumps the version."""
        if self.active_writers <= 0:
            raise RuntimeError(
                f"end_write() without begin_write() on chunk #{self.chunk_id}"
            )
        self.active_writers -= 1
        self.version += 1


class Node(VersionedChunk):
    """An R-tree node.  ``level`` 0 is a leaf; the root has the max level."""

    __slots__ = (
        "level",
        "entries",
        "parent",
        "mut_seq",
        "lost_seq",
        "_coords",
        "_coords_ok",
        "_np_packed",
        "_np_seq",
        "_payload",
        "_payload_seq",
    )

    def __init__(self, level: int, chunk_id: int = -1):
        if level < 0:
            raise ValueError(f"negative level {level}")
        super().__init__(chunk_id)
        self.level = level
        self.entries: List[Entry] = []
        self.parent: Optional["Node"] = None
        #: Bumped on every structural mutation (entry added/removed or an
        #: entry's rect replaced).  Unlike ``version`` — which only moves
        #: at ``end_write()``, i.e. when the simulated write window closes
        #: — this tracks the in-memory truth and keys derived caches (the
        #: flat coordinate scan cache below, the server's packed-chunk
        #: byte cache).
        self.mut_seq = 0
        #: The tree's mutation mark (``RStarTree.mut_hwm``) of the last
        #: mutation that moved entries out of this node other than by
        #: deleting them: a split, a forced reinsert, or a condense that
        #: dropped a child.  A one-sided traversal that read the parent
        #: before that mutation does not know where the entries went, so
        #: it restarts when it reads a stamp newer than its meta read.
        self.lost_seq = 0
        #: Flat ``[minx, miny, maxx, maxy] * count`` scan cache so search
        #: and ChooseSubtree read local floats instead of chasing
        #: ``entry.rect`` per entry.  Rebuilt lazily via ``scan_coords()``.
        self._coords: List[float] = []
        self._coords_ok = False
        #: Packed ``(4, E)`` numpy mirror the batch kernels scan, built on
        #: demand by ``repro.rtree.batch.node_packed`` and keyed on
        #: ``mut_seq`` via ``_np_seq`` — no extra invalidation sites
        #: needed, any mutation that bumps ``mut_seq`` implicitly stales it.
        self._np_packed = None
        self._np_seq = -1
        #: Per-entry ``(rect, data_id)`` match payloads for leaves, built
        #: by ``repro.rtree.batch.node_leaf_payload`` and keyed on
        #: ``mut_seq`` the same way, so the batched scatter appends
        #: prebuilt tuples instead of touching ``Entry`` per hit.
        self._payload = None
        self._payload_seq = -1

    def invalidate(self) -> None:
        """Drop derived caches after a mutation (and bump ``mut_seq``).

        Every code path that appends/removes an entry or rebinds an
        ``entry.rect`` on this node must call this; ``add``/``remove`` do
        it themselves, the R* algorithms do it at their direct-assignment
        sites.
        """
        self._coords_ok = False
        self.mut_seq += 1

    def scan_coords(self) -> List[float]:
        """The flat coordinate array, rebuilding it if stale."""
        if self._coords_ok:
            return self._coords
        coords: List[float] = []
        for entry in self.entries:
            r = entry.rect
            coords.append(r.minx)
            coords.append(r.miny)
            coords.append(r.maxx)
            coords.append(r.maxy)
        self._coords = coords
        self._coords_ok = True
        return coords

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def count(self) -> int:
        return len(self.entries)

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        entries = self.entries
        if not entries:
            raise ValueError("mbr() of an empty node")
        # Single direct pass (mbr() runs on every insert path; the
        # generator + Rect.union_of indirection showed up in profiles).
        r = entries[0].rect
        minx, miny, maxx, maxy = r.minx, r.miny, r.maxx, r.maxy
        for entry in entries:
            r = entry.rect
            if r.minx < minx:
                minx = r.minx
            if r.miny < miny:
                miny = r.miny
            if r.maxx > maxx:
                maxx = r.maxx
            if r.maxy > maxy:
                maxy = r.maxy
        return Rect(minx, miny, maxx, maxy)

    def add(self, entry: Entry) -> None:
        """Append an entry, maintaining parent links for internal nodes."""
        if entry.child is not None:
            if entry.child.level != self.level - 1:
                raise ValueError(
                    f"child level {entry.child.level} under node level "
                    f"{self.level}"
                )
            entry.child.parent = self
        elif not self.is_leaf:
            raise ValueError("data entry added to an internal node")
        self.entries.append(entry)
        self._coords_ok = False
        self.mut_seq += 1

    def remove(self, entry: Entry) -> None:
        self.entries.remove(entry)
        self._coords_ok = False
        self.mut_seq += 1
        if entry.child is not None:
            entry.child.parent = None

    def entry_for_child(self, child: "Node") -> Entry:
        for entry in self.entries:
            if entry.child is child:
                return entry
        raise KeyError(f"node #{self.chunk_id} has no entry for child "
                       f"#{child.chunk_id}")

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(l{self.level})"
        return f"<Node #{self.chunk_id} {kind} n={self.count} v{self.version}>"


def min_entries(max_entries: int) -> int:
    """R*-tree minimum fill: 40% of capacity, at least 2."""
    return max(2, int(max_entries * MIN_FILL_FRACTION))
