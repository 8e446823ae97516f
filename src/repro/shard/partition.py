"""Spatial partitioning: STR tiling of a dataset into K shards.

The sharded cluster splits one dataset across K independent Catfish
servers.  The partitioner reuses the STR idea the bulk loader is built on
(sort by center x, slice into columns, sort each column by center y, cut
into tiles), but at the *cluster* level: one tile = one shard.

The :class:`ShardMap` is the deployment's one routing table: every
router and every server of a deployment reads the same object.  Its
entries are *tiles* — disjoint routing cells that partition the whole
plane (outer tiles extend to infinity), so every point belongs to
exactly one tile.  Each tile names

* its **owner** — the shard that holds the items whose centres lie in
  the tile.  Write routing by rectangle centre is total and
  unambiguous, and a server applies an insert only if it owns the
  centre's tile;
* its **cover** — the MBR of every item whose centre lies in the tile,
  on whichever shard that item lives.  Items are assigned by centre, so
  an item may overhang its tile; the cover includes the overhang.  A
  read scatters to the owner of every tile whose cover intersects the
  query (:meth:`ShardMap.read_targets`), which is exact: each item's
  tile owner holds it and that tile's cover contains it.  Routed
  inserts and updates grow the cover at ack time, so a write acked
  through one router is visible to every other;
* its **second holder** while the tile migrates — the destination
  during the copy.  Deletes and updates go to the owner and then to the
  second holder; reads do not (the owner still holds everything).

The map is compact — tiles with their covers plus K counts — which is
what the router consults per query (RDMAvisor's thin-routing-layer
argument: keep one small, authoritative routing table).

The map is also *versioned*: every split, merge and reassignment bumps
``epoch``.  The static plane never revises, so ``epoch`` stays 0; under
rebalancing (see :mod:`repro.shard.rebalance`) the epoch is the
router's cheap "did the plane move under me?" probe — a query that
scatters at epoch E and gathers at epoch E' > E re-reads the map and
re-scatters to any shard that newly covers its region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..rtree.geometry import Rect

#: Routing tiles extend to infinity at the partition borders so routing
#: is total over the plane (queries/inserts outside [0,1]^2 still route).
_INF = float("inf")


def tile_contains(tile: Rect, cx: float, cy: float) -> bool:
    """Half-open tile containment (max edges exclusive, inf edges total).

    The rule every owner lookup uses: borders between tiles are
    unambiguous because only the lower tile's max edge is exclusive,
    and the outermost (infinite) edges accept everything beyond them.
    """
    return (tile.minx <= cx and (cx < tile.maxx or tile.maxx == _INF)
            and tile.miny <= cy
            and (cy < tile.maxy or tile.maxy == _INF))


@dataclass(frozen=True)
class ShardInfo:
    """One shard's routing entry in the shard map."""

    shard_id: int
    #: The shard's *home* routing cell at construction time.  Ownership
    #: lookups go through the map's tile table (which starts as one tile
    #: per shard and diverges under split/merge/reassign); this rect is
    #: kept for construction and introspection.
    tile: Rect
    #: MBR of the shard's contents at partition time (None while empty):
    #: it seeds the home tile's cover and is never updated after that.
    mbr: Optional[Rect]
    #: Items the shard's tree holds, kept incrementally: routed writes
    #: at ack time, migration copies and cleanups when they are planned.
    count: int


@dataclass(frozen=True)
class TileEntry:
    """One routing cell of the (possibly revised) plane tiling."""

    rect: Rect
    owner: int
    #: The tile's cover: MBR of every item whose *centre* lies in this
    #: tile, on whichever shard it lives (items are assigned by centre,
    #: so rects overhang the tile; the cover includes the overhang).
    #: None while no item is known to live here.  Conservative: grown by
    #: routed inserts and updates, never shrunk by deletes.
    mbr: Optional[Rect] = None
    #: While the tile migrates, the destination of its copy: deletes and
    #: updates go to the owner and then to it, reads do not.
    second: Optional[int] = None


class ShardMap:
    """The compact, epoch-versioned routing table of a sharded cluster."""

    def __init__(self, shards: Sequence[ShardInfo],
                 tiles: Optional[Sequence[TileEntry]] = None,
                 epoch: int = 0):
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        self._shards: List[ShardInfo] = list(shards)
        for index, info in enumerate(self._shards):
            if info.shard_id != index:
                raise ValueError(
                    f"shard ids must be dense: slot {index} holds "
                    f"{info.shard_id}"
                )
        #: The routing tiles.  Defaults to one home tile per shard (the
        #: static plane); revisions split/merge/reassign entries.
        self._tiles: List[TileEntry] = (
            list(tiles) if tiles is not None
            else [TileEntry(info.tile, info.shard_id, info.mbr)
                  for info in self._shards]
        )
        for entry in self._tiles:
            if not 0 <= entry.owner < len(self._shards):
                raise ValueError(
                    f"tile owner {entry.owner} outside shard range"
                )
        #: Revision counter: bumped by every split/merge/reassign.  0
        #: means the plane never moved (the static case).
        self.epoch = epoch

    def __len__(self) -> int:
        return len(self._shards)

    def __iter__(self):
        return iter(self._shards)

    def __getitem__(self, shard_id: int) -> ShardInfo:
        return self._shards[shard_id]

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def tiles(self) -> Tuple[TileEntry, ...]:
        return tuple(self._tiles)

    def copy(self) -> "ShardMap":
        """Epoch-preserving deep-enough copy (entries are frozen)."""
        return ShardMap(list(self._shards), tiles=list(self._tiles),
                        epoch=self.epoch)

    def owned_tiles(self, shard_id: int) -> List[Tuple[int, TileEntry]]:
        """The ``(index, entry)`` tiles currently owned by a shard."""
        return [(index, entry) for index, entry in enumerate(self._tiles)
                if entry.owner == shard_id]

    def counts(self) -> List[int]:
        """Per-shard item counts (occupancy snapshot)."""
        return [info.count for info in self._shards]

    # -- read routing ------------------------------------------------------

    def read_targets(self, rect: Rect) -> List[int]:
        """The read scatter set: owners of the tiles whose cover
        intersects ``rect``.  Exact: every item's tile owner holds it,
        and that tile's cover contains the item's whole rect."""
        return sorted({entry.owner for entry in self._tiles
                       if entry.mbr is not None
                       and entry.mbr.intersects(rect)})

    #: The pre-tile name of :meth:`read_targets`, which one benchmark
    #: basket still calls.
    shards_for = read_targets

    def nonempty_shards(self) -> List[int]:
        """Shards owning a tile with a cover (kNN scatters to them)."""
        return sorted({entry.owner for entry in self._tiles
                       if entry.mbr is not None})

    # -- write routing -----------------------------------------------------

    def tile_index(self, rect: Rect) -> int:
        """The index of the tile containing ``rect``'s centre."""
        cx, cy = rect.center()
        for index, entry in enumerate(self._tiles):
            # Half-open on the max edges so tile borders are unambiguous
            # (the outermost tiles are unbounded, so every point matches).
            if tile_contains(entry.rect, cx, cy):
                return index
        # Unreachable: the tiles cover the plane.
        raise AssertionError(f"no tile covers center ({cx}, {cy})")

    def owner_of(self, rect: Rect) -> int:
        """The single shard owning ``rect`` (tile containing its center):
        the one shard that applies an insert of it."""
        return self._tiles[self.tile_index(rect)].owner

    def holders(self, rect: Rect) -> List[int]:
        """The shards that apply a delete or update of ``rect``, in the
        order it is sent: the owner of its centre's tile, then the
        tile's second holder, if any."""
        entry = self._tiles[self.tile_index(rect)]
        if entry.second is None:
            return [entry.owner]
        return [entry.owner, entry.second]

    def _grow_cover(self, rect: Rect) -> None:
        """Grow the cover of the tile containing ``rect``'s centre."""
        index = self.tile_index(rect)
        entry = self._tiles[index]
        mbr = rect if entry.mbr is None else entry.mbr.union(rect)
        self._tiles[index] = replace(entry, mbr=mbr)

    def add_count(self, shard_id: int, delta: int) -> None:
        """Account ``delta`` items entering (or leaving) a shard's tree."""
        info = self._shards[shard_id]
        self._shards[shard_id] = replace(info, count=info.count + delta)

    def note_insert(self, shard_id: int, rect: Rect) -> None:
        """Account an insert a shard acked, and grow its tile's cover so
        every router's later reads reach the new item."""
        self.add_count(shard_id, 1)
        self._grow_cover(rect)

    def note_delete(self, shard_id: int) -> None:
        """Account a routed delete that found its item on a shard.  No
        cover shrinks: it cannot without the tile's contents, and a
        larger cover stays exact."""
        self.add_count(shard_id, -1)

    def note_update(self, new_rect: Rect) -> None:
        """Grow the tile cover after a routed in-place update."""
        self._grow_cover(new_rect)

    # -- revisions ---------------------------------------------------------

    def split_tile(self, index: int, axis: str, cut: float,
                   low_mbr: Optional[Rect] = None,
                   high_mbr: Optional[Rect] = None) -> Tuple[int, int]:
        """Split tile ``index`` at ``cut`` along ``axis`` ("x"/"y").

        Both halves keep the owner.  ``low_mbr``/``high_mbr`` are the
        halves' covers when the caller knows the contents (the
        rebalance controller scanned them to plan the cut); when omitted
        both halves inherit the parent's cover — conservative, still
        exact.  Bumps the epoch; returns ``(low_index, high_index)``.
        """
        entry = self._tiles[index]
        r = entry.rect
        if axis == "x":
            if not r.minx < cut < r.maxx:
                raise ValueError(
                    f"cut {cut} outside tile x-range ({r.minx}, {r.maxx})"
                )
            low = Rect(r.minx, r.miny, cut, r.maxy)
            high = Rect(cut, r.miny, r.maxx, r.maxy)
        elif axis == "y":
            if not r.miny < cut < r.maxy:
                raise ValueError(
                    f"cut {cut} outside tile y-range ({r.miny}, {r.maxy})"
                )
            low = Rect(r.minx, r.miny, r.maxx, cut)
            high = Rect(r.minx, cut, r.maxx, r.maxy)
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        if low_mbr is None and high_mbr is None:
            low_mbr = high_mbr = entry.mbr
        self._tiles[index] = TileEntry(low, entry.owner, low_mbr)
        self._tiles.append(TileEntry(high, entry.owner, high_mbr))
        self.epoch += 1
        return index, len(self._tiles) - 1

    def merge_tiles(self, index_a: int, index_b: int) -> int:
        """Merge two same-owner tiles whose union is an exact rectangle.

        Bumps the epoch.  Returns the surviving tile index (the lower of
        the two; the higher slot is removed, shifting later indices down
        by one).
        """
        a, b = self._tiles[index_a], self._tiles[index_b]
        if index_a == index_b:
            raise ValueError("cannot merge a tile with itself")
        if a.owner != b.owner:
            raise ValueError(
                f"tiles owned by different shards ({a.owner} vs {b.owner})"
            )
        merged = _exact_union(a.rect, b.rect)
        if merged is None:
            raise ValueError(
                f"tiles {a.rect} and {b.rect} do not form a rectangle"
            )
        keep, drop = sorted((index_a, index_b))
        if a.mbr is None:
            mbr = b.mbr
        elif b.mbr is None:
            mbr = a.mbr
        else:
            mbr = a.mbr.union(b.mbr)
        self._tiles[keep] = TileEntry(merged, a.owner, mbr)
        del self._tiles[drop]
        self.epoch += 1
        return keep

    def set_second(self, index: int, second: Optional[int]) -> None:
        """Name (or, with None, clear) tile ``index``'s second holder.
        Reads never go to it, so the epoch stays."""
        self._tiles[index] = replace(self._tiles[index], second=second)

    def reassign_tile(self, index: int, new_owner: int) -> int:
        """Hand tile ``index`` to ``new_owner`` (the migration cut-over).

        The cover stays with the tile and the second holder is cleared:
        from this instant the new owner alone applies the tile's writes
        and answers its reads.  Counts stay with the trees.  Bumps the
        epoch; returns the previous owner.
        """
        entry = self._tiles[index]
        old_owner = entry.owner
        if not 0 <= new_owner < len(self._shards):
            raise ValueError(f"no shard {new_owner} in this map")
        if new_owner == old_owner:
            raise ValueError(f"tile {index} already owned by {new_owner}")
        self._tiles[index] = TileEntry(entry.rect, new_owner, entry.mbr)
        self.epoch += 1
        return old_owner

    def check_invariants(self) -> None:
        """Raise ``ValueError`` unless the tiles are pairwise disjoint and
        cover the plane.

        Probes a grid built from every finite tile edge: midpoints
        between adjacent cuts, points exactly *on* each cut (exercising
        the half-open rule), and points beyond the outermost finite cuts
        (exercising the infinite borders).  Each probe must land in
        exactly one tile.  Exact — no floating-point area sums against
        infinite tiles.
        """
        def _axis_cuts(lo_key, hi_key) -> List[float]:
            return sorted({
                c for entry in self._tiles
                for c in (lo_key(entry.rect), hi_key(entry.rect))
                if math.isfinite(c)
            })

        def _probes(cuts: List[float]) -> List[float]:
            if not cuts:
                return [0.0]
            points = [cuts[0] - 1.0]
            points.extend(cuts)
            points.extend((a + b) / 2.0
                          for a, b in zip(cuts, cuts[1:]) if b > a)
            points.append(cuts[-1] + 1.0)
            return points

        xs = _probes(_axis_cuts(lambda r: r.minx, lambda r: r.maxx))
        ys = _probes(_axis_cuts(lambda r: r.miny, lambda r: r.maxy))
        for cx in xs:
            for cy in ys:
                owners = [
                    index for index, entry in enumerate(self._tiles)
                    if tile_contains(entry.rect, cx, cy)
                ]
                if len(owners) != 1:
                    raise ValueError(
                        f"point ({cx}, {cy}) covered by tiles {owners} "
                        f"(epoch {self.epoch}): tiles must stay disjoint "
                        f"and plane-covering"
                    )

    def describe(self) -> List[str]:
        """One human-readable line per shard."""
        lines = []
        for info in self._shards:
            mbr = (f"[{info.mbr.minx:.3f},{info.mbr.miny:.3f} .. "
                   f"{info.mbr.maxx:.3f},{info.mbr.maxy:.3f}]"
                   if info.mbr is not None else "(empty)")
            lines.append(
                f"shard {info.shard_id}: {info.count:>7} items, mbr {mbr}"
            )
        return lines


@dataclass(frozen=True)
class Partition:
    """The partitioner's output: per-shard item lists plus the map."""

    shard_map: ShardMap
    assignments: Tuple[Tuple[Tuple[Rect, int], ...], ...]

    @property
    def n_shards(self) -> int:
        return self.shard_map.n_shards


def partition_str(
    items: Sequence[Tuple[Rect, int]], n_shards: int
) -> Partition:
    """Split ``(rect, data_id)`` items into ``n_shards`` STR tiles.

    Items are assigned by rectangle center: sort by center x, cut into
    ``ceil(sqrt(K))`` columns of near-equal cardinality, sort each column
    by center y and cut into rows, for K tiles total.  Tile borders are
    midpoints between adjacent item centers, so the tiles are disjoint
    and plane-covering; shard sizes differ by at most one item per cut.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        tile = Rect(-_INF, -_INF, _INF, _INF)
        mbr = (Rect.union_of(r for r, _ in items) if items else None)
        shard_map = ShardMap([ShardInfo(0, tile, mbr, len(items))])
        return Partition(shard_map, (tuple(items),))

    centers = [(rect.center(), rect, data_id) for rect, data_id in items]
    by_x = sorted(centers, key=lambda c: (c[0][0], c[0][1], c[2]))

    n_cols = max(1, math.ceil(math.sqrt(n_shards)))
    n_cols = min(n_cols, n_shards)
    # Rows per column: distribute K over the columns as evenly as possible.
    base, extra = divmod(n_shards, n_cols)
    rows_per_col = [base + (1 if c < extra else 0) for c in range(n_cols)]

    # Column cuts: split the x-sorted items into n_cols near-equal runs.
    col_sizes = _even_split(len(by_x), n_cols)
    columns: List[List] = []
    start = 0
    for size in col_sizes:
        columns.append(by_x[start:start + size])
        start += size

    x_cuts = _cut_positions(
        columns, lambda entry: entry[0][0]
    )

    tiles: List[Rect] = []
    for col_index, column in enumerate(columns):
        minx = -_INF if col_index == 0 else x_cuts[col_index - 1]
        maxx = _INF if col_index == n_cols - 1 else x_cuts[col_index]
        n_rows = rows_per_col[col_index]
        by_y = sorted(column, key=lambda c: (c[0][1], c[0][0], c[2]))
        row_sizes = _even_split(len(by_y), n_rows)
        rows: List[List] = []
        start = 0
        for size in row_sizes:
            rows.append(by_y[start:start + size])
            start += size
        y_cuts = _cut_positions(rows, lambda entry: entry[0][1])
        for row_index in range(n_rows):
            miny = -_INF if row_index == 0 else y_cuts[row_index - 1]
            maxy = _INF if row_index == n_rows - 1 else y_cuts[row_index]
            tiles.append(Rect(minx, miny, maxx, maxy))

    # Assignment is *by tile ownership*, not by the sorted runs the cuts
    # came from: ties exactly on a cut line would otherwise let the run
    # and the (half-open) tile disagree about an item, and delete routing
    # — which can only consult the tile — would then miss it.
    probe = ShardMap([ShardInfo(i, tile, None, 0)
                      for i, tile in enumerate(tiles)])
    buckets: List[List[Tuple[Rect, int]]] = [[] for _ in tiles]
    for _center, rect, data_id in centers:
        buckets[probe.owner_of(rect)].append((rect, data_id))

    shards: List[ShardInfo] = []
    assignments: List[Tuple[Tuple[Rect, int], ...]] = []
    for shard_id, (tile, bucket) in enumerate(zip(tiles, buckets)):
        contents = tuple(bucket)
        mbr = Rect.union_of(r for r, _ in contents) if contents else None
        shards.append(ShardInfo(shard_id, tile, mbr, len(contents)))
        assignments.append(contents)

    return Partition(ShardMap(shards), tuple(assignments))


def _exact_union(a: Rect, b: Rect) -> Optional[Rect]:
    """The union of two rects iff it is exactly a rectangle (they share a
    full edge); None otherwise.  Works with infinite edges: equality of
    the shared coordinates is all that is needed."""
    if a.miny == b.miny and a.maxy == b.maxy:
        if a.maxx == b.minx:
            return Rect(a.minx, a.miny, b.maxx, a.maxy)
        if b.maxx == a.minx:
            return Rect(b.minx, a.miny, a.maxx, a.maxy)
    if a.minx == b.minx and a.maxx == b.maxx:
        if a.maxy == b.miny:
            return Rect(a.minx, a.miny, a.maxx, b.maxy)
        if b.maxy == a.miny:
            return Rect(a.minx, b.miny, a.maxx, a.maxy)
    return None


def _even_split(total: int, parts: int) -> List[int]:
    """Sizes of ``parts`` near-equal consecutive runs summing to ``total``."""
    base, extra = divmod(total, parts)
    return [base + (1 if p < extra else 0) for p in range(parts)]


def _cut_positions(runs: List[List], key) -> List[float]:
    """Border coordinates between consecutive runs (midpoint of the gap).

    Empty runs (more shards than items) reuse the previous cut, which
    yields zero-width tiles that never own anything — harmless, since
    ownership is half-open and their MBR stays None.
    """
    cuts: List[float] = []
    previous = 0.0
    for left, right in zip(runs, runs[1:]):
        if left and right:
            cut = (key(left[-1]) + key(right[0])) / 2.0
        elif left:
            cut = key(left[-1])
        else:
            cut = previous
        cuts.append(cut)
        previous = cut
    return cuts
