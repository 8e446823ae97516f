"""Tests for the STR cluster partitioner and shard map."""

import random

import pytest

from repro.rtree.geometry import Rect
from repro.shard.partition import (
    ShardInfo, ShardMap, TileEntry, partition_str, tile_contains,
)


def grid_items(n):
    """n x n grid of small rects with distinct centers."""
    items = []
    data_id = 0
    for i in range(n):
        for j in range(n):
            x, y = i / n, j / n
            items.append((Rect(x, y, x + 0.4 / n, y + 0.4 / n), data_id))
            data_id += 1
    return items


def random_items(n, seed=0):
    rng = random.Random(seed)
    items = []
    for data_id in range(n):
        x, y = rng.random(), rng.random()
        w, h = rng.random() * 0.02, rng.random() * 0.02
        items.append((Rect(x, y, x + w, y + h), data_id))
    return items


class TestPartitionStr:
    def test_every_item_assigned_exactly_once(self):
        items = random_items(300)
        part = partition_str(items, 4)
        assigned = sorted(d for bucket in part.assignments
                          for _r, d in bucket)
        assert assigned == sorted(d for _r, d in items)

    def test_assignment_matches_tile_ownership(self):
        """The authoritative rule: an item lives in the shard whose tile
        contains its center — delete routing relies on this."""
        for n_shards in (2, 3, 4, 6, 8):
            part = partition_str(random_items(200), n_shards)
            for shard_id, bucket in enumerate(part.assignments):
                for rect, _d in bucket:
                    assert part.shard_map.owner_of(rect) == shard_id

    def test_tie_on_cut_line_is_consistent(self):
        """Items exactly on a cut coordinate still agree with owner_of."""
        # Two x-columns of identical centers forces cuts through the gap
        # midpoints; a third column sits exactly on a plausible cut.
        items = []
        for i, x in enumerate((0.25, 0.5, 0.75)):
            for j in range(10):
                r = Rect(x - 0.01, j / 10, x + 0.01, j / 10 + 0.02)
                items.append((r, i * 10 + j))
        part = partition_str(items, 4)
        for shard_id, bucket in enumerate(part.assignments):
            for rect, _d in bucket:
                assert part.shard_map.owner_of(rect) == shard_id

    def test_counts_match_buckets(self):
        part = partition_str(random_items(100), 5)
        for info, bucket in zip(part.shard_map, part.assignments):
            assert info.count == len(bucket)

    def test_roughly_balanced(self):
        part = partition_str(random_items(400), 4)
        counts = [info.count for info in part.shard_map]
        assert sum(counts) == 400
        # STR with distinct random centers splits near-evenly.
        assert min(counts) >= 50

    def test_mbr_covers_contents(self):
        part = partition_str(random_items(150), 6)
        for info, bucket in zip(part.shard_map, part.assignments):
            for rect, _d in bucket:
                assert info.mbr.minx <= rect.minx
                assert info.mbr.miny <= rect.miny
                assert info.mbr.maxx >= rect.maxx
                assert info.mbr.maxy >= rect.maxy

    def test_single_shard(self):
        items = random_items(20)
        part = partition_str(items, 1)
        assert part.n_shards == 1
        assert part.shard_map[0].count == 20
        assert part.assignments[0] == tuple(items)
        assert part.shard_map[0].tile.minx == float("-inf")
        assert part.shard_map[0].tile.maxx == float("inf")

    def test_more_shards_than_items(self):
        items = random_items(3)
        part = partition_str(items, 8)
        assigned = sorted(d for bucket in part.assignments
                          for _r, d in bucket)
        assert assigned == [0, 1, 2]
        nonempty = part.shard_map.nonempty_shards()
        assert len(nonempty) <= 3
        for info in part.shard_map:
            if info.count == 0:
                assert info.mbr is None

    def test_empty_dataset_single_shard(self):
        part = partition_str([], 1)
        assert part.shard_map[0].mbr is None
        assert part.shard_map.nonempty_shards() == []

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            partition_str(random_items(5), 0)


class TestShardMap:
    def test_owner_is_total_over_the_plane(self):
        part = partition_str(grid_items(5), 4)
        rng = random.Random(1)
        for _ in range(200):
            # Points far outside the dataset domain must still route.
            x = rng.uniform(-50.0, 50.0)
            y = rng.uniform(-50.0, 50.0)
            owner = part.shard_map.owner_of(Rect(x, y, x, y))
            assert 0 <= owner < part.n_shards

    def test_shards_for_is_exact_superset(self):
        """Every item's own rect must scatter to the shard holding it."""
        items = random_items(120)
        part = partition_str(items, 4)
        holder = {d: k for k, bucket in enumerate(part.assignments)
                  for _r, d in bucket}
        for rect, data_id in items:
            assert holder[data_id] in part.shard_map.shards_for(rect)

    def test_shards_for_prunes_disjoint_queries(self):
        part = partition_str(grid_items(6), 4)
        faraway = Rect(10.0, 10.0, 11.0, 11.0)
        assert part.shard_map.shards_for(faraway) == []

    def test_note_insert_grows_mbr_and_count(self):
        part = partition_str(grid_items(4), 4)
        shard_map = part.shard_map
        outlier = Rect(0.0, 10.0, 0.1, 10.1)
        owner = shard_map.owner_of(outlier)
        before = shard_map[owner].count
        shard_map.note_insert(owner, outlier)
        assert shard_map[owner].count == before + 1
        tile = shard_map.tiles[shard_map.tile_index(outlier)]
        assert tile.mbr.maxy >= 10.1
        # The widened tile cover now scatters reads for the outlier's
        # region.
        assert owner in shard_map.read_targets(outlier)

    def test_rejects_empty_map(self):
        with pytest.raises(ValueError):
            ShardMap([])

    def test_rejects_sparse_ids(self):
        tile = Rect(float("-inf"), float("-inf"),
                    float("inf"), float("inf"))
        with pytest.raises(ValueError):
            ShardMap([ShardInfo(1, tile, None, 0)])

    def test_describe_mentions_every_shard(self):
        part = partition_str(random_items(50), 3)
        lines = part.shard_map.describe()
        assert len(lines) == 3
        assert "shard 0" in lines[0]


class TestEpochRevisions:
    """Split/merge/reassign keep the plane disjoint + covering and the
    epoch strictly increasing — the invariants the epoch-aware router
    and the rebalance controller both lean on."""

    def test_static_map_stays_at_epoch_zero(self):
        part = partition_str(random_items(100), 4)
        shard_map = part.shard_map
        shard_map.shards_for(Rect(0.1, 0.1, 0.2, 0.2))
        shard_map.owner_of(Rect(0.5, 0.5, 0.5, 0.5))
        assert shard_map.epoch == 0
        shard_map.check_invariants()

    def test_split_bumps_epoch_and_keeps_coverage(self):
        shard_map = partition_str(random_items(100), 4).shard_map
        index, entry = shard_map.owned_tiles(0)[0]
        cx = 0.0 if entry.rect.minx == float("-inf") else entry.rect.minx
        low, high = shard_map.split_tile(index, "x", cx + 0.1)
        assert shard_map.epoch == 1
        assert shard_map.tiles[low].owner == shard_map.tiles[high].owner == 0
        shard_map.check_invariants()

    def test_split_rejects_cut_outside_tile(self):
        shard_map = partition_str(random_items(50), 2).shard_map
        tile = shard_map.tiles[0].rect
        with pytest.raises(ValueError):
            shard_map.split_tile(0, "x", tile.maxx + 1.0)
        with pytest.raises(ValueError):
            shard_map.split_tile(0, "z", 0.5)

    def test_split_then_merge_restores_the_tile(self):
        shard_map = partition_str(random_items(100), 4).shard_map
        index, entry = shard_map.owned_tiles(1)[0]
        before = entry.rect
        low, high = shard_map.split_tile(index, "y", 0.5)
        kept = shard_map.merge_tiles(low, high)
        assert shard_map.tiles[kept].rect == before
        assert shard_map.epoch == 2
        assert len(shard_map.tiles) == 4
        shard_map.check_invariants()

    def test_merge_rejects_non_rectangular_union(self):
        shard_map = partition_str(random_items(100), 4).shard_map
        index, _entry = shard_map.owned_tiles(0)[0]
        low, high = shard_map.split_tile(index, "x", 0.1)
        _ = shard_map.split_tile(low, "y", 0.2)
        # low is now a quarter of the original tile; high the full-height
        # other half — their union is L-shaped.
        with pytest.raises(ValueError):
            shard_map.merge_tiles(low, high)

    def test_merge_rejects_different_owners(self):
        shard_map = partition_str(random_items(100), 4).shard_map
        with pytest.raises(ValueError):
            shard_map.merge_tiles(0, 1)

    def test_reassign_moves_ownership_and_counts(self):
        """The owner flips and the second holder clears; the counts stay
        with the trees, which a migration's copies and cleanup move."""
        shard_map = partition_str(random_items(200), 4).shard_map
        index, entry = shard_map.owned_tiles(2)[0]
        counts = shard_map.counts()
        shard_map.set_second(index, 0)
        old = shard_map.reassign_tile(index, 0)
        assert old == 2
        assert shard_map.tiles[index].owner == 0
        assert shard_map.tiles[index].second is None
        assert shard_map.counts() == counts
        # Center routing follows the new owner immediately.
        cx, cy = entry.mbr.center()
        assert shard_map.owner_of(Rect(cx, cy, cx, cy)) == 0
        shard_map.check_invariants()

    def test_reassign_rejects_bad_targets(self):
        shard_map = partition_str(random_items(50), 2).shard_map
        with pytest.raises(ValueError):
            shard_map.reassign_tile(0, 9)
        with pytest.raises(ValueError):
            shard_map.reassign_tile(0, shard_map.tiles[0].owner)

    def test_random_revision_sequences_keep_invariants(self):
        """Any split/merge sequence leaves the tiles disjoint and
        plane-covering (probe grid over every cut, on-cut points
        included)."""
        rng = random.Random(42)
        shard_map = partition_str(random_items(150, seed=3), 4).shard_map
        epoch = shard_map.epoch
        for _step in range(40):
            tiles = shard_map.tiles
            index = rng.randrange(len(tiles))
            rect = tiles[index].rect
            axis = rng.choice("xy")
            lo = rect.minx if axis == "x" else rect.miny
            hi = rect.maxx if axis == "x" else rect.maxy
            lo = max(lo, -2.0)
            hi = min(hi, 3.0)
            if hi - lo < 1e-6:
                continue
            cut = lo + rng.random() * (hi - lo)
            try:
                shard_map.split_tile(index, axis, cut)
            except ValueError:
                continue
            assert shard_map.epoch > epoch
            epoch = shard_map.epoch
            shard_map.check_invariants()

    def test_copy_is_independent(self):
        shard_map = partition_str(random_items(80), 4).shard_map
        clone = shard_map.copy()
        index, _entry = shard_map.owned_tiles(0)[0]
        shard_map.split_tile(index, "x", 0.01)
        assert clone.epoch == 0
        assert len(clone.tiles) == 4
        clone.check_invariants()

    def test_overlapping_tiles_fail_invariants(self):
        inf = float("inf")
        tile = Rect(-inf, -inf, inf, inf)
        overlapping = [
            TileEntry(Rect(-inf, -inf, 0.6, inf), 0),
            TileEntry(Rect(0.4, -inf, inf, inf), 1),
        ]
        shard_map = ShardMap(
            [ShardInfo(0, tile, None, 0), ShardInfo(1, tile, None, 0)],
            tiles=overlapping,
        )
        with pytest.raises(ValueError):
            shard_map.check_invariants()


class TestReadTargets:
    """Tile-granular read scatter: exact and pruned."""

    def test_matches_shards_for_on_static_plane(self):
        items = random_items(200)
        part = partition_str(items, 4)
        rng = random.Random(9)
        for _ in range(100):
            x, y = rng.random(), rng.random()
            q = Rect(x, y, min(x + 0.1, 1.0), min(y + 0.1, 1.0))
            assert (part.shard_map.read_targets(q)
                    == sorted(part.shard_map.shards_for(q)))

    def test_exact_superset_after_reassign(self):
        """After a tile hand-off, every item's own rect reaches the
        tile's new owner through the cover that travelled with the tile,
        and the old owner drops out of the tile's reads."""
        items = random_items(200)
        part = partition_str(items, 4)
        shard_map = part.shard_map
        index, _entry = shard_map.owned_tiles(3)[0]
        shard_map.reassign_tile(index, 0)
        for rect, data_id in part.assignments[3]:
            assert 0 in shard_map.read_targets(rect), data_id
        assert 3 not in shard_map.nonempty_shards()

    def test_prunes_empty_tiles(self):
        items = [(Rect(0.1 + i * 0.01, 0.1, 0.11 + i * 0.01, 0.11), i)
                 for i in range(64)]
        part = partition_str(items, 4)
        # All items sit in a tight cluster: a faraway query hits nothing.
        assert part.shard_map.read_targets(Rect(5.0, 5.0, 6.0, 6.0)) == []

    def test_single_shard_routes_everything(self):
        part = partition_str(random_items(30), 1)
        shard_map = part.shard_map
        assert shard_map.read_targets(Rect(0.0, 0.0, 1.0, 1.0)) == [0]
        assert shard_map.owner_of(Rect(-100.0, 3.0, -99.0, 4.0)) == 0

    def test_infinite_tile_edges_accept_everything(self):
        inf = float("inf")
        tile = Rect(-inf, -inf, inf, inf)
        assert tile_contains(tile, -1e300, 1e300)
        assert tile_contains(tile, 0.0, 0.0)

    def test_note_insert_grows_tile_cover(self):
        part = partition_str(random_items(100), 4)
        shard_map = part.shard_map
        outlier = Rect(0.0, 10.0, 0.1, 10.1)
        owner = shard_map.owner_of(outlier)
        shard_map.note_insert(owner, outlier)
        assert owner in shard_map.read_targets(outlier)

    def test_a_cover_grows_for_every_shard_that_acks_a_write(self):
        """A tile's cover holds every item whose centre lies in it,
        whichever shard acked the write, and an update grows it too."""
        part = partition_str(random_items(100), 4)
        shard_map = part.shard_map
        index, entry = shard_map.owned_tiles(0)[0]
        shard_map.set_second(index, 1)
        cx, cy = entry.mbr.center()
        # Centred in the tile, overhanging far beyond every item.
        shard_map.note_insert(1, Rect(cx, cy - 20.0, cx, cy + 20.0))
        assert shard_map.read_targets(Rect.point(cx, cy + 15.0)) == [0]
        shard_map.note_update(Rect(cx - 20.0, cy, cx + 20.0, cy))
        assert shard_map.read_targets(Rect.point(cx + 15.0, cy)) == [0]


class TestHolders:
    """Who applies a write: the owner of the centre's tile for an
    insert, the owner and then the second holder for a delete."""

    def test_static_plane_holder_is_the_owner(self):
        part = partition_str(random_items(100), 4)
        shard_map = part.shard_map
        for rect, _data_id in random_items(50, seed=5):
            assert shard_map.holders(rect) == [shard_map.owner_of(rect)]

    def test_second_holder_follows_the_owner_and_takes_no_reads(self):
        part = partition_str(random_items(100), 4)
        shard_map = part.shard_map
        index, entry = shard_map.owned_tiles(2)[0]
        cx, cy = entry.mbr.center()
        probe = Rect(cx, cy, cx, cy)
        shard_map.set_second(index, 3)
        assert shard_map.epoch == 0
        assert shard_map.holders(probe) == [2, 3]
        assert shard_map.owner_of(probe) == 2
        assert 3 not in shard_map.read_targets(probe)
        shard_map.reassign_tile(index, 3)
        assert shard_map.holders(probe) == [3]
        assert shard_map.read_targets(probe) == [3]

    def test_nonempty_shards_come_from_the_tile_covers(self):
        items = [(Rect(0.1 + i * 0.01, 0.1, 0.11 + i * 0.01, 0.11), i)
                 for i in range(8)]
        shard_map = partition_str(items, 4).shard_map
        index, _entry = shard_map.owned_tiles(1)[0]
        assert 1 in shard_map.nonempty_shards()
        shard_map.reassign_tile(index, 0)
        assert 1 not in shard_map.nonempty_shards()
