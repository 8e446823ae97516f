"""The rebalance controller: online split, merge, and live migration.

PR 4's STR plane is computed once at build time, so a hot region (the
skew workloads, ``hurricane_monitor``) melts one shard while the rest
idle.  This controller closes the loop: it periodically reads each
shard's served-request delta (the same per-stack accounting the
heartbeat/obs plumbing exposes), and when one shard runs hot it splits
that shard's hottest tile at the recent-query-centre median (item-centre
median when no load sample exists) and migrates one half to the coldest
shard — as *simulated background work* that competes with foreground
traffic for the very server CPUs it is trying to relieve.

Migration follows an epoch-cut protocol over the deployment's one shard
map (diagrammed in docs/architecture.md).  Every server checks its
writes against that map, which the controller revises in one instant —
the model assumes it reaches every server's tile table then:

1. **copy** — the tile names the destination its *second holder*:
   deletes and updates go to the owner and then to it, reads do not.
   Every moving item is inserted into the destination tree while the
   source keeps serving it, one server op per run of items that share a
   source leaf (a run of at least ``min_entries`` items is grafted as a
   packed leaf).  Each run is copied only after checking, with no yield
   between the check and the plan, that its pairs are still on the
   source, so a delete acked before its run is copied stays deleted.
   An item is in >= 1 tree at every instant; transiently in two, which
   the router's exactly-once dedup merge absorbs.
2. **cut-over** — in one instant the source's tile items whose ids
   the destination lacks (inserts and updates that landed on the source
   after the snapshot) are copied, and the tile's owner flips with its
   second holder cleared (one epoch bump).  From then on the source
   refuses the tile's writes and leaves its read set; queries
   straddling the instant detect the bump at gather time and re-scatter
   (:meth:`~repro.shard.router.ScatterGatherRouter._execute_read`).
3. **cleanup** — after ``drain_s`` of simulated time (covering
   in-flight queries that scattered against the old plane) the source's
   copies — its tile contents at the cut-over, which no write can
   change after it — are deleted, one server op per run (a run that is
   still its whole source leaf unlinks that leaf).  Cleanup runs as a
   detached background process: its deletes queue behind the hot
   shard's foreground traffic and must not freeze the control loop.

Writes racing a migration stay exactly-once.  An insert that reaches the
source before the cut-over is carried by the cut-over's copy; one that
reaches it after is refused and re-sent by the router to the new
owner.  A delete reaches the owner first and the second holder after
it, so a run copied after the owner's delete no longer holds the pair
and one copied before it is deleted at the second holder.  The counts
in the map follow the trees: the controller adds each copy to the
destination's and takes each cleanup from the source's.

Determinism contract: the controller draws no randomness — every
decision is a pure function of (map state, served-request counters, sim
time) — so a rebalancing run replays bit-identically at a fixed seed and
the two rebalance chaos scenarios can pin fingerprints.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cluster.config import RebalanceConfig
from ..rtree.geometry import Rect
from ..server.plan import execute_plan
from ..sim.kernel import Simulator
from .partition import ShardMap, tile_contains

__all__ = ["RebalanceConfig", "RebalanceStats", "RebalanceController"]

#: The whole plane: a search over it visits every leaf entry.
_PLANE = Rect(-float("inf"), -float("inf"), float("inf"), float("inf"))

#: Items that shared a source leaf when a tile was searched, in search
#: order, with that leaf's chunk id when they were the whole leaf (else
#: None): a migration copies and deletes each run as one server op.
Run = Tuple[Optional[int], List[Tuple[Rect, int]]]


class RebalanceStats:
    """Controller accounting, registered as ``rebalance.*`` metrics."""

    FIELDS = (
        "cycles", "splits", "merges", "tiles_reassigned",
        "migrations_started", "migrations_completed", "items_migrated",
        "epoch_bumps",
    )

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


class RebalanceController:
    """Watches per-shard load and drives split/merge/migration.

    ``stacks[k]`` is shard ``k``'s :class:`~repro.runtime.stack.ServerStack`
    and ``shard_map`` is the *live* map every router and server shares
    (a routed deployment has exactly one).
    """

    def __init__(self, sim: Simulator, shard_map: ShardMap, stacks: List,
                 config: RebalanceConfig,
                 stats: Optional[RebalanceStats] = None):
        self.sim = sim
        self.shard_map = shard_map
        self.stacks = stacks
        self.config = config
        self.stats = stats or RebalanceStats()
        k = shard_map.n_shards
        self._last_served = [0] * k
        #: EWMA of per-cycle served deltas; the control signal.
        self._ewma = [0.0] * k
        #: True while a migration's copy phase is in flight (between
        #: split and cut-over); gates further splits.
        self._pre_cutover = False
        #: Migration-induced server ops since the last load read; the
        #: controller subtracts its own traffic so a migration cannot
        #: masquerade as foreground heat and trigger a follow-up split.
        self._migration_ops = [0] * k
        #: (start, end) sim-time windows of completed/active migrations
        #: (end None while active) — the racing-writes scenario checks
        #: foreground writes landed inside one.
        self.migration_windows: List[List[Optional[float]]] = []
        self.process = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.process = self.sim.process(self._run(), name="rebalancer")

    def stop(self) -> None:
        """Start no further cycles.  A migration already in flight keeps
        running to completion (``Deployment.settle`` waits on it after the
        foreground drivers finish, so no run ends mid-copy)."""
        self._stopped = True

    @property
    def active_migrations(self) -> bool:
        return any(end is None for _start, end in self.migration_windows)

    def _run(self):
        while not self._stopped:
            yield self.sim.timeout(self.config.interval)
            if self._stopped:
                return
            yield from self._cycle()

    # -- observation -------------------------------------------------------

    def _loads(self) -> List[int]:
        """Per-shard served-request deltas since the previous cycle,
        with the controller's own migration traffic subtracted."""
        served = [s.server.requests_served for s in self.stacks]
        loads = [
            max(0, served[k] - self._last_served[k]
                - self._migration_ops[k])
            for k in range(len(self.stacks))
        ]
        self._last_served = served
        self._migration_ops = [0] * len(self.stacks)
        return loads

    def _shard_items(self, shard_id: int) -> List[Tuple[Rect, int]]:
        """The shard tree's current contents, in search (DFS) order:
        one unbounded search, so copies a cleanup has not deleted yet
        are listed too."""
        return list(self.stacks[shard_id].server.tree.search(_PLANE).matches)

    def _tile_runs(self, shard_id: int, tile_rect: Rect) -> List[Run]:
        """The shard's items whose centres lie in ``tile_rect``: a search
        over the tile (an item's centre lies in its rect, so it
        intersects every tile containing that centre), in the order
        :meth:`_shard_items` lists them, cut into one run per leaf."""
        tree = self.stacks[shard_id].server.tree
        runs = []
        for leaf, matches in tree.search_runs(tile_rect):
            run = [item for item in matches
                   if tile_contains(tile_rect, *item[0].center())]
            if run:
                whole = len(run) == leaf.count
                runs.append((leaf.chunk_id if whole else None, run))
        return runs

    # -- the control loop --------------------------------------------------

    def _cycle(self):
        cfg = self.config
        stats = self.stats
        stats.cycles += 1
        shard_map = self.shard_map
        k = shard_map.n_shards
        raw = self._loads()
        # EWMA-smoothed loads: one interval's served delta is a handful
        # of requests, and deciding on raw deltas makes the controller
        # chase noise (observed: split storms re-cutting a region before
        # the previous cut-over's load shift even lands).
        self._ewma = [
            0.5 * e + 0.5 * load for e, load in zip(self._ewma, raw)
        ]
        loads = self._ewma
        if k < 2:
            return
        if self._pre_cutover:
            # One *copy* at a time: load only shifts at cut-over, so a
            # second split before the current one's cut-over would chase
            # heat the plane is already about to move.  (Cleanups may
            # still be draining — they run detached and the EWMA damps
            # their residual heat.)
            return
        total = sum(loads)
        if total == 0:
            return
        mean = total / k
        hot = max(range(k), key=lambda s: (loads[s], -s))
        cold = min(range(k), key=lambda s: (loads[s], s))
        if (hot == cold or loads[hot] < cfg.split_ratio * mean
                or len(shard_map.tiles) >= cfg.max_tiles
                or shard_map[hot].count < cfg.min_split_items):
            self._maybe_merge()
            return

        plan = self._plan_split(hot)
        if plan is None:
            self._maybe_merge()
            return
        tile_index, axis, cut, low_mbr, high_mbr = plan
        _low, high = shard_map.split_tile(tile_index, axis, cut,
                                          low_mbr=low_mbr,
                                          high_mbr=high_mbr)
        stats.splits += 1
        stats.epoch_bumps += 1
        yield from self._migrate(high, hot, cold)
        self._maybe_merge()

    def _plan_split(self, hot: int):
        """Pick ``(tile_index, axis, cut, low_mbr, high_mbr)`` for the
        hot shard.

        The goal is to halve *load*, not item count: the planner prefers
        the owned tile drawing the most recent query traffic (the
        server's :data:`recent_queries` ring) and cuts at the
        query-centre median, so each side inherits half the observed
        load.  When no load sample exists — offload schemes serve reads
        client-side, or the shard is write-only — it falls back to the
        densest tile cut at the item-centre median.  The trailing MBRs
        are the halves' exact content covers (computed from the same
        scan), so the split tightens routing instead of inheriting the
        parent's box.  None when no valid cut exists."""
        items = self._shard_items(hot)
        if len(items) < self.config.min_split_items:
            return None
        q_centers = [
            q.center()
            for q in getattr(self.stacks[hot].server, "recent_queries", ())
        ]
        owned = self.shard_map.owned_tiles(hot)
        centred = [(rect.center(), rect) for rect, _id in items]
        best = None
        for index, entry in owned:
            contained_items = [
                (center, rect) for center, rect in centred
                if tile_contains(entry.rect, *center)
            ]
            contained_qs = [
                c for c in q_centers if tile_contains(entry.rect, *c)
            ]
            score = (len(contained_qs), len(contained_items))
            if best is None or score > best[0]:
                best = (score, index, contained_items, contained_qs)
        if best is None:
            return None
        _score, index, tile_items, query_centers = best
        # Load median first (splits traffic in half); item median keeps
        # the old density-balancing behaviour as the fallback.
        candidates = []
        if len(query_centers) >= 2:
            candidates.append(query_centers)
        if len(tile_items) >= self.config.min_split_items:
            candidates.append([center for center, _rect in tile_items])
        for centers in candidates:
            plan = self._median_cut(index, centers)
            if plan is not None:
                _index, axis, cut = plan
                low_mbr, high_mbr = self._half_mbrs(tile_items, axis, cut)
                return index, axis, cut, low_mbr, high_mbr
        return None

    @staticmethod
    def _half_mbrs(tile_items, axis: str, cut: float):
        """The exact content MBRs of a tile's two halves under a cut."""
        low_mbr: Optional[Rect] = None
        high_mbr: Optional[Rect] = None
        coord = 0 if axis == "x" else 1
        for center, rect in tile_items:
            if center[coord] < cut:
                low_mbr = rect if low_mbr is None else low_mbr.union(rect)
            else:
                high_mbr = rect if high_mbr is None else high_mbr.union(rect)
        return low_mbr, high_mbr

    @staticmethod
    def _median_cut(index: int, centers):
        """The median cut of ``centers`` along the wider-extent axis;
        None when every candidate cut is degenerate."""
        xs = sorted(c[0] for c in centers)
        ys = sorted(c[1] for c in centers)
        axes = [("x", xs), ("y", ys)]
        # Wider centre extent first; fall back to the other axis when
        # every centre shares the preferred coordinate.
        axes.sort(key=lambda a: a[1][-1] - a[1][0], reverse=True)
        for axis, coords in axes:
            mid = len(coords) // 2
            cut = (coords[mid - 1] + coords[mid]) / 2.0
            if coords[mid - 1] < cut < coords[mid]:
                return index, axis, cut
            # Degenerate median (ties); any strict gap still works.
            lo, hi = coords[0], coords[-1]
            if lo < hi:
                cut = (lo + hi) / 2.0
                if lo < cut < hi:
                    return index, axis, cut
        return None

    # -- migration (the epoch-cut protocol) --------------------------------

    def _migrate(self, tile_index: int, source: int, dest: int):
        shard_map = self.shard_map
        stats = self.stats
        tile_rect = shard_map.tiles[tile_index].rect
        runs = self._tile_runs(source, tile_rect)
        if not runs:
            # Nothing to carry: flip the (empty) tile so future writes
            # land on the cold shard.
            shard_map.reassign_tile(tile_index, dest)
            stats.tiles_reassigned += 1
            stats.epoch_bumps += 1
            return

        stats.migrations_started += 1
        window = [self.sim.now, None]
        self.migration_windows.append(window)
        source_tree = self.stacks[source].server.tree
        dest_server = self.stacks[dest].server

        # Phase 1 — copy.  The source keeps serving every moved item;
        # the transient two-tree overlap is absorbed by the routers'
        # exactly-once dedup merge.  Each run is one real CPU-charged,
        # lock-guarded server op: migration *competes* with foreground
        # traffic on the destination.
        shard_map.set_second(tile_index, dest)
        self._pre_cutover = True
        try:
            for _leaf, run in runs:
                present = set(source_tree.search(
                    Rect.union_of(rect for rect, _id in run)).matches)
                held = [item for item in run if item in present]
                if held:
                    yield from self._copy(dest, held)

            # Phase 2 — cut-over, in one instant: copy what the source
            # took in after the snapshot, then flip the owner.
            runs = self._tile_runs(source, tile_rect)
            copied = set(dest_server.tree.search(tile_rect).data_ids)
            missing = [item for _leaf, run in runs for item in run
                       if item[1] not in copied]
            catch_up = self._copy(dest, missing) if missing else None
            shard_map.reassign_tile(tile_index, dest)
            stats.tiles_reassigned += 1
            stats.epoch_bumps += 1
        finally:
            self._pre_cutover = False
        if catch_up is not None:
            yield from catch_up

        # Phase 3 — drain, then delete from the source — detached as its
        # own process.  The source is by construction the *hot* shard,
        # so its cleanup deletes queue behind saturated foreground
        # traffic; serializing the control loop on them would freeze
        # further splits for the whole cleanup (observed: tens of
        # milliseconds at one core).  The migration window stays open
        # until the cleanup finishes, so ``Deployment.settle`` still
        # guarantees no run ends with an item on two shards.  Cleanups
        # from successive migrations cannot collide: each deletes only
        # items whose centres lie in its own (disjoint) migrated tile.
        self.sim.process(
            self._cleanup(source, runs, window),
            name=f"rebalance-cleanup-{source}",
        )

    def _copy(self, dest: int, items: List[Tuple[Rect, int]]):
        """Insert ``items`` into the destination as one server op.  The
        tree takes them when this is called; the returned generator
        spends the op's locks and CPU."""
        plan = self.stacks[dest].server.plan_insert_group(items)
        self.shard_map.add_count(dest, len(items))
        return self._spend(dest, plan)

    def _spend(self, shard_id: int, plan):
        """Run a migration op's plan on its shard, counted as the
        controller's own traffic."""
        yield from execute_plan(self.stacks[shard_id].server, plan)
        self._migration_ops[shard_id] += 1

    def _cleanup(self, source: int, runs: List[Run], window):
        """Drain, then delete the tile's items from the source tree, one
        op per run.

        The drain keeps the source exact for queries that scattered
        before the cut-over; the epoch-aware re-scatter is the net under
        any straggler."""
        stats = self.stats
        source_server = self.stacks[source].server
        if self.config.drain_s > 0:
            yield self.sim.timeout(self.config.drain_s)
        for leaf, run in runs:
            plan = source_server.plan_delete_group(run, leaf)
            self.shard_map.add_count(source, -plan.result)
            yield from self._spend(source, plan)
            stats.items_migrated += len(run)
        stats.migrations_completed += 1
        window[1] = self.sim.now

    # -- merging -----------------------------------------------------------

    def _maybe_merge(self) -> bool:
        """Merge one pair of adjacent same-owner tiles, if any (keeps the
        routing table from growing monotonically as load moves around)."""
        tiles = self.shard_map.tiles
        for i in range(len(tiles)):
            for j in range(i + 1, len(tiles)):
                if tiles[i].owner != tiles[j].owner:
                    continue
                try:
                    self.shard_map.merge_tiles(i, j)
                except ValueError:
                    continue
                self.stats.merges += 1
                self.stats.epoch_bumps += 1
                return True
        return False
