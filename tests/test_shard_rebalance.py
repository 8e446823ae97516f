"""The elastic shard plane: controller units and end-to-end
rebalancing runs.  (Its two chaos scenarios are pinned with every other
scenario in ``tests/test_runtime_parity.GOLDEN_CHAOS``.)

The end-to-end runs use a quadrant-concentrated fixed query set so one
shard starts hot and the controller has something real to do; they are
sized to stay in tier-1 (sub-second each).
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.base import (
    OP_DELETE, OP_INSERT, OP_SEARCH, OP_UPDATE, ClientStats, Request,
)
from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.cluster.deployment import Deployment
from repro.hw import Host
from repro.net import IB_100G
from repro.rtree.bulk import pack_leaves
from repro.rtree.geometry import Rect
from repro.rtree.rstar import MutationResult
from repro.server import RTreeServer
from repro.sim import Simulator
from repro.workloads import uniform_dataset
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.partition import tile_contains
from repro.shard.rebalance import RebalanceController, RebalanceStats
from repro.shard.verify import verify_routed_results

#: Aggressive-but-damped tuning the end-to-end tests run under.
TUNING = RebalanceConfig(interval=0.3e-3, split_ratio=1.5,
                         min_split_items=16, drain_s=0.1e-3)


def quadrant_queries(n=200, scale=0.03, seed=7):
    """Fixed query rects concentrated in the lower-left quadrant."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        cx, cy = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
        out.append(Rect(max(cx - scale / 2, 0.0), max(cy - scale / 2, 0.0),
                        min(cx + scale / 2, 1.0), min(cy + scale / 2, 1.0)))
    return out


def skewed_config(rebalance=TUNING, **overrides):
    defaults = dict(
        scheme="fast-messaging-event",
        workload_kind="queries",
        queries=quadrant_queries(),
        n_clients=4,
        requests_per_client=150,
        dataset_size=800,
        max_entries=16,
        server_cores=1,
        n_shards=4,
        seed=0,
        rebalance=rebalance,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMedianCut:
    def test_cuts_wider_axis_at_median(self):
        centers = [(0.0, 0.5), (0.2, 0.5), (0.8, 0.5), (1.0, 0.5)]
        index, axis, cut = RebalanceController._median_cut(3, centers)
        assert index == 3
        assert axis == "x"
        assert cut == pytest.approx(0.5)

    def test_falls_back_to_other_axis(self):
        # Every center shares x; only y admits a cut.
        centers = [(0.5, 0.1), (0.5, 0.2), (0.5, 0.8), (0.5, 0.9)]
        _index, axis, cut = RebalanceController._median_cut(0, centers)
        assert axis == "y"
        assert 0.2 < cut < 0.8

    def test_degenerate_median_uses_extent_midpoint(self):
        # Median pair ties at 0.9 but the extent still has a strict gap.
        centers = [(0.1, 0.0), (0.9, 0.0), (0.9, 0.0), (0.9, 0.0)]
        _index, axis, cut = RebalanceController._median_cut(0, centers)
        assert axis == "x"
        assert 0.1 < cut < 0.9

    def test_identical_centers_yield_none(self):
        centers = [(0.5, 0.5)] * 4
        assert RebalanceController._median_cut(0, centers) is None


class TestHalfMbrs:
    def test_exact_covers(self):
        items = [
            ((0.1, 0.1), Rect(0.05, 0.05, 0.15, 0.15)),
            ((0.2, 0.2), Rect(0.18, 0.18, 0.22, 0.22)),
            ((0.8, 0.8), Rect(0.75, 0.75, 0.85, 0.85)),
        ]
        low, high = RebalanceController._half_mbrs(items, "x", 0.5)
        assert (low.minx, low.maxx) == (0.05, 0.22)
        assert (high.minx, high.maxx) == (0.75, 0.85)

    def test_empty_half_is_none(self):
        items = [((0.1, 0.1), Rect(0.1, 0.1, 0.1, 0.1))]
        low, high = RebalanceController._half_mbrs(items, "y", 0.9)
        assert low is not None
        assert high is None


class TestStats:
    def test_snapshot_names_every_field(self):
        stats = RebalanceStats()
        snap = stats.snapshot()
        assert set(snap) == set(RebalanceStats.FIELDS)
        assert all(v == 0 for v in snap.values())
        stats.splits += 3
        assert stats.snapshot()["splits"] == 3


class TestEndToEnd:
    def test_skewed_run_splits_and_stays_exact(self):
        runner = ShardedExperimentRunner(skewed_config(),
                                         record_results=True)
        result = runner.run()
        extra = result.extra
        assert extra["rebalance_splits"] > 0
        assert extra["rebalance_migrations_completed"] > 0
        assert not runner.rebalancer.active_migrations
        assert extra["map_epoch"] > 0
        # The live map survived every revision structurally intact.
        runner.live_map.check_invariants()
        # Every recorded read matches the single-tree oracle, despite
        # queries racing splits, cut-overs, and drains.
        summary = verify_routed_results(runner)
        assert summary.ok, summary
        assert summary.checked == 600

    def test_straddling_queries_rescatter(self):
        """Queries in flight across an epoch cut re-scatter instead of
        returning partial results (deterministic at a fixed seed)."""
        runner = ShardedExperimentRunner(skewed_config(),
                                         record_results=True)
        result = runner.run()
        assert result.extra["epoch_rescatters"] > 0
        assert result.extra["rescattered_subqueries"] > 0
        summary = verify_routed_results(runner)
        assert summary.ok, summary

    def test_occupancy_tracks_migrations(self):
        """After migrations settle, the live map's counts agree with an
        exact per-shard leaf walk, and the plane actually moved items;
        every epoch bump was counted."""
        runner = ShardedExperimentRunner(skewed_config())
        result = runner.run()
        walk = runner.shard_occupancy()
        assert sum(walk) == runner.config.dataset_size
        assert walk != runner.initial_occupancy()
        assert runner.live_map.counts() == walk
        reported = [int(result.extra[f"shard{k}_items"]) for k in range(4)]
        assert reported == walk
        assert (int(runner.rebalance_stats.epoch_bumps)
                == runner.live_map.epoch)

    def test_rebalance_off_keeps_static_plane(self):
        runner = ShardedExperimentRunner(skewed_config(rebalance=None))
        result = runner.run()
        assert runner.rebalancer is None
        assert runner.live_map.epoch == 0
        assert ([(t.rect, t.owner) for t in runner.live_map.tiles]
                == [(t.rect, t.owner)
                    for t in runner.partition.shard_map.tiles])
        assert "rebalance_splits" not in result.extra
        assert runner.shard_occupancy() == runner.initial_occupancy()

    def test_disabled_config_behaves_as_none(self):
        # ``rebalance=None`` is the one spelling of off: no switch field
        # can leave a config block present but inert.
        fields = {f.name for f in dataclasses.fields(RebalanceConfig)}
        assert not fields & {"enabled", "merge_enabled", "warmup"}

    def test_same_seed_replays_identically(self):
        first = ShardedExperimentRunner(skewed_config())
        a = first.run()
        second = ShardedExperimentRunner(skewed_config())
        b = second.run()
        assert a.extra == b.extra
        assert a.throughput_kops == b.throughput_kops
        assert first.live_map.epoch == second.live_map.epoch


class TestHandOver:
    """One migration on an idle deployment (no background machinery):
    reads over the tile leave the source at the cut-over, and writes sent
    through one router race each phase of the migration."""

    SOURCE, DEST, OTHER = 0, 1, 2

    @staticmethod
    def idle():
        deployment = Deployment(skewed_config(), routed=True)
        controller = RebalanceController(
            deployment.sim, deployment.live_map, deployment.stacks, TUNING)
        return deployment, controller

    @staticmethod
    def migrate(deployment, controller, source, dest):
        """Split the source's busiest tile and start migrating its high
        half to ``dest``; returns that half's tile index."""
        index, axis, cut, low_mbr, high_mbr = controller._plan_split(source)
        _low, high = deployment.live_map.split_tile(
            index, axis, cut, low_mbr=low_mbr, high_mbr=high_mbr)
        deployment.sim.process(controller._migrate(high, source, dest))
        return high

    @staticmethod
    def run_until(deployment, done, step=1e-6):
        """Advance the deployment in ``step`` slices until ``done()``
        (bounded, so a migration that never finishes fails the test)."""
        sim = deployment.sim
        for _ in range(100_000):
            if done():
                return
            sim.run(until=sim.now + step)
        raise AssertionError("the migration did not get there")

    def cut_over(self, deployment, high, dest):
        """Run to the tile's cut-over."""
        live_map = deployment.live_map
        self.run_until(deployment,
                       lambda: live_map.tiles[high].owner == dest)

    def pending_probes(self, deployment, high, dest):
        """Centre points of moved items the source still holds, away
        from every tile cover of a shard other than ``dest``: only a
        cover the source kept for the moved items reaches them."""
        live_map = deployment.live_map
        tile = live_map.tiles[high].rect
        held = [rect for rect, _id in deployment.stacks[self.SOURCE]
                .server.tree.search(tile).matches
                if tile_contains(tile, *rect.center())]
        assert held, "the source's deletes have all landed already"
        others = [entry.mbr for entry in live_map.tiles
                  if entry.owner != dest and entry.mbr is not None]
        probes = [point for point in (Rect.point(*r.center()) for r in held)
                  if not any(mbr.intersects(point) for mbr in others)]
        assert probes
        return probes

    def test_a_tile_back_before_its_cleanup_is_carried_once(self):
        """A tile that leaves a shard and comes back before the first
        move's cleanup has run sits there twice (the old copies beside
        the returned ones); moving it on carries each item once."""
        deployment, controller = self.idle()
        high = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        self.cut_over(deployment, high, self.DEST)
        for source, dest in ((self.DEST, self.SOURCE),
                             (self.SOURCE, self.OTHER)):
            deployment.sim.process(controller._migrate(high, source, dest))
            self.cut_over(deployment, high, dest)
        self.run_until(deployment, lambda: all(
            end is not None for _start, end in controller.migration_windows))
        tile = deployment.live_map.tiles[high].rect
        held = [data_id for stack in deployment.stacks
                for rect, data_id in stack.server.tree.search(tile).matches
                if tile_contains(tile, *rect.center())]
        assert held
        assert sorted(held) == sorted(set(held))

    def test_drained_tile_reads_only_the_destination(self):
        """From the cut-over on, while the source still holds its copies
        of the tile, reads over them go to the destination alone."""
        deployment, controller = self.idle()
        high = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        self.cut_over(deployment, high, self.DEST)
        for probe in self.pending_probes(deployment, high, self.DEST):
            assert deployment.live_map.read_targets(probe) == [self.DEST]

    def test_second_cleanup_keeps_the_first_tile_handed_over(self):
        """A second migration from the same source, while the first
        tile's copies still wait there for their cleanup, leaves the
        first tile's reads with its destination alone."""
        deployment, controller = self.idle()
        first = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        # The source is the hot shard: its cleanup deletes queue behind
        # foreground work, so the first tile's copies are still there
        # when the second migration cuts over.
        deployment.stacks[self.SOURCE].server.host.cpu.charge(
            2e-3, lambda: None)
        self.cut_over(deployment, first, self.DEST)
        second = self.migrate(deployment, controller, self.SOURCE,
                              self.OTHER)
        self.cut_over(deployment, second, self.OTHER)
        for probe in self.pending_probes(deployment, first, self.DEST):
            assert deployment.live_map.read_targets(probe) == [self.DEST]

    def test_one_insert_op_and_one_delete_op_per_source_leaf_run(self):
        deployment, controller = self.idle()
        source, dest = self.SOURCE, self.DEST
        servers = [stack.server for stack in deployment.stacks]
        inserts = servers[dest].inserts_served
        deletes = servers[source].deletes_served
        high = self.migrate(deployment, controller, source, dest)
        runs = [run for _leaf, run in controller._tile_runs(
            source, deployment.live_map.tiles[high].rect)]
        assert max(map(len, runs)) > 1
        self.run_until(deployment, lambda: controller.migration_windows
                       and not controller.active_migrations)
        assert servers[dest].inserts_served - inserts == len(runs)
        assert servers[source].deletes_served - deletes == len(runs)
        assert controller.stats.items_migrated == sum(map(len, runs))

    def test_cycle_after_a_migration_reads_foreground_load_only(self):
        """A group counts once in ``requests_served`` and once in the
        controller's own-traffic tally, so an idle deployment reads no
        load after a whole migration."""
        deployment, controller = self.idle()
        assert controller._loads() == [0, 0, 0, 0]
        self.migrate(deployment, controller, self.SOURCE, self.DEST)
        self.run_until(deployment, lambda: controller.migration_windows
                       and not controller.active_migrations)
        assert controller._migration_ops[self.SOURCE] > 0
        assert controller._migration_ops[self.DEST] > 0
        assert controller._loads() == [0, 0, 0, 0]

    # -- writes racing the migration, through one router -----------------

    def router(self, deployment, index=0):
        host = Host(deployment.sim, f"client{index}", deployment.profile,
                    cores=2)
        return deployment.endpoint(index, host, ClientStats(), f"c{index}")

    def send(self, deployment, router, request, when=None):
        """Send ``request`` through ``router`` now; returns a dict that
        gets its PartialResult and the tile owner ``when(...)`` saw at
        the ack."""
        out = {}

        def client():
            result = yield from router.execute(request)
            out["result"] = result
            if when is not None:
                out["seen"] = when()

        deployment.sim.process(client())
        return out

    def settle(self, deployment, controller):
        """Run until the migration has finished; the counts in the map
        then equal the trees' occupancy."""
        self.run_until(deployment, lambda: controller.migration_windows
                       and not controller.active_migrations)
        assert deployment.live_map.counts() == deployment.shard_occupancy()

    @staticmethod
    def holders_of(deployment, data_id):
        """The shard of every copy of ``data_id``, one entry per copy."""
        plane = Rect(-1e9, -1e9, 1e9, 1e9)
        return [k for k, stack in enumerate(deployment.stacks)
                for held in stack.server.tree.search(plane).data_ids
                if held == data_id]

    def test_a_delete_acked_during_the_copy_stays_deleted(self):
        """The last item of the last copy run, deleted before that run
        is copied, is on no shard once the migration has settled."""
        deployment, controller = self.idle()
        router = self.router(deployment)
        high = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        live_map = deployment.live_map
        _leaf, last_run = controller._tile_runs(
            self.SOURCE, live_map.tiles[high].rect)[-1]
        rect, data_id = last_run[-1]
        out = self.send(deployment, router,
                         Request(OP_DELETE, rect, data_id=data_id),
                         when=lambda: live_map.tiles[high].owner)
        self.run_until(deployment, lambda: "result" in out)
        assert out["result"].results is True
        assert out["seen"] == self.SOURCE
        self.settle(deployment, controller)
        assert self.holders_of(deployment, data_id) == []

    def test_an_insert_before_the_cut_over_is_carried_once(self):
        """An insert the source takes after the tile snapshot is copied
        at the cut-over: a read sent after it finds the item, which
        ends up on the destination alone."""
        deployment, controller = self.idle()
        router = self.router(deployment)
        high = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        live_map = deployment.live_map
        cx, cy = live_map.tiles[high].mbr.center()
        rect, data_id = Rect(cx, cy, cx + 1e-4, cy + 1e-4), 10**6
        out = self.send(deployment, router,
                         Request(OP_INSERT, rect, data_id=data_id),
                         when=lambda: live_map.tiles[high].owner)
        self.run_until(deployment, lambda: "result" in out)
        assert out["result"].results is True
        assert out["seen"] == self.SOURCE
        self.cut_over(deployment, high, self.DEST)
        found = self.send(deployment, router, Request(OP_SEARCH, rect))
        self.run_until(deployment, lambda: "result" in found)
        assert data_id in [d for _r, d in found["result"].results]
        self.settle(deployment, controller)
        assert self.holders_of(deployment, data_id) == [self.DEST]

    def test_an_insert_after_the_cut_over_is_refused_and_resent(self):
        """An insert routed to the source that reaches it after the
        cut-over is refused there, re-sent to the destination, acked
        once, and lands on the destination alone."""
        deployment, controller = self.idle()
        router = self.router(deployment)
        high = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        live_map = deployment.live_map
        cx, cy = live_map.tiles[high].mbr.center()
        rect, data_id = Rect(cx, cy, cx + 1e-4, cy + 1e-4), 10**6
        # The source's thread for this router's connection is down, so
        # the insert waits in its ring until after the cut-over.
        fm = deployment.stacks[self.SOURCE].fm_server
        fm.crash_worker(fm.connections[0])
        out = self.send(deployment, router,
                         Request(OP_INSERT, rect, data_id=data_id))
        self.cut_over(deployment, high, self.DEST)
        assert "result" not in out
        fm.restart_worker(fm.connections[0])
        self.run_until(deployment, lambda: "result" in out)
        result = out["result"]
        assert result.results is True
        assert result.statuses == {self.DEST: "ok"}
        source = deployment.stacks[self.SOURCE].server
        assert source.writes_refused == 1
        assert deployment.stacks[self.DEST].server.writes_refused == 0
        self.settle(deployment, controller)
        assert self.holders_of(deployment, data_id) == [self.DEST]

    def test_updates_during_the_copy_end_as_one_moved_copy(self):
        """An in-tile update goes to the owner and then the second
        holder: an item updated before its run is copied and one updated
        after it each end up once on the destination, at the new
        rect."""
        deployment, controller = self.idle()
        high = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        live_map = deployment.live_map
        runs = controller._tile_runs(self.SOURCE, live_map.tiles[high].rect)
        dest_tree = deployment.stacks[self.DEST].server.tree
        first, last = runs[0][1][0], runs[-1][1][-1]
        outs, moved = [], {}
        for index, (rect, data_id) in enumerate((last, first)):
            if (rect, data_id) == first:
                self.run_until(deployment, lambda: data_id in dest_tree
                               .search(rect).data_ids)
            assert live_map.tiles[high].owner == self.SOURCE
            new_rect = Rect(rect.minx, rect.miny,
                            rect.minx + 1e-5, rect.miny + 1e-5)
            outs.append(self.send(
                deployment, self.router(deployment, index),
                Request(OP_UPDATE, rect, data_id=data_id,
                        new_rect=new_rect)))
            moved[data_id] = new_rect
        self.settle(deployment, controller)
        assert [out["result"].results for out in outs] == [True, True]
        for data_id, new_rect in moved.items():
            assert self.holders_of(deployment, data_id) == [self.DEST]
            assert data_id in dest_tree.search(new_rect).data_ids

    def test_an_update_straddling_the_cut_over_is_applied_once(self):
        """An update the source applied before the cut-over and the
        destination's copy takes after it: the cut-over compares ids,
        so it does not copy the new rect beside the old one."""
        deployment, controller = self.idle()
        router = self.router(deployment)
        high = self.migrate(deployment, controller, self.SOURCE, self.DEST)
        live_map = deployment.live_map
        rect, data_id = controller._tile_runs(
            self.SOURCE, live_map.tiles[high].rect)[0][1][0]
        dest_tree = deployment.stacks[self.DEST].server.tree
        self.run_until(deployment,
                       lambda: data_id in dest_tree.search(rect).data_ids)
        # The destination's thread for this router's connection is down,
        # so the update reaches the copy only after the cut-over.
        fm = deployment.stacks[self.DEST].fm_server
        fm.crash_worker(fm.connections[0])
        new_rect = Rect(rect.minx, rect.miny,
                        rect.minx + 1e-5, rect.miny + 1e-5)
        out = self.send(deployment, router, Request(
            OP_UPDATE, rect, data_id=data_id, new_rect=new_rect))
        self.cut_over(deployment, high, self.DEST)
        fm.restart_worker(fm.connections[0])
        self.settle(deployment, controller)
        assert out["result"].results is True
        assert self.holders_of(deployment, data_id) == [self.DEST]
        assert data_id in dest_tree.search(new_rect).data_ids

    def test_an_update_across_tiles_is_rejected(self):
        deployment, _controller = self.idle()
        router = self.router(deployment)
        rect, data_id = deployment.dataset[0]
        live_map = deployment.live_map
        far = next(r for r, _d in deployment.dataset
                   if live_map.tile_index(r) != live_map.tile_index(rect))
        with pytest.raises(ValueError, match="another tile"):
            next(router.execute(Request(OP_UPDATE, rect, data_id=data_id,
                                        new_rect=far)))


class TestGroupPlan:
    """A migration run that takes the per-item path, as one server op:
    the cost rule of a search (one parse, one visit per distinct node)
    plus the per-item write charges, and the tree the one-by-one calls
    would leave.  (Whole-leaf grafts and unlinks: TestGraftAndUnlink.)"""

    #: Twenty clustered items: they share leaves and split some.
    RUN = [(Rect(0.3 + 0.001 * i, 0.3, 0.3005 + 0.001 * i, 0.3005),
            50_000 + i) for i in range(20)]

    @staticmethod
    def server():
        sim = Simulator()
        host = Host(sim, "server", IB_100G, cores=1)
        return RTreeServer(sim, host, uniform_dataset(300, seed=3),
                           max_entries=16)

    @staticmethod
    def dump(node):
        """The subtree as nested (chunk id, entries) tuples."""
        if node.is_leaf:
            return (node.chunk_id, [(e.rect, e.data_id)
                                    for e in node.entries])
        return (node.chunk_id, [(e.rect, TestGroupPlan.dump(e.child))
                                for e in node.entries])

    def check(self, plan, server, reference, apply, items):
        """Apply ``items`` singly to ``reference`` through ``apply`` and
        hold ``plan`` (the group op on ``server``) to the result."""
        visited, mutated = set(), []
        visits = splits = reinserted = 0
        for rect, data_id in items:
            result = apply(rect, data_id, MutationResult(visited=set()))
            visited |= result.visited
            visits += result.nodes_visited
            splits += result.splits
            reinserted += result.reinserted_entries
            mutated += [n for n in result.mutated_nodes if n not in mutated]
        assert len(visited) < visits  # the shared nodes are charged once
        costs = server.costs
        expected = (costs.request_parse
                    + len(visited) * costs.node_visit
                    + len(items) * costs.insert_write
                    + splits * costs.split
                    + reinserted * costs.reinsert_entry)
        assert plan.cost + plan.window == pytest.approx(expected)
        assert plan.window == pytest.approx(
            costs.write_window(len(mutated)))
        assert plan.write
        assert sorted(set(plan.chunks)) == sorted(
            {n.chunk_id for n in mutated})
        assert self.dump(server.tree.root) == self.dump(reference.root)
        assert server.tree.size == reference.size
        server.tree.validate()
        return splits

    def test_insert_group(self):
        """A run below ``min_entries`` is inserted item by item."""
        server, reference = self.server(), self.server()
        run = self.RUN[:5]
        assert len(run) < server.tree.min_entries
        plan = server.plan_insert_group(run)
        assert plan.result is True
        assert plan.counter == "inserts_served"
        splits = self.check(plan, server, reference.tree,
                            reference.tree.insert, run)
        assert splits > 0

    def test_delete_group(self):
        server, reference = self.server(), self.server()
        for target in (server, reference):
            for rect, data_id in self.RUN:
                target.tree.insert(rect, data_id)
        run = self.RUN + [(Rect(0.9, 0.9, 0.91, 0.91), 1)]  # not held
        plan = server.plan_delete_group(run)
        assert plan.result == len(self.RUN)
        assert plan.counter == "deletes_served"
        self.check(plan, server, reference.tree, reference.tree.delete, run)


class TestGraftAndUnlink:
    """Whole-leaf group ops against a per-item reference.  A copy run of
    at least ``min_entries`` items is STR-packed and grafted at level 1,
    a run that is still one whole live non-root leaf is unlinked, and
    every other run takes the per-item path.  A twin server, built the
    same way and driven through the tree methods the rule names, holds
    the exact structure and the accounting each op must produce."""

    #: Run lengths with ``max_entries=16`` (``min_entries`` 6).
    SIZES = {"below-min": (1, 5), "one-node": (6, 16), "longer": (17, 40)}

    @staticmethod
    def server(items):
        sim = Simulator()
        host = Host(sim, "server", IB_100G, cores=1)
        return RTreeServer(sim, host, items, max_entries=16)

    @staticmethod
    def contents(tree):
        return set(tree.search(Rect(-1.0, -1.0, 2.0, 2.0)).matches)

    def expect(self, plan, server, result):
        """``plan`` is charged by the rule: one parse, one visit per
        distinct node, ``insert_write`` only per item inserted or
        deleted singly, splits and reinserts as they occurred, and the
        write window per node written."""
        costs = server.costs
        expected = (costs.request_parse
                    + len(result.visited) * costs.node_visit
                    + result.items * costs.insert_write
                    + result.splits * costs.split
                    + result.reinserted_entries * costs.reinsert_entry)
        assert plan.cost + plan.window == pytest.approx(expected)
        assert plan.window == pytest.approx(
            costs.write_window(len(result.mutated_nodes)))
        assert sorted(set(plan.chunks)) == sorted(
            {n.chunk_id for n in result.mutated_nodes})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 300), st.integers(0, 10**6), st.data())
    def test_group_ops_match_the_per_item_reference(self, n, seed, data):
        items = uniform_dataset(n, seed=seed)
        server, twin = self.server(items), self.server(items)
        tree, shadow = server.tree, twin.tree
        reference = set(items)
        rng = random.Random(seed)
        next_id = 10**6
        for _ in range(data.draw(st.integers(1, 4), label="ops")):
            leaves = sorted(chunk for chunk, node in tree.nodes.items()
                            if node.is_leaf and node.entries)
            kind = data.draw(st.sampled_from(
                ["insert", "whole", "partial", "stale", "no-leaf"]
                if reference else ["insert"]), label="kind")
            result = MutationResult(items=0, visited=set())
            if kind == "insert":
                low, high = self.SIZES[data.draw(
                    st.sampled_from(sorted(self.SIZES)), label="size")]
                cx, cy = rng.random(), rng.random()
                run = []
                for _ in range(rng.randint(low, high)):
                    x = cx + rng.uniform(-0.02, 0.02)
                    y = cy + rng.uniform(-0.02, 0.02)
                    run.append((Rect(x, y, x + 0.001, y + 0.001), next_id))
                    next_id += 1
                plan = server.plan_insert_group(run)
                assert plan.result is True
                if len(run) >= shadow.min_entries and not shadow.root.is_leaf:
                    for leaf in pack_leaves(shadow, run):
                        shadow.graft_leaf(leaf, result)
                    if len(run) <= shadow.max_entries:
                        assert any(tree.leaf_holding(chunk, run)
                                   for chunk in tree.nodes)
                else:
                    result.items = len(run)
                    for rect, data_id in run:
                        shadow.insert(rect, data_id, result)
                reference |= set(run)
            else:
                chunk = data.draw(st.sampled_from(leaves), label="leaf")
                held = [(e.rect, e.data_id)
                        for e in tree.nodes[chunk].entries]
                leaf = chunk
                if kind == "whole":
                    run = rng.sample(held, len(held))
                elif kind == "partial":
                    run = held[:rng.randint(0, len(held) - 1)] or held[:1]
                    leaf = chunk if len(run) < len(held) else None
                elif kind == "stale":
                    others = [c for c in leaves if c != chunk]
                    leaf = rng.choice(others) if others else None
                    run = held
                else:
                    leaf = None
                    run = rng.sample(sorted(reference, key=repr),
                                     min(len(reference), rng.randint(1, 20)))
                    run.append((Rect(5.0, 5.0, 5.1, 5.1), -1))  # not held
                unlink = (kind == "whole"
                          and shadow.nodes[chunk] is not shadow.root)
                path = []
                node = shadow.nodes[chunk]
                while node is not None:
                    path.append(node)
                    node = node.parent
                plan = server.plan_delete_group(run, leaf)
                assert plan.result == len(reference & set(run))
                if unlink:
                    shadow.unlink_leaf(shadow.nodes[chunk], result)
                    assert set(path) <= result.visited
                    assert chunk not in tree.nodes
                else:
                    result.items = len(run)
                    for rect, data_id in run:
                        shadow.delete(rect, data_id, result)
                reference -= set(run)
            self.expect(plan, server, result)
            assert TestGroupPlan.dump(tree.root) == TestGroupPlan.dump(
                shadow.root)
            tree.validate()
            assert tree.size == len(reference)
            assert self.contents(tree) == reference
            for _ in range(3):
                x, y = rng.random(), rng.random()
                query = Rect(x, y, x + 0.1, y + 0.1)
                assert set(tree.search(query).matches) == {
                    item for item in reference if item[0].intersects(query)}

    def test_an_insert_into_the_source_leaf_forces_the_per_item_path(self):
        """A foreground insert that lands in a source leaf between the
        copy and the cleanup changes the leaf: the cleanup deletes the
        run item by item and the raced item survives."""
        server = self.server(uniform_dataset(300, seed=3))
        tree = server.tree
        leaf = next(node for node in tree.nodes.values()
                    if node.is_leaf and node.count < tree.max_entries)
        run = [(e.rect, e.data_id) for e in leaf.entries]
        raced = (leaf.entries[0].rect, 10**6)
        tree.insert(*raced)
        assert raced in [(e.rect, e.data_id) for e in leaf.entries]
        plan = server.plan_delete_group(run, leaf.chunk_id)
        assert plan.result == len(run)
        assert self.contents(tree) == (
            set(uniform_dataset(300, seed=3)) - set(run)) | {raced}
        tree.validate()
