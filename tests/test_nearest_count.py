"""kNN and count-only queries: tree level, server level, all transports."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.client import ClientStats, OffloadEngine
from repro.client.base import OP_COUNT, OP_NEAREST, Request
from repro.msg import Heartbeat
from repro.client.fm_client import FmSession
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import RStarTree, Rect, bulk_load
from repro.server import EVENT, FastMessagingServer, RTreeServer
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.transport import connect
from repro.workloads import uniform_dataset


def dist2(rect, x, y):
    dx = max(rect.minx - x, 0.0, x - rect.maxx)
    dy = max(rect.miny - y, 0.0, y - rect.maxy)
    return dx * dx + dy * dy


def brute_nearest(items, x, y, k):
    return sorted((dist2(r, x, y), i) for r, i in items)[:k]


class TestGeometryMinDist:
    def test_point_inside_is_zero(self):
        assert Rect(0, 0, 1, 1).min_dist2_point(0.5, 0.5) == 0.0

    def test_point_on_boundary_is_zero(self):
        assert Rect(0, 0, 1, 1).min_dist2_point(1.0, 0.3) == 0.0

    def test_axis_aligned_distance(self):
        assert Rect(0, 0, 1, 1).min_dist2_point(2.0, 0.5) == pytest.approx(1.0)

    def test_corner_distance(self):
        assert Rect(0, 0, 1, 1).min_dist2_point(2.0, 2.0) == pytest.approx(2.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2,
                                                        allow_nan=False))
    def test_lower_bounds_every_contained_point(self, x, y):
        rect = Rect(0.2, 0.3, 0.8, 0.9)
        # distance to the rect's nearest point equals min over corners/edges
        nearest_x = min(max(x, rect.minx), rect.maxx)
        nearest_y = min(max(y, rect.miny), rect.maxy)
        expected = (x - nearest_x) ** 2 + (y - nearest_y) ** 2
        assert rect.min_dist2_point(x, y) == pytest.approx(expected)


class TestTreeNearest:
    def _tree_and_items(self, n=600, seed=1, max_entries=8):
        items = uniform_dataset(n, seed=seed)
        tree = bulk_load(items, max_entries=max_entries)
        return tree, items

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_brute_force(self, k):
        tree, items = self._tree_and_items()
        rng = random.Random(2)
        for _ in range(20):
            x, y = rng.random(), rng.random()
            got = tree.nearest(x, y, k)
            expected = brute_nearest(items, x, y, k)
            got_dists = [dist2(r, x, y) for r, _i in got.matches]
            assert len(got.matches) == k
            assert got_dists == sorted(got_dists)
            for g, e in zip(got_dists, (d for d, _ in expected)):
                assert g == pytest.approx(e)

    def test_k_larger_than_size(self):
        tree, items = self._tree_and_items(n=10)
        got = tree.nearest(0.5, 0.5, k=50)
        assert len(got.matches) == 10

    def test_k_validation(self):
        tree, _ = self._tree_and_items(n=10)
        with pytest.raises(ValueError):
            tree.nearest(0.5, 0.5, k=0)

    def test_empty_tree(self):
        tree = RStarTree(max_entries=8)
        assert tree.nearest(0.5, 0.5, k=3).matches == []

    def test_prunes_far_subtrees(self):
        tree, _ = self._tree_and_items(n=4000, max_entries=32)
        got = tree.nearest(0.5, 0.5, k=1)
        assert got.nodes_visited < tree.node_count / 5

    def test_nearest_on_point_hit(self):
        tree = RStarTree(max_entries=8)
        tree.insert(Rect(0.5, 0.5, 0.6, 0.6), 1)
        tree.insert(Rect(0.9, 0.9, 0.95, 0.95), 2)
        got = tree.nearest(0.55, 0.55, k=1)
        assert got.matches[0][1] == 1


def make_stack(n_items=800):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(n_items, seed=3)
    server = RTreeServer(sim, server_host, items, max_entries=16)
    fm_server = FastMessagingServer(sim, server, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = FmSession(sim, conn, 0, stats)
    engine = OffloadEngine(sim, conn.client_end,
                           server.offload_descriptor(), server.costs, stats)
    return sim, server, fm, engine, stats, items


class TestServerAndTransports:
    def test_fm_nearest_round_trip(self):
        sim, server, fm, engine, stats, items = make_stack()

        def client():
            matches = yield from fm.execute(
                Request(OP_NEAREST, Rect.point(0.5, 0.5), k=7))
            return matches

        p = sim.process(client())
        sim.run()
        expected = brute_nearest(items, 0.5, 0.5, 7)
        got_dists = [dist2(r, 0.5, 0.5) for r, _i in p.value]
        assert len(p.value) == 7
        for g, (e, _i) in zip(got_dists, expected):
            assert g == pytest.approx(e)

    def test_fm_count_round_trip(self):
        sim, server, fm, engine, stats, items = make_stack()
        query = Rect(0.2, 0.2, 0.6, 0.6)

        def client():
            count = yield from fm.execute(Request(OP_COUNT, query))
            return count

        p = sim.process(client())
        sim.run()
        assert p.value == server.tree.search(query).count

    def test_count_response_is_tiny(self):
        """The count path must not ship the matching rectangles."""
        sim, server, fm, engine, stats, items = make_stack()
        conn = fm.conn
        query = Rect(0, 0, 1, 1)  # all 800 items

        def client():
            count = yield from fm.execute(Request(OP_COUNT, query))
            return count

        p = sim.process(client())
        sim.run()
        assert p.value == 800
        # one request + one small response segment; far below the 800*40B
        # a search response would have moved
        assert conn.response_ring.bytes_sent < 200

    def test_offload_nearest_matches_server(self):
        sim, server, fm, engine, stats, items = make_stack()

        def client():
            offloaded = yield from engine.nearest(0.3, 0.7, k=5)
            served = yield from execute_plan(
                server, server.plan_nearest(0.3, 0.7, 5))
            return offloaded, served

        p = sim.process(client())
        sim.run()
        offloaded, served = p.value
        assert [dist2(r, 0.3, 0.7) for r, _i in offloaded] == pytest.approx(
            [dist2(r, 0.3, 0.7) for r, _i in served]
        )

    def test_offload_count_matches_server(self):
        sim, server, fm, engine, stats, items = make_stack()
        query = Rect(0.1, 0.1, 0.5, 0.5)

        def client():
            count = yield from engine.count(query)
            return count

        p = sim.process(client())
        sim.run()
        assert p.value == server.tree.search(query).count

    def test_offload_nearest_zero_server_cpu(self):
        sim, server, fm, engine, stats, items = make_stack()

        def client():
            for _ in range(10):
                yield from engine.nearest(0.4, 0.4, k=3)

        sim.process(client())
        sim.run()
        assert server.host.cpu.total_work_seconds == 0.0

    def test_nearest_k_validation(self):
        sim, server, fm, engine, stats, items = make_stack()
        with pytest.raises(ValueError):
            Request(OP_NEAREST, Rect.point(0.5, 0.5))  # k missing

    def test_tcp_nearest_and_count(self):
        from repro.client.tcp_client import TcpSession
        from repro.net import ETH_1G
        from repro.server import TcpRTreeServer
        from repro.transport import TcpConnection
        sim = Simulator()
        net = Network(sim, ETH_1G)
        server_host = Host(sim, "server", ETH_1G, cores=4)
        net.attach_server(server_host)
        items = uniform_dataset(300, seed=5)
        server = RTreeServer(sim, server_host, items, max_entries=16)
        tcp_server = TcpRTreeServer(sim, server)
        client_host = Host(sim, "client", ETH_1G, cores=2)
        conn = TcpConnection(sim, net, client_host, server_host)
        tcp_server.accept(conn)
        session = TcpSession(sim, conn, 0, ClientStats())
        query = Rect(0.2, 0.2, 0.7, 0.7)

        def client():
            nearest = yield from session.execute(
                Request(OP_NEAREST, Rect.point(0.5, 0.5), k=3))
            count = yield from session.execute(Request(OP_COUNT, query))
            return nearest, count

        p = sim.process(client())
        sim.run()
        nearest, count = p.value
        assert len(nearest) == 3
        assert count == server.tree.search(query).count

    def test_catfish_session_routes_nearest(self):
        from repro.client import AdaptiveParams
        from repro.runtime import Algorithm1Policy, PolicySession
        sim, server, fm, engine, stats, items = make_stack()
        session = PolicySession(
            sim, fm, engine, stats,
            Algorithm1Policy(
                sim, fm.mailbox,
                params=AdaptiveParams(N=8, T=0.9, Inv=0.2e-3),
                rng=random.Random(6),
            ),
        )
        fm.mailbox.deliver(Heartbeat(1.0, seq=1))  # server is busy

        def client():
            out = []
            for i in range(8):
                # advance past Inv so the mailbox is consumed
                yield sim.timeout(0.3e-3)
                fm.mailbox.deliver(
                    Heartbeat(1.0, seq=fm.mailbox.seq + 1))
                matches = yield from session.execute(
                    Request(OP_NEAREST, Rect.point(0.5, 0.5), k=2))
                out.append(len(matches))
            return out

        p = sim.process(client())
        sim.run_until_triggered(p)
        assert all(n == 2 for n in p.value)
        assert stats.offloaded_requests > 0
