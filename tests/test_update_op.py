"""Tests for the update operation (move/resize a rectangle)."""

import pytest

from repro.client import ClientStats
from repro.client.base import OP_SEARCH, OP_UPDATE, Request
from repro.client.fm_client import FmSession
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.server import EVENT, FastMessagingServer, RTreeServer
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.workloads import uniform_dataset


def make_stack(n_items=500):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(n_items, seed=2)
    server = RTreeServer(sim, server_host, items, max_entries=16)
    fm_server = FastMessagingServer(sim, server, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    fm = FmSession(sim, conn, 0, ClientStats())
    return sim, server, fm, items


class TestRequestValidation:
    def test_update_needs_new_rect(self):
        with pytest.raises(ValueError):
            Request(OP_UPDATE, Rect(0, 0, 1, 1), data_id=1)

    def test_update_needs_data_id(self):
        with pytest.raises(ValueError):
            Request(OP_UPDATE, Rect(0, 0, 1, 1),
                    new_rect=Rect(0, 0, 2, 2))

    def test_valid_update(self):
        r = Request(OP_UPDATE, Rect(0, 0, 1, 1), data_id=1,
                    new_rect=Rect(1, 1, 2, 2))
        assert r.new_rect == Rect(1, 1, 2, 2)


class TestServerUpdate:
    def test_update_moves_rectangle(self):
        sim, server, fm, items = make_stack()
        old_rect, data_id = items[0]
        new_rect = Rect(0.91, 0.91, 0.92, 0.92)

        def scenario():
            ok = yield from execute_plan(
                server, server.plan_update(old_rect, new_rect, data_id))
            here = yield from execute_plan(server,
                                           server.plan_search(new_rect))
            there = yield from execute_plan(server,
                                            server.plan_search(old_rect))
            return ok, here, there

        p = sim.process(scenario())
        sim.run()
        ok, here, there = p.value
        assert ok
        assert data_id in [i for _r, i in here]
        assert data_id not in [i for _r, i in there]
        assert server.updates_served == 1
        server.tree.validate()
        assert server.tree.size == 500  # size unchanged

    def test_updates_count_as_served_requests(self):
        # The rebalancer's load signal: a shard serving only updates must
        # not look cold.
        sim, server, fm, items = make_stack()

        def scenario():
            for rect, data_id in items[:3]:
                yield from execute_plan(server, server.plan_update(
                    rect, Rect(0.5, 0.5, 0.51, 0.51), data_id))

        sim.process(scenario())
        sim.run()
        assert server.updates_served == 3
        assert server.requests_served == 3

    def test_update_missing_returns_false(self):
        sim, server, fm, items = make_stack()

        def scenario():
            ok = yield from execute_plan(server, server.plan_update(
                Rect(0.5, 0.5, 0.6, 0.6), Rect(0.7, 0.7, 0.8, 0.8),
                987654321,
            ))
            return ok

        p = sim.process(scenario())
        sim.run()
        assert p.value is False
        assert server.updates_served == 0
        assert server.tree.size == 500

    def test_update_opens_write_window(self):
        sim, server, fm, items = make_stack()
        old_rect, data_id = items[0]
        observed = []

        def updater():
            yield from execute_plan(server, server.plan_update(
                old_rect, Rect(0.8, 0.8, 0.81, 0.81), data_id))

        def prober():
            for _ in range(4000):
                yield sim.timeout(0.05e-6)
                if any(n.active_writers for n in server.tree.nodes.values()):
                    observed.append(True)
                    return

        sim.process(updater())
        sim.process(prober())
        sim.run()
        assert observed == [True]


class TestClientUpdate:
    def test_fm_update_round_trip(self):
        sim, server, fm, items = make_stack()
        old_rect, data_id = items[3]
        new_rect = Rect(0.95, 0.95, 0.96, 0.96)

        def client():
            yield from fm.execute(Request(
                OP_UPDATE, old_rect, data_id=data_id, new_rect=new_rect))
            found = yield from fm.execute(Request(OP_SEARCH, new_rect))
            return found

        p = sim.process(client())
        sim.run()
        assert data_id in [i for _r, i in p.value]

    def test_tcp_update_round_trip(self):
        from repro.client.tcp_client import TcpSession
        from repro.net import ETH_1G
        from repro.server import TcpRTreeServer
        from repro.transport import TcpConnection
        sim = Simulator()
        net = Network(sim, ETH_1G)
        server_host = Host(sim, "server", ETH_1G, cores=4)
        net.attach_server(server_host)
        items = uniform_dataset(200, seed=3)
        server = RTreeServer(sim, server_host, items, max_entries=16)
        tcp_server = TcpRTreeServer(sim, server)
        client_host = Host(sim, "client", ETH_1G, cores=2)
        conn = TcpConnection(sim, net, client_host, server_host)
        tcp_server.accept(conn)
        session = TcpSession(sim, conn, 0, ClientStats())
        old_rect, data_id = items[7]
        new_rect = Rect(0.88, 0.88, 0.89, 0.89)

        def client():
            yield from session.execute(Request(
                OP_UPDATE, old_rect, data_id=data_id, new_rect=new_rect))
            found = yield from session.execute(Request(OP_SEARCH, new_rect))
            return found

        p = sim.process(client())
        sim.run()
        assert data_id in [i for _r, i in p.value]

    def test_catfish_routes_update_to_server(self):
        from repro.client import AdaptiveParams, OffloadEngine
        from repro.runtime import Algorithm1Policy, PolicySession
        sim, server, fm, items = make_stack()
        engine = OffloadEngine(sim, fm.conn.client_end,
                               server.offload_descriptor(), server.costs,
                               fm.stats)
        session = PolicySession(
            sim, fm, engine, fm.stats,
            Algorithm1Policy(sim, fm.mailbox,
                             params=AdaptiveParams(Inv=0.1e-3)),
        )
        fm.mailbox.value = 1.0  # even "busy" must not offload a write
        old_rect, data_id = items[9]

        def client():
            yield sim.timeout(0.2e-3)
            yield from session.execute(Request(
                OP_UPDATE, old_rect, data_id=data_id,
                new_rect=Rect(0.7, 0.7, 0.71, 0.71)))

        done = sim.process(client())
        sim.run_until_triggered(done)
        assert server.updates_served == 1
        assert fm.stats.offloaded_requests == 0
