"""End-to-end fast messaging: ring buffers + verbs + server workers."""

import pytest

from repro.client import ClientStats, FmSession, Request
from repro.client.base import OP_INSERT, OP_SEARCH
from repro.hw import Host
from repro.msg import Heartbeat
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.server import (
    EVENT,
    POLLING,
    FastMessagingServer,
    HeartbeatService,
    RTreeServer,
)
from repro.sim import Simulator
from repro.workloads import uniform_dataset


def make_fm(mode=EVENT, n_items=1000, cores=4, max_entries=16):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=cores)
    net.attach_server(server_host)
    items = uniform_dataset(n_items, seed=5)
    rtree_server = RTreeServer(sim, server_host, items,
                               max_entries=max_entries)
    fm_server = FastMessagingServer(sim, rtree_server, net, mode=mode)
    return sim, net, server_host, rtree_server, fm_server, items


def make_session(sim, net, fm_server, client_id=0):
    client_host = Host(sim, f"client-{client_id}", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    session = FmSession(sim, conn, client_id, stats)
    return session, stats, conn, client_host


@pytest.mark.parametrize("mode", [EVENT, POLLING])
def test_search_round_trip(mode):
    sim, net, server_host, rtree_server, fm_server, items = make_fm(mode)
    session, stats, conn, _client = make_session(sim, net, fm_server)
    query = Rect(0.2, 0.2, 0.5, 0.5)

    def client():
        matches = yield from session.search(query)
        return matches

    p = sim.process(client())
    sim.run()
    expected = sorted(rtree_server.tree.search(query).data_ids)
    assert sorted(i for _r, i in p.value) == expected
    assert fm_server.requests_handled == 1
    assert stats.fast_messaging_requests == 1


def test_large_response_is_segmented():
    sim, net, server_host, rtree_server, fm_server, items = make_fm(
        n_items=3000
    )
    session, stats, conn, _client = make_session(sim, net, fm_server)
    query = Rect(0, 0, 1, 1)  # all 3000 items; >> one 8 KB segment

    def client():
        matches = yield from session.search(query)
        return matches

    p = sim.process(client())
    sim.run()
    assert len(p.value) == 3000
    # response ring must have carried several messages
    assert conn.response_ring.messages_received > 5


def test_insert_round_trip():
    sim, net, server_host, rtree_server, fm_server, items = make_fm()
    session, stats, conn, _client = make_session(sim, net, fm_server)
    rect = Rect(0.9, 0.9, 0.90001, 0.90001)

    def client():
        yield from session.execute(Request(OP_INSERT, rect, data_id=555555))
        matches = yield from session.search(rect)
        return matches

    p = sim.process(client())
    sim.run()
    assert 555555 in [i for _r, i in p.value]
    assert rtree_server.inserts_served == 1


def test_event_mode_uses_immediate_data():
    sim, net, server_host, rtree_server, fm_server, items = make_fm(EVENT)
    session, stats, conn, _client = make_session(sim, net, fm_server)
    assert conn.use_imm
    assert conn.server_channel is not None

    def client():
        yield from session.search(Rect(0.1, 0.1, 0.2, 0.2))

    sim.process(client())
    sim.run()
    assert conn.server_channel.wakeups >= 1


#: ``server.channel_wakeups`` of two small event-mode runs: request IMMs
#: plus the server's own response and heartbeat send completions, so
#: dropping or adding a notification anywhere moves them.  The catfish
#: run is loaded enough (one core) that Algorithm 1 offloads about 8 % of
#: its requests, 32 of them by the latency guard.  Its pin moved (1838
#: before) when the guard was added: those offloaded reads no longer
#: notify the server.
CHANNEL_WAKEUPS = {
    "fast-messaging-event": (dict(n_clients=4, requests_per_client=40,
                                  server_cores=4), 319),
    "catfish": (dict(n_clients=16, requests_per_client=60, server_cores=1,
                     scale="0.01"), 1776),
}


@pytest.mark.parametrize("scheme", sorted(CHANNEL_WAKEUPS))
def test_channel_wakeups_are_pinned(scheme):
    from repro import ExperimentConfig, run_experiment

    fields, wakeups = CHANNEL_WAKEUPS[scheme]
    result = run_experiment(ExperimentConfig(
        scheme=scheme, dataset_size=2000, seed=0, **fields))
    metrics = result.metrics["metrics"]
    assert metrics["server.channel_wakeups"]["value"] == wakeups
    if scheme == "catfish":
        assert metrics["client.offloaded_requests"]["value"] > 0


def test_polling_mode_sets_service_inflation():
    sim, net, server_host, rtree_server, fm_server, items = make_fm(
        POLLING, cores=2
    )
    for i in range(6):  # 6 connections on 2 cores -> oversubscribed
        make_session(sim, net, fm_server, client_id=i)
    assert rtree_server.service_inflation > 1.0


def test_event_mode_never_inflates_service():
    sim, net, server_host, rtree_server, fm_server, items = make_fm(
        EVENT, cores=2
    )
    for i in range(6):
        make_session(sim, net, fm_server, client_id=i)
    assert rtree_server.service_inflation == 1.0


def test_requests_consume_zero_client_found_server_cpu_when_idle():
    """No requests -> the event-driven server burns no CPU at all."""
    sim, net, server_host, rtree_server, fm_server, items = make_fm(EVENT)
    make_session(sim, net, fm_server)
    sim.run(until=0.01)
    assert server_host.cpu.total_work_seconds == 0.0


def test_many_clients_interleave():
    sim, net, server_host, rtree_server, fm_server, items = make_fm(
        n_items=2000, cores=4
    )
    sessions = [make_session(sim, net, fm_server, client_id=i)[0]
                for i in range(8)]
    done = []

    def client(session, i):
        for k in range(5):
            matches = yield from session.search(Rect(0.1, 0.1, 0.3, 0.3))
            assert matches is not None
        done.append(i)

    for i, session in enumerate(sessions):
        sim.process(client(session, i))
    sim.run()
    assert sorted(done) == list(range(8))
    assert fm_server.requests_handled == 40


def test_event_worker_drains_coalesced_completions():
    """Two requests landed in the ring but only ONE channel notification
    fired (completion coalescing): the worker must drain the ring on that
    single wakeup instead of leaving the second request until the next
    (unrelated) wakeup."""
    from repro.msg.codec import SearchRequest

    sim, net, server_host, rtree_server, fm_server, items = make_fm(EVENT)
    session, stats, conn, _client = make_session(sim, net, fm_server)

    query = Rect(0.1, 0.1, 0.3, 0.3)
    for req_id in (1, 2):
        wire = SearchRequest(req_id, query)
        assert conn.request_ring.try_reserve(wire)
        conn.request_ring.deposit(wire)
    # Back-to-back writes, one coalesced completion event.
    conn.server_channel.notify()

    sim.run(until=0.05)
    assert fm_server.requests_handled == 2
    assert conn.request_ring.pending_messages == 0


def test_invalid_mode_rejected():
    sim = Simulator()
    net = Network(sim, IB_100G)
    host = Host(sim, "server", IB_100G)
    net.attach_server(host)
    server = RTreeServer(sim, host, uniform_dataset(10), max_entries=8)
    with pytest.raises(ValueError):
        FastMessagingServer(sim, server, net, mode="interrupt")


class TestHeartbeats:
    def test_heartbeats_reach_mailbox(self):
        sim, net, server_host, rtree_server, fm_server, items = make_fm()
        session, stats, conn, _client = make_session(sim, net, fm_server)
        service = HeartbeatService(
            sim, server_host.cpu.window_utilization, interval=1e-3
        )
        service.subscribe(
            conn.response_ring, lambda hb: conn.server_post_response(hb)
        )
        service.start()
        sim.run(until=0.0105)
        assert service.beats_sent >= 9
        assert session.heartbeats_seen >= 9
        assert conn.mailbox.updates == session.heartbeats_seen

    def test_heartbeat_reports_utilization(self):
        sim, net, server_host, rtree_server, fm_server, items = make_fm()
        session, stats, conn, _client = make_session(sim, net, fm_server)
        service = HeartbeatService(
            sim, server_host.cpu.window_utilization, interval=1e-3
        )
        service.subscribe(
            conn.response_ring, lambda hb: conn.server_post_response(hb)
        )
        service.start()

        def burn():
            # keep all 4 cores busy so utilization reads ~1.0
            yield from server_host.cpu.execute(1.0)

        for _ in range(4):
            sim.process(burn())
        sim.run(until=0.01)
        assert conn.mailbox.value > 0.9

    def test_mailbox_read_and_clear(self):
        sim, net, server_host, rtree_server, fm_server, items = make_fm()
        session, stats, conn, _client = make_session(sim, net, fm_server)
        conn.mailbox.deliver(Heartbeat(0.7, seq=1))
        assert conn.mailbox.read_and_clear() == 0.7
        assert conn.mailbox.value == 0.0

    def test_heartbeat_dropped_when_ring_full(self):
        sim, net, server_host, rtree_server, fm_server, items = make_fm()
        session, stats, conn, _client = make_session(sim, net, fm_server)
        # Exhaust the response ring with pending reservations.
        while conn.response_ring.try_reserve(Heartbeat(0.5)):
            pass
        service = HeartbeatService(
            sim, server_host.cpu.window_utilization, interval=1e-3
        )
        service.subscribe(
            conn.response_ring, lambda hb: conn.server_post_response(hb)
        )
        service.start()
        sim.run(until=0.005)
        assert service.beats_dropped >= 4
        assert service.beats_sent == 0

    def test_heartbeat_interval_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            HeartbeatService(sim, lambda: 0.0, interval=0.0)

    def test_mailbox_rejects_non_heartbeat(self):
        from repro.server import HeartbeatMailbox
        box = HeartbeatMailbox()
        with pytest.raises(TypeError):
            box.rdma_write(0, 8, "not a heartbeat", 0.0)
