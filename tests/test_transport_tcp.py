"""Unit tests for the TCP/IP transport model."""

import pytest

from repro.hw import Host
from repro.net import ETH_1G, Network
from repro.sim import Simulator
from repro.transport import TcpConnection


def make_pair(profile=ETH_1G, server_cores=28, client_cores=2):
    sim = Simulator()
    net = Network(sim, profile)
    server = Host(sim, "server", profile, cores=server_cores)
    client = Host(sim, "client", profile, cores=client_cores)
    net.attach_server(server)
    conn = TcpConnection(sim, net, client, server)
    return sim, net, server, client, conn


def test_message_arrives_with_payload():
    sim, net, server, client, conn = make_pair()
    got = []

    def client_proc():
        yield from conn.client_send({"op": "ping"}, 64)

    def server_proc():
        msg = yield conn.server_recv()
        got.append(msg.payload)

    sim.process(client_proc())
    sim.process(server_proc())
    sim.run()
    assert got == [{"op": "ping"}]


def test_send_charges_both_cpus():
    sim, net, server, client, conn = make_pair()

    def client_proc():
        yield from conn.client_send("x", 100)

    def server_proc():
        yield conn.server_recv()

    sim.process(client_proc())
    sim.process(server_proc())
    sim.run()
    assert client.cpu.total_work_seconds > 0
    assert server.cpu.total_work_seconds > 0
    # kernel costs are symmetric for the same size
    assert client.cpu.total_work_seconds == pytest.approx(
        server.cpu.total_work_seconds
    )


def test_one_way_latency_exceeds_base_latency():
    sim, net, server, client, conn = make_pair()
    arrival = []

    def client_proc():
        yield from conn.client_send("x", 1)

    def server_proc():
        yield conn.server_recv()
        arrival.append(sim.now)

    sim.process(client_proc())
    sim.process(server_proc())
    sim.run()
    # must include propagation + two kernel crossings
    assert arrival[0] > ETH_1G.base_latency_s + ETH_1G.tcp_kernel_per_msg_s


def test_request_response_round_trip():
    sim, net, server, client, conn = make_pair()

    def server_proc():
        msg = yield conn.server_recv()
        yield from conn.server_send(msg.payload.upper(), 128)

    def client_proc():
        yield from conn.client_send("hello", 64)
        reply = yield conn.client_recv()
        return [reply.payload]

    sim.process(server_proc())
    p = sim.process(client_proc())
    sim.run()
    assert p.value == ["HELLO"]


def test_multiple_responses_collected():
    sim, net, server, client, conn = make_pair()

    def server_proc():
        yield conn.server_recv()
        for part in ["a", "b", "c"]:
            yield from conn.server_send(part, 32)

    def client_proc():
        yield from conn.client_send("req", 16)
        replies = []
        for _ in range(3):
            reply = yield conn.client_recv()
            replies.append(reply.payload)
        return replies

    sim.process(server_proc())
    p = sim.process(client_proc())
    sim.run()
    assert p.value == ["a", "b", "c"]


def test_shared_server_link_serializes_large_transfers():
    """Two clients pushing big messages must queue on the server rx link."""
    profile = ETH_1G
    sim = Simulator()
    net = Network(sim, profile)
    server = Host(sim, "server", profile)
    net.attach_server(server)
    clients = [Host(sim, f"c{i}", profile, cores=2) for i in range(2)]
    conns = [TcpConnection(sim, net, c, server) for c in clients]
    arrivals = []

    size = 1_000_000  # 1 MB each; ~8 ms serialization on 1 GbE

    def client_proc(conn):
        yield from conn.client_send("bulk", size)

    def server_proc(conn):
        yield conn.server_recv()
        arrivals.append(sim.now)

    for conn in conns:
        sim.process(client_proc(conn))
        sim.process(server_proc(conn))
    sim.run()
    assert len(arrivals) == 2
    first, second = sorted(arrivals)
    # the second message cannot finish before ~2x the serialization time
    one_serialization = net.profile.wire_size(size) * 8 / profile.bandwidth_bps
    assert second - first >= one_serialization * 0.9


def test_negative_size_rejected():
    sim, net, server, client, conn = make_pair()

    def client_proc():
        yield from conn.client_send("x", -5)

    sim.process(client_proc())
    with pytest.raises(ValueError):
        sim.run()
