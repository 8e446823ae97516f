"""Unit tests for wire-size accounting and fabric profiles/topology."""

import pytest

from repro.hw import Host
from repro.net import (
    ETH_1G,
    ETH_40G,
    IB_100G,
    IB_MTU,
    IB_PACKET_OVERHEAD,
    TCP_MSS,
    TCP_SEGMENT_OVERHEAD,
    Network,
    ib_wire_size,
    profile_by_name,
    tcp_wire_size,
)
from repro.sim import Simulator


class TestWireSizes:
    def test_tcp_small_message_single_segment(self):
        assert tcp_wire_size(100) == 100 + TCP_SEGMENT_OVERHEAD

    def test_tcp_empty_message_still_has_header(self):
        assert tcp_wire_size(0) == TCP_SEGMENT_OVERHEAD

    def test_tcp_segmentation(self):
        payload = TCP_MSS * 3
        assert tcp_wire_size(payload) == payload + 3 * TCP_SEGMENT_OVERHEAD
        assert (
            tcp_wire_size(payload + 1)
            == payload + 1 + 4 * TCP_SEGMENT_OVERHEAD
        )

    def test_ib_small_message(self):
        assert ib_wire_size(64) == 64 + IB_PACKET_OVERHEAD

    def test_ib_multi_packet(self):
        payload = IB_MTU * 2 + 1
        assert ib_wire_size(payload) == payload + 3 * IB_PACKET_OVERHEAD

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tcp_wire_size(-1)
        with pytest.raises(ValueError):
            ib_wire_size(-1)


class TestProfiles:
    def test_profiles_by_name(self):
        assert profile_by_name("eth-1g") is ETH_1G
        assert profile_by_name("ib-100g") is IB_100G
        with pytest.raises(KeyError):
            profile_by_name("token-ring")

    def test_rdma_flags(self):
        assert IB_100G.rdma
        assert not ETH_1G.rdma
        assert not ETH_40G.rdma

    def test_wire_size_dispatch(self):
        assert IB_100G.wire_size(10) == ib_wire_size(10)
        assert ETH_1G.wire_size(10) == tcp_wire_size(10)

    def test_bandwidth_ordering(self):
        assert ETH_1G.bandwidth_bps < ETH_40G.bandwidth_bps < IB_100G.bandwidth_bps

    def test_latency_ordering(self):
        assert IB_100G.base_latency_s < ETH_40G.base_latency_s < ETH_1G.base_latency_s


def sent(sim, net, src, dst, wire_bytes):
    """Send over the network; the returned event fires on arrival."""
    arrived = sim.event()
    net.send(src, dst, wire_bytes, 0.0, lambda _event: arrived.succeed())
    return arrived


class TestNetworkTopology:
    def _setup(self):
        sim = Simulator()
        net = Network(sim, IB_100G)
        server = Host(sim, "server", IB_100G)
        client = Host(sim, "client", IB_100G, cores=2)
        net.attach_server(server)
        return sim, net, server, client

    def test_transfer_requires_attached_server(self):
        sim = Simulator()
        net = Network(sim, IB_100G)
        a = Host(sim, "a", IB_100G)
        b = Host(sim, "b", IB_100G)

        def proc():
            yield sent(sim, net, a, b, 100)

        sim.process(proc())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_client_to_server_uses_rx(self):
        sim, net, server, client = self._setup()

        def proc():
            yield sent(sim, net, client, server, 1000)

        sim.process(proc())
        sim.run()
        assert net.server_link.rx.total_bytes == 1000
        assert net.server_link.tx.total_bytes == 0

    def test_server_to_client_uses_tx(self):
        sim, net, server, client = self._setup()

        def proc():
            yield sent(sim, net, server, client, 500)

        sim.process(proc())
        sim.run()
        assert net.server_link.tx.total_bytes == 500

    def test_client_to_client_rejected(self):
        sim, net, server, client = self._setup()
        other = Host(sim, "client2", IB_100G, cores=2)

        def proc():
            yield sent(sim, net, client, other, 100)

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()

    def test_bandwidth_gbps_reporting(self):
        sim, net, server, client = self._setup()

        def proc():
            # 12.5 GB over a 12.5 GB/s link = 1 second busy
            yield sent(sim, net, client, server, int(12.5e9))

        sim.process(proc())
        sim.run()
        elapsed = sim.now
        expected = 12.5e9 * 8 / elapsed / 1e9
        assert net.server_bandwidth_gbps() == pytest.approx(expected)
