"""Unit tests for the link model: serialization, latency, FIFO queueing."""

import pytest

from repro.net import DuplexLink, Link
from repro.sim import Simulator


def run_transfer(sim, link, nbytes):
    """Send ``nbytes``; the returned event's value is the arrival time."""
    arrived = sim.event()
    link.send(nbytes, 0.0, lambda _event: arrived.succeed(sim.now))
    return arrived


class TestLink:
    def test_transfer_time_is_serialization_plus_latency(self):
        sim = Simulator()
        # 8 bits/s -> 1 byte/s; latency 2 s
        link = Link(sim, bandwidth_bps=8.0, latency_s=2.0)
        p = run_transfer(sim, link, 10)
        sim.run()
        assert p.value == pytest.approx(12.0)

    def test_zero_byte_transfer_costs_latency_only(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=8.0, latency_s=2.0)
        p = run_transfer(sim, link, 0)
        sim.run()
        assert p.value == pytest.approx(2.0)

    def test_fifo_queueing(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=8.0, latency_s=0.0)
        p1 = run_transfer(sim, link, 10)
        p2 = run_transfer(sim, link, 10)
        sim.run()
        assert p1.value == pytest.approx(10.0)
        assert p2.value == pytest.approx(20.0)

    def test_propagation_pipelines_with_next_serialization(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=8.0, latency_s=5.0)
        p1 = run_transfer(sim, link, 10)
        p2 = run_transfer(sim, link, 10)
        sim.run()
        # second message starts serializing at t=10, not t=15
        assert p1.value == pytest.approx(15.0)
        assert p2.value == pytest.approx(25.0)

    def test_byte_counter(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=1e6, latency_s=0.0)
        run_transfer(sim, link, 500)
        run_transfer(sim, link, 300)
        sim.run()
        assert link.total_bytes == 800

    def test_negative_size_rejected(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=1e6, latency_s=0.0)
        with pytest.raises(ValueError):
            link.send(-1, 0.0, lambda _event: None)
        assert sim._seq == 0 and link.total_bytes == 0

    def test_then_runs_after_arrival_as_one_wake_up(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=8.0, latency_s=2.0)
        fired = []
        link.send(10, 0.25, lambda _event: fired.append(sim.now))
        sim.run()
        # serialization end, then one wake-up at (end + latency) + then
        assert fired == [(10.0 + 2.0) + 0.25]
        assert sim._seq == 2

    def test_fault_penalty_delays_the_transmitter_request(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=8.0, latency_s=0.0)
        link.fault_hook = lambda: 3.0
        p = run_transfer(sim, link, 10)
        sim.run()
        assert p.value == pytest.approx(13.0)

    def test_constructor_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=0, latency_s=0.0)
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=1e6, latency_s=-1.0)


class TestDuplexLink:
    def test_directions_are_independent(self):
        sim = Simulator()
        duplex = DuplexLink(sim, bandwidth_bps=8.0, latency_s=0.0)
        p_tx = run_transfer(sim, duplex.tx, 10)
        p_rx = run_transfer(sim, duplex.rx, 10)
        sim.run()
        # Full duplex: both complete at t=10, no mutual queueing.
        assert p_tx.value == pytest.approx(10.0)
        assert p_rx.value == pytest.approx(10.0)
