"""Failure injection: congestion, backpressure, stale memory, starvation.

These tests drive the system through the unpleasant conditions the paper's
design decisions exist for, and assert the designed-for behaviour.
"""

import random

import pytest

from repro import AdaptiveParams, ExperimentConfig, run_experiment
from repro.client import ClientStats, OffloadEngine
from repro.client.fm_client import FmSession
from repro.client.offload_client import OffloadError
from repro.hw import Host
from repro.msg import DEFAULT_RING_CAPACITY, SearchRequest, message_size
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.server import (
    EVENT,
    FastMessagingServer,
    HeartbeatService,
    RTreeServer,
)
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.workloads import uniform_dataset


def build_stack(n_items=1500, cores=4, ring_capacity=DEFAULT_RING_CAPACITY,
                max_entries=16):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=cores)
    net.attach_server(server_host)
    server = RTreeServer(sim, server_host,
                         uniform_dataset(n_items, seed=4),
                         max_entries=max_entries)
    fm_server = FastMessagingServer(sim, server, net, mode=EVENT,
                                    ring_capacity=ring_capacity)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = FmSession(sim, conn, 0, stats)
    return sim, net, server_host, server, fm_server, conn, fm, stats


class TestHeartbeatLoss:
    def test_client_stays_on_fm_when_heartbeats_never_arrive(self):
        """Algorithm 1's rule: no heartbeat -> do NOT offload, because
        the cause may be a saturated server link."""
        result = run_experiment(ExperimentConfig(
            scheme="catfish",
            n_clients=12,
            requests_per_client=80,
            dataset_size=2000,
            max_entries=16,
            server_cores=1,  # definitely saturated
            # Heartbeat interval far beyond the run duration = total loss.
            heartbeat_interval=100.0,
            adaptive=AdaptiveParams(N=8, T=0.95, Inv=0.2e-3),
            seed=6,
        ))
        assert result.offload_fraction == 0.0
        assert result.server_cpu_utilization > 0.9

    def test_dropped_heartbeats_counted_under_ring_exhaustion(self):
        sim, net, sh, server, fm_server, conn, fm, stats = build_stack()
        # Fill the response ring with reservations that never complete.
        while conn.response_ring.try_reserve(SearchRequest(0, Rect(0, 0, 1, 1))):
            pass
        service = HeartbeatService(sim, sh.cpu.window_utilization,
                                   interval=1e-3)
        service.subscribe(conn.response_ring,
                          lambda hb: conn.server_post_response(hb))
        service.start()
        sim.run(until=0.01)
        assert service.beats_dropped >= 9
        assert fm.heartbeats_seen == 0


class TestRingBackpressure:
    def test_tiny_ring_still_delivers_huge_responses(self):
        """A response far larger than the ring must flow through CONT/END
        segmentation + flow control without deadlock or loss."""
        sim, net, sh, server, fm_server, conn, fm, stats = build_stack(
            n_items=3000,
            ring_capacity=20_000,  # ~2 segments' worth of space
        )

        def client():
            matches = yield from fm.search(Rect(0, 0, 1, 1))
            return matches

        p = sim.process(client())
        sim.run_until_triggered(p, limit=10.0)
        assert len(p.value) == 3000
        # the ring really was cycled many times
        assert conn.response_ring.messages_received > 10
        assert conn.response_ring.high_watermark <= 20_000

    def test_many_clients_tiny_rings(self):
        sim = Simulator()
        net = Network(sim, IB_100G)
        server_host = Host(sim, "server", IB_100G, cores=4)
        net.attach_server(server_host)
        server = RTreeServer(sim, server_host,
                             uniform_dataset(2000, seed=5), max_entries=16)
        fm_server = FastMessagingServer(sim, server, net, mode=EVENT,
                                        ring_capacity=16_384)
        done = []

        def client(i):
            host = Host(sim, f"c{i}", IB_100G, cores=2)
            conn = fm_server.open_connection(host)
            fm = FmSession(sim, conn, i, ClientStats())
            for _ in range(5):
                yield from fm.search(Rect(0, 0, 1, 1))
            done.append(i)

        for i in range(6):
            sim.process(client(i))
        sim.run()
        assert sorted(done) == list(range(6))


class TestStaleMemory:
    def test_reads_of_freed_chunks_eventually_recover(self):
        """Delete-heavy churn frees chunks an offloading client may still
        reference; validation must reject them and the search restart."""
        sim, net, sh, server, fm_server, conn, fm, stats = build_stack(
            n_items=400, max_entries=8
        )
        engine = OffloadEngine(sim, conn.client_end,
                               server.offload_descriptor(), server.costs,
                               stats)
        items = [(e.rect, e.data_id)
                 for node in server.tree.nodes.values() if node.is_leaf
                 for e in node.entries]
        rng = random.Random(7)

        def churner():
            # delete then reinsert everything, twice
            for _round in range(2):
                for rect, data_id in items:
                    yield from execute_plan(
                        server, server.plan_delete(rect, data_id))
                for rect, data_id in items:
                    yield from execute_plan(
                        server, server.plan_insert(rect, data_id))

        def reader():
            failures = 0
            for _ in range(60):
                try:
                    yield from engine.search(Rect(0.3, 0.3, 0.5, 0.5))
                except OffloadError:
                    failures += 1
                yield sim.timeout(rng.uniform(0, 10e-6))
            return failures

        sim.process(churner())
        p = sim.process(reader())
        sim.run()
        # searches survived (restarts are fine, hard failures are not)
        assert p.value == 0
        # and the hostile conditions were actually exercised
        assert stats.torn_retries + stats.search_restarts > 0

    def test_offload_correct_after_total_rebuild(self):
        sim, net, sh, server, fm_server, conn, fm, stats = build_stack(
            n_items=200, max_entries=8
        )
        engine = OffloadEngine(sim, conn.client_end,
                               server.offload_descriptor(), server.costs,
                               stats)
        items = [(e.rect, e.data_id)
                 for node in server.tree.nodes.values() if node.is_leaf
                 for e in node.entries]

        def scenario():
            before = yield from engine.search(Rect(0, 0, 1, 1))
            for rect, data_id in items:
                yield from execute_plan(
                    server, server.plan_delete(rect, data_id))
            empty = yield from engine.search(Rect(0, 0, 1, 1))
            for rect, data_id in items:
                yield from execute_plan(
                    server, server.plan_insert(rect, data_id))
            after = yield from engine.search(Rect(0, 0, 1, 1))
            return len(before), len(empty), len(after)

        p = sim.process(scenario())
        sim.run()
        n_before, n_empty, n_after = p.value
        assert n_before == 200
        assert n_empty == 0
        assert n_after == 200


class TestReadRetryExhaustion:
    def test_offload_error_when_chunk_never_validates(self):
        """A node held in a write window forever exhausts the retry budget
        and surfaces as OffloadError rather than spinning."""
        sim, net, sh, server, fm_server, conn, fm, stats = build_stack()
        engine = OffloadEngine(sim, conn.client_end,
                               server.offload_descriptor(), server.costs,
                               stats, max_read_retries=3,
                               max_restarts=2)
        # Pin the root in a write window and never release it.
        server.tree.root.begin_write()

        def client():
            try:
                yield from engine.search(Rect(0, 0, 1, 1))
            except OffloadError:
                return "gave-up"
            return "completed"

        p = sim.process(client())
        sim.run()
        assert p.value == "gave-up"
        assert stats.torn_retries >= 3
