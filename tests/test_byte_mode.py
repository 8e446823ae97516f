"""Full-fidelity byte mode: offloading over real packed chunk bytes.

These tests prove the chunk codec is complete: the offloaded traversal
works from nothing but the bytes a real NIC would DMA, with FaRM's
version comparison as the only consistency mechanism.
"""

import random

import pytest

from repro.client import ClientStats, OffloadEngine
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import Rect, pack_node, unpack_node
from repro.rtree.serialize import (
    garbage_image,
    pack_node_torn,
    payload_size,
    view_from_bytes,
)
from repro.server import RTreeServer
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.transport import connect
from repro.workloads import uniform_dataset


def make_byte_stack(n_items=1200, max_entries=16, multi_issue=True):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(n_items, seed=21)
    server = RTreeServer(sim, server_host, items, max_entries=max_entries,
                         byte_mode=True)
    client_host = Host(sim, "client", IB_100G, cores=2)
    qp, _ = connect(sim, net, client_host, server_host)
    stats = ClientStats()
    engine = OffloadEngine(sim, qp, server.offload_descriptor(),
                           server.costs, stats, multi_issue=multi_issue)
    return sim, server_host, server, engine, stats


class TestCodecHelpers:
    def test_view_from_clean_bytes(self):
        from repro.rtree import Entry, Node
        node = Node(0, chunk_id=3)
        node.add(Entry(Rect(0.1, 0.2, 0.3, 0.4), data_id=9))
        node.version = 7
        view = view_from_bytes(pack_node(node, 8), 8)
        assert view is not None
        assert view.chunk_id == 3
        assert view.entries == ((Rect(0.1, 0.2, 0.3, 0.4), 9),)
        assert view.version == 7
        assert not view.torn

    def test_view_from_torn_bytes_is_rejected(self):
        from repro.rtree import Entry, Node
        node = Node(0, chunk_id=3)
        node.add(Entry(Rect(0, 0, 1, 1), data_id=1))
        assert view_from_bytes(pack_node_torn(node, 8), 8) is None

    def test_view_from_garbage_is_rejected(self):
        assert view_from_bytes(garbage_image(payload_size(8)), 8) is None

    def test_torn_image_differs_only_in_versions(self):
        from repro.rtree import Entry, Node
        node = Node(0, chunk_id=3)
        node.add(Entry(Rect(0, 0, 1, 1), data_id=1))
        clean = pack_node(node, 8)
        torn = pack_node_torn(node, 8)
        # payload identical, version area differs
        from repro.rtree.serialize import payload_size
        assert clean[:payload_size(8)] == torn[:payload_size(8)]
        assert clean != torn

    def test_unpack_of_torn_image_flags_inconsistency(self):
        from repro.rtree import Entry, Node
        node = Node(0, chunk_id=3)
        node.add(Entry(Rect(0, 0, 1, 1), data_id=1))
        img = unpack_node(pack_node_torn(node, 8), 8)
        assert not img.versions_consistent


class TestByteModeTraversal:
    @pytest.mark.parametrize("multi_issue", [False, True])
    @pytest.mark.parametrize("query", [
        Rect(0, 0, 1, 1),
        Rect(0.3, 0.3, 0.6, 0.6),
        Rect(0.5, 0.5, 0.5001, 0.5001),
    ])
    def test_matches_server_search(self, multi_issue, query):
        sim, sh, server, engine, stats = make_byte_stack(
            multi_issue=multi_issue
        )

        def client():
            matches = yield from engine.search(query)
            return matches

        p = sim.process(client())
        sim.run()
        expected = sorted(server.tree.search(query).data_ids)
        assert sorted(i for _r, i in p.value) == expected

    def test_zero_server_cpu(self):
        sim, sh, server, engine, stats = make_byte_stack()

        def client():
            for _ in range(15):
                yield from engine.search(Rect(0.2, 0.2, 0.5, 0.5))

        sim.process(client())
        sim.run()
        assert sh.cpu.total_work_seconds == 0.0
        assert server.chunk_reads.reads > 0

    def test_real_version_validation_triggers_retries(self):
        sim, sh, server, engine, stats = make_byte_stack()
        rng = random.Random(5)

        def writer():
            for i in range(400):
                yield from execute_plan(server, server.plan_insert(
                    Rect(0.4, 0.4, 0.4001, 0.4001), 10**7 + i))
                yield sim.timeout(rng.uniform(0, 3e-6))

        def reader():
            for _ in range(200):
                yield from engine.search(Rect(0.39, 0.39, 0.42, 0.42))
                yield sim.timeout(rng.uniform(0, 5e-6))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert stats.torn_retries > 0
        assert server.chunk_reads.torn_reads > 0

    def test_search_correct_despite_concurrent_inserts(self):
        sim, sh, server, engine, stats = make_byte_stack(n_items=600)
        rng = random.Random(6)
        errors = []
        baseline = len(server.tree.search(Rect(0, 0, 0.3, 0.3)).matches)

        def writer():
            # inserts far away from the query region
            for i in range(150):
                x = rng.uniform(0.7, 0.98)
                yield from execute_plan(server, server.plan_insert(
                    Rect(x, x, x + 0.001, x + 0.001), 10**8 + i))
                yield sim.timeout(rng.uniform(0, 4e-6))

        def reader():
            for _ in range(60):
                matches = yield from engine.search(Rect(0, 0, 0.3, 0.3))
                if len(matches) != baseline:
                    errors.append(len(matches))
                yield sim.timeout(rng.uniform(0, 6e-6))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert errors == []

    def test_byte_and_view_modes_agree(self):
        query = Rect(0.25, 0.25, 0.55, 0.55)
        results = {}
        for byte_mode in (False, True):
            sim = Simulator()
            net = Network(sim, IB_100G)
            server_host = Host(sim, "server", IB_100G, cores=4)
            net.attach_server(server_host)
            server = RTreeServer(sim, server_host,
                                 uniform_dataset(800, seed=22),
                                 max_entries=16, byte_mode=byte_mode)
            client_host = Host(sim, "client", IB_100G, cores=2)
            qp, _ = connect(sim, net, client_host, server_host)
            engine = OffloadEngine(sim, qp, server.offload_descriptor(),
                                   server.costs, ClientStats())

            def client():
                matches = yield from engine.search(query)
                return matches

            p = sim.process(client())
            sim.run()
            results[byte_mode] = sorted(i for _r, i in p.value)
        assert results[False] == results[True]
