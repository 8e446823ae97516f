"""B+tree chunk codec + byte-mode offloading."""

import random

import pytest

from repro.btree import BPlusTree, BTreeOffloadEngine, BTreeService
from repro.btree.serialize import (
    chunk_size,
    pack_bnode,
    pack_bnode_torn,
    payload_size,
    snapshot_from_bytes,
)
from repro.client import ClientStats
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree.serialize import CACHE_LINE, garbage_image
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.transport import connect


def small_tree(n=200, capacity=8, seed=1):
    rng = random.Random(seed)
    keys = rng.sample(range(10**6), n)
    tree = BPlusTree.bulk_load([(k, k * 2) for k in keys],
                               capacity=capacity)
    return tree, sorted(keys)


class TestCodec:
    def test_chunk_size_cache_aligned(self):
        for capacity in (4, 16, 64):
            assert chunk_size(capacity) % CACHE_LINE == 0

    def test_leaf_round_trip(self):
        tree, keys = small_tree(n=6, capacity=8)
        leaf = tree.root
        assert leaf.is_leaf
        view = snapshot_from_bytes(pack_bnode(leaf, 8), 8)
        assert view is not None
        assert view.is_leaf
        assert view.keys == tuple(leaf.keys)
        assert view.refs == tuple(leaf.values)
        assert view.next_leaf is None

    def test_inner_round_trip(self):
        tree, keys = small_tree(n=200, capacity=8)
        inner = tree.root
        assert not inner.is_leaf
        view = snapshot_from_bytes(pack_bnode(inner, 8), 8)
        assert view is not None
        assert not view.is_leaf
        assert view.keys == tuple(inner.keys)
        assert view.refs == tuple(c.chunk_id for c in inner.children)

    def test_leaf_chain_encoded(self):
        tree, keys = small_tree(n=60, capacity=8)
        leaf = tree.root
        while not leaf.is_leaf:
            leaf = leaf.children[0]
        view = snapshot_from_bytes(pack_bnode(leaf, 8), 8)
        assert view.next_leaf == leaf.next_leaf.chunk_id

    def test_torn_image_rejected(self):
        tree, keys = small_tree(n=6, capacity=8)
        assert snapshot_from_bytes(pack_bnode_torn(tree.root, 8), 8) is None

    def test_garbage_rejected(self):
        assert snapshot_from_bytes(garbage_image(payload_size(8)), 8) is None

    def test_wrong_size_rejected(self):
        assert snapshot_from_bytes(b"\x00" * 7, 8) is None

    def test_overfull_rejected(self):
        tree, keys = small_tree(n=6, capacity=8)
        with pytest.raises(ValueError):
            pack_bnode(tree.root, 4)


class TestByteModeBTree:
    def _stack(self, n=1500, capacity=16):
        sim = Simulator()
        net = Network(sim, IB_100G)
        server_host = Host(sim, "server", IB_100G, cores=4)
        net.attach_server(server_host)
        rng = random.Random(2)
        keys = rng.sample(range(10**6), n)
        service = BTreeService(sim, server_host,
                               [(k, k + 1) for k in keys],
                               max_entries=capacity, byte_mode=True)
        client_host = Host(sim, "client", IB_100G, cores=2)
        qp, _ = connect(sim, net, client_host, server_host)
        stats = ClientStats()
        engine = BTreeOffloadEngine(sim, qp, service.offload_descriptor(),
                                    service.costs, stats)
        return sim, server_host, service, engine, stats, sorted(keys)

    def test_gets_correct_over_bytes(self):
        sim, sh, service, engine, stats, keys = self._stack()
        sample = random.Random(3).sample(keys, 25)

        def client():
            out = []
            for k in sample:
                items = yield from engine.get(k)
                out.append(items)
            return out

        p = sim.process(client())
        sim.run()
        for k, items in zip(sample, p.value):
            assert items == [(k, k + 1)]
        assert service.chunk_reads.reads > 0

    def test_scan_correct_over_bytes(self):
        sim, sh, service, engine, stats, keys = self._stack()
        lo, hi = keys[100], keys[400]

        def client():
            items = yield from engine.scan(lo, hi)
            return items

        p = sim.process(client())
        sim.run()
        assert p.value == [(k, k + 1) for k in keys if lo <= k <= hi]

    def test_real_torn_validation_over_bytes(self):
        sim, sh, service, engine, stats, keys = self._stack()
        rng = random.Random(4)

        base = keys[10] * 7

        def writer():
            for i in range(400):
                yield from execute_plan(service,
                                        service.plan_put(base + i, i))
                yield sim.timeout(rng.uniform(0, 3e-6))

        def reader():
            # probe the very keys the writer is inserting, so the reads
            # land on the leaves whose write windows are opening
            for _ in range(250):
                yield from engine.get(base + rng.randrange(400))
                yield sim.timeout(rng.uniform(0, 4e-6))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert stats.torn_retries > 0
        assert service.chunk_reads.torn_reads > 0

    def test_zero_server_cpu_over_bytes(self):
        sim, sh, service, engine, stats, keys = self._stack(n=400)

        def client():
            for k in keys[:20]:
                yield from engine.get(k)

        sim.process(client())
        sim.run()
        assert sh.cpu.total_work_seconds == 0.0
