"""Tests for the chunk codec, snapshots, version validation and the one
chunk-read rule every index's region answers through."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BTreeOffloadEngine, BTreeService
from repro.client import ClientStats, OffloadEngine
from repro.cuckoo import BUCKET_BYTES, CuckooOffloadEngine, CuckooService
from repro.hw import Host
from repro.net import IB_100G
from repro.rtree import (
    CACHE_LINE,
    Entry,
    Node,
    Rect,
    chunk_size,
    pack_node,
    snapshot_node,
    unpack_node,
)
from repro.rtree.serialize import payload_size, version_lines
from repro.server import DEFAULT_COSTS, RTreeServer
from repro.sim import Simulator
from repro.workloads import uniform_dataset


def leaf_with(n, seed=0):
    rng = random.Random(seed)
    node = Node(0, chunk_id=5)
    for i in range(n):
        x, y = rng.random(), rng.random()
        node.add(Entry(Rect(x, y, x + 0.01, y + 0.01), data_id=i))
    return node


class TestChunkFormat:
    def test_chunk_size_is_cache_line_aligned(self):
        for m in (4, 16, 64, 100):
            assert chunk_size(m) % CACHE_LINE == 0

    def test_chunk_size_covers_payload_and_versions(self):
        for m in (4, 64):
            payload = payload_size(m)
            assert chunk_size(m) >= payload + version_lines(payload)

    def test_default_chunk_fits_4kb(self):
        # 64 entries: 16 + 64*40 = 2576 payload + versions -> under 4 KB
        assert chunk_size(64) <= 4096

    def test_round_trip_leaf(self):
        node = leaf_with(10)
        node.version = 3
        img = unpack_node(pack_node(node, 16), 16)
        assert img.level == 0
        assert img.chunk_id == 5
        assert len(img.entries) == 10
        for entry, orig in zip(img.entries, node.entries):
            assert entry.rect == orig.rect
            assert entry.ref == orig.data_id
        assert img.versions_consistent
        assert img.versions[0] == 3

    def test_round_trip_internal(self):
        parent = Node(1, chunk_id=9)
        for i in range(3):
            child = Node(0, chunk_id=100 + i)
            child.add(Entry(Rect(i, i, i + 1, i + 1), data_id=0))
            parent.add(Entry(child.mbr(), child=child))
        img = unpack_node(pack_node(parent, 8), 8)
        assert img.level == 1
        assert [e.ref for e in img.entries] == [100, 101, 102]

    def test_overfull_node_rejected(self):
        node = leaf_with(10)
        with pytest.raises(ValueError):
            pack_node(node, 8)

    def test_wrong_size_buffer_rejected(self):
        with pytest.raises(ValueError):
            unpack_node(b"\x00" * 10, 8)

    def test_corrupt_count_rejected(self):
        node = leaf_with(4)
        data = bytearray(pack_node(node, 8))
        data[4] = 0xFF  # count field low byte
        with pytest.raises(ValueError):
            unpack_node(bytes(data), 8)

    def test_torn_versions_detected(self):
        node = leaf_with(6)
        data = bytearray(pack_node(node, 8))
        data[payload_size(8)] ^= 0x01  # flip the first version byte
        img = unpack_node(bytes(data), 8)
        assert not img.versions_consistent

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 16), st.integers(0, 255), st.integers(1, 10**6))
    def test_round_trip_property(self, n, version, seed):
        node = leaf_with(n, seed=seed)
        node.version = version
        img = unpack_node(pack_node(node, 16), 16)
        assert len(img.entries) == n
        assert img.versions[0] == version % 256
        assert img.versions_consistent


class TestSnapshots:
    def test_snapshot_reflects_entries(self):
        node = leaf_with(5)
        view = snapshot_node(node)
        assert view.is_leaf
        assert len(view.entries) == 5
        assert not view.torn

    def test_snapshot_during_write_is_torn(self):
        node = leaf_with(5)
        node.begin_write()
        view = snapshot_node(node)
        assert view.torn
        node.end_write()
        assert not snapshot_node(node).torn

    def test_intersecting_refs(self):
        node = Node(1, chunk_id=1)
        for i, rect in enumerate(
            [Rect(0, 0, 1, 1), Rect(2, 2, 3, 3), Rect(0.5, 0.5, 1.5, 1.5)]
        ):
            child = Node(0, chunk_id=10 + i)
            child.add(Entry(rect, data_id=0))
            node.add(Entry(rect, child=child))
        view = snapshot_node(node)
        assert view.intersecting_refs(Rect(0.9, 0.9, 1.1, 1.1)) == [10, 12]


class TestSnapshotReader:
    """The R-tree server's ``ChunkReads`` in view mode."""

    @staticmethod
    def _server(sim):
        host = Host(sim, "server", IB_100G, cores=2)
        return RTreeServer(sim, host, uniform_dataset(20, seed=1),
                           max_entries=8)

    def test_reads_live_chunk(self):
        server = self._server(Simulator())
        reads = server.chunk_reads
        root = server.tree.root
        view = reads.rdma_read(server.chunk_address(root.chunk_id), 0, 0.0)
        assert view.chunk_id == root.chunk_id
        assert not view.torn
        assert reads.reads == 1
        assert reads.torn_reads == 0

    def test_freed_chunk_reads_as_torn(self):
        server = self._server(Simulator())
        reads = server.chunk_reads
        freed = max(server.tree.nodes) + 1
        view = reads.rdma_read(server.chunk_address(freed), 0, 0.0)
        assert view.torn
        assert reads.torn_reads == 1

    def test_write_tracker_window(self):
        sim = Simulator()
        server = self._server(sim)
        tracker = server.write_tracker
        reads = server.chunk_reads
        root = server.tree.root
        address = server.chunk_address(root.chunk_id)
        observations = []

        def writer():
            tracker.begin([root])
            assert tracker.open_windows == 1
            yield sim.timeout(5.0)
            tracker.end([root])

        def prober():
            yield sim.timeout(2.0)  # inside the window
            observations.append(reads.rdma_read(address, 0, sim.now).torn)
            yield sim.timeout(5.0)  # t=7, after the window
            observations.append(reads.rdma_read(address, 0, sim.now).torn)

        sim.process(writer())
        sim.process(prober())
        sim.run()
        assert observations == [True, False]
        assert tracker.total_writes == 1
        assert tracker.open_windows == 0
        assert root.version == 1


def _chunk_read_case(case, sim):
    """One index behind its chunk region: the service, a client engine
    (never connected: only its image check runs), a live chunk, what the
    engine expects of it, and the chunk's address."""
    host = Host(sim, "server", IB_100G, cores=2)
    index, _, mode = case.partition("-")
    byte_mode = mode == "bytes"
    stats = ClientStats()
    if index == "rtree":
        service = RTreeServer(sim, host, uniform_dataset(200, seed=1),
                              max_entries=8, byte_mode=byte_mode)
        engine_class = OffloadEngine
        chunk = service.tree.root
        expected = chunk.level
    elif index == "btree":
        service = BTreeService(sim, host, [(k, k + 1) for k in range(200)],
                               max_entries=8, byte_mode=byte_mode)
        engine_class = BTreeOffloadEngine
        chunk = service.tree.root
        expected = chunk.is_leaf
    else:
        service = CuckooService(sim, host, [(k, k + 1) for k in range(200)],
                                n_buckets=128)
        engine_class = CuckooOffloadEngine
        chunk = service.table.buckets[0]
        expected = None
    engine = engine_class(sim, None, service.offload_descriptor(),
                          DEFAULT_COSTS, stats)
    if index == "cuckoo":
        address = service.region.base + chunk.chunk_id * BUCKET_BYTES
    else:
        address = service.chunk_address(chunk.chunk_id)
    return service, engine, chunk, expected, address


@pytest.mark.parametrize("case", ["rtree", "rtree-bytes", "btree",
                                  "btree-bytes", "cuckoo"])
def test_chunk_reads_one_rule(case):
    """Every index's chunk region answers through one ``ChunkReads``: a
    freed chunk and a chunk inside a write window read as images the
    client's one image check rejects, a quiescent chunk as one it
    accepts, and only the R-tree caches a repeated quiescent read."""
    sim = Simulator()
    service, engine, chunk, expected, address = _chunk_read_case(case, sim)
    reads = service.chunk_reads
    stats = engine.stats

    def read(at):
        return reads.rdma_read(at, 0, sim.now)

    rejected = 0
    if not case.startswith("cuckoo"):  # buckets are never freed
        freed = max(service.tree.nodes) + 1
        assert engine._check(read(service.chunk_address(freed)),
                             expected) is None
        rejected += 1

    tracker = service.write_tracker
    tracker.begin([chunk])
    assert tracker.open_windows == 1
    assert engine._check(read(address), expected) is None
    tracker.end([chunk])
    rejected += 1
    assert (tracker.open_windows, tracker.total_writes) == (0, 1)
    assert chunk.version == 1
    assert reads.torn_reads == stats.torn_retries == rejected

    first = read(address)
    view = engine._check(first, expected)
    assert view is not None and view.version == 1
    again = read(address)
    assert engine._check(again, expected) is not None
    assert reads.reads == rejected + 2
    assert stats.torn_retries == rejected
    cached = case.startswith("rtree")
    assert reads.cached_reads == int(cached)
    assert (again is first) == cached
