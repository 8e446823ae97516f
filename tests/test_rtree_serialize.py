"""Tests for the chunk codec, snapshots and version validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtree import (
    CACHE_LINE,
    Entry,
    Node,
    RStarTree,
    Rect,
    SnapshotReader,
    WriteTracker,
    chunk_size,
    pack_node,
    snapshot_node,
    unpack_node,
    validate_snapshot,
)
from repro.rtree.serialize import payload_size, version_bytes
from repro.sim import Simulator


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
            assert chunk_size(m) >= payload_size(m) + version_bytes(m)

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
        assert validate_snapshot(view)

    def test_snapshot_during_write_is_torn(self):
        node = leaf_with(5)
        node.begin_write()
        view = snapshot_node(node)
        assert view.torn
        assert not validate_snapshot(view)
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
    def test_reads_live_chunk(self):
        tree = RStarTree(max_entries=8)
        tree.insert(Rect(0.1, 0.1, 0.2, 0.2), 1)
        reader = SnapshotReader(tree.nodes)
        view = reader.read_chunk(tree.root.chunk_id, now=0.0)
        assert view.chunk_id == tree.root.chunk_id
        assert reader.reads == 1
        assert reader.torn_reads == 0

    def test_freed_chunk_reads_as_torn(self):
        tree = RStarTree(max_entries=8)
        reader = SnapshotReader(tree.nodes)
        view = reader.read_chunk(999, now=0.0)
        assert view.torn
        assert reader.torn_reads == 1

    def test_write_tracker_window(self):
        sim = Simulator()
        tree = RStarTree(max_entries=8)
        tree.insert(Rect(0.1, 0.1, 0.2, 0.2), 1)
        tracker = WriteTracker(sim)
        reader = SnapshotReader(tree.nodes)
        root = tree.root
        observations = []

        def writer():
            tracker.begin([root])
            assert tracker.open_windows == 1
            yield sim.timeout(5.0)
            tracker.end([root])

        def prober():
            yield sim.timeout(2.0)  # inside the window
            observations.append(reader.read_chunk(root.chunk_id, sim.now).torn)
            yield sim.timeout(5.0)  # t=7, after the window
            observations.append(reader.read_chunk(root.chunk_id, sim.now).torn)

        sim.process(writer())
        sim.process(prober())
        sim.run()
        assert observations == [True, False]
        assert tracker.total_writes == 1
        assert tracker.open_windows == 0
        assert root.version == 1
