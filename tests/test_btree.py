"""B+tree correctness: puts, gets, scans, bulk load, invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import BPlusTree

from .kv_invariants import validate_bptree


def build(n, capacity=8, seed=0):
    rng = random.Random(seed)
    keys = rng.sample(range(n * 10), n)
    tree = BPlusTree(capacity=capacity)
    for k in keys:
        tree.put(k, k * 2)
    return tree, sorted(keys)


class TestBasics:
    def test_empty(self):
        tree = BPlusTree(capacity=4)
        assert tree.size == 0
        assert tree.get(5).items == []
        assert tree.height == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(capacity=3)

    def test_put_get(self):
        tree = BPlusTree(capacity=4)
        tree.put(10, 100)
        assert tree.get(10).items == [(10, 100)]
        assert tree.get(11).items == []

    def test_overwrite_keeps_size(self):
        tree = BPlusTree(capacity=4)
        tree.put(1, 10)
        tree.put(1, 20)
        assert tree.size == 1
        assert tree.get(1).items == [(1, 20)]

    def test_split_grows_height(self):
        tree = BPlusTree(capacity=4)
        for k in range(10):
            tree.put(k, k)
        assert tree.height >= 2
        validate_bptree(tree)

    def test_many_inserts_valid(self):
        tree, keys = build(2000, capacity=8, seed=1)
        validate_bptree(tree)
        assert tree.size == 2000
        for k in random.Random(2).sample(keys, 100):
            assert tree.get(k).items == [(k, k * 2)]

    def test_get_missing_between_keys(self):
        tree, keys = build(500, capacity=8, seed=3)
        missing = set(range(5000)) - set(keys)
        for k in list(missing)[:50]:
            assert tree.get(k).items == []

    def test_visited_chunks_recorded(self):
        tree, keys = build(1000, capacity=8, seed=4)
        result = tree.get(keys[0])
        assert result.nodes_visited == tree.height
        assert len(result.visited_chunks) == result.nodes_visited


class TestRangeScan:
    def test_full_scan(self):
        tree, keys = build(300, capacity=8, seed=5)
        result = tree.range_scan(min(keys), max(keys))
        assert [k for k, _v in result.items] == keys

    def test_partial_scan(self):
        tree, keys = build(300, capacity=8, seed=6)
        lo, hi = keys[50], keys[150]
        result = tree.range_scan(lo, hi)
        assert [k for k, _v in result.items] == [
            k for k in keys if lo <= k <= hi
        ]

    def test_scan_respects_max_results(self):
        tree, keys = build(300, capacity=8, seed=7)
        result = tree.range_scan(min(keys), max(keys), max_results=10)
        assert result.count == 10
        assert [k for k, _v in result.items] == keys[:10]

    def test_scan_empty_range_inside_gap(self):
        tree = BPlusTree(capacity=4)
        for k in (10, 20, 30):
            tree.put(k, k)
        assert tree.range_scan(11, 19).items == []

    def test_invalid_range_rejected(self):
        tree = BPlusTree(capacity=4)
        with pytest.raises(ValueError):
            tree.range_scan(5, 4)

    def test_values_are_returned(self):
        tree, keys = build(100, capacity=8, seed=8)
        result = tree.range_scan(min(keys), max(keys))
        assert all(v == k * 2 for k, v in result.items)


class TestBulkLoad:
    def test_empty(self):
        tree = BPlusTree.bulk_load([])
        assert tree.size == 0

    @pytest.mark.parametrize("n", [1, 5, 64, 1000])
    def test_matches_incremental(self, n):
        rng = random.Random(n)
        keys = rng.sample(range(n * 10 + 10), n)
        items = [(k, k * 3) for k in keys]
        tree = BPlusTree.bulk_load(items, capacity=8)
        validate_bptree(tree)
        assert tree.size == n
        for k in keys:
            assert tree.get(k).items == [(k, k * 3)]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load([(1, 1), (1, 2)])

    def test_inserts_after_bulk(self):
        items = [(k * 2, k) for k in range(500)]
        tree = BPlusTree.bulk_load(items, capacity=8)
        for k in range(100):
            tree.put(k * 2 + 1, k)
        validate_bptree(tree)
        assert tree.size == 600


class TestVersioning:
    def test_write_protocol(self):
        tree = BPlusTree(capacity=4)
        tree.put(1, 1)
        leaf = tree.root
        v0 = leaf.version
        leaf.begin_write()
        assert leaf.active_writers == 1
        leaf.end_write()
        assert leaf.version == v0 + 1

    def test_end_without_begin(self):
        tree = BPlusTree(capacity=4)
        with pytest.raises(RuntimeError):
            tree.root.end_write()

    def test_mutated_nodes_reported(self):
        tree = BPlusTree(capacity=4)
        result = tree.put(1, 1)
        assert tree.root in result.mutated_nodes


class TestHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10_000), max_size=200))
    def test_matches_dict_oracle(self, keys):
        tree = BPlusTree(capacity=5)
        oracle = {}
        for k in keys:
            tree.put(k, k * 7)
            oracle[k] = k * 7
        validate_bptree(tree)
        assert dict(tree.range_scan(0, 10_000).items) == oracle

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3000), min_size=2, max_size=120,
                    unique=True),
           st.integers(0, 3000), st.integers(0, 3000))
    def test_scan_matches_oracle(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = BPlusTree.bulk_load([(k, k) for k in keys], capacity=5)
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert [k for k, _v in tree.range_scan(lo, hi).items] == expected
