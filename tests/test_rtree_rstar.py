"""R*-tree correctness: inserts, splits, deletes, invariants, oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtree import RStarTree, Rect


def random_rect(rng, space=1.0, max_edge=0.05):
    w = rng.uniform(0, max_edge)
    h = rng.uniform(0, max_edge)
    x = rng.uniform(0, space - w)
    y = rng.uniform(0, space - h)
    return Rect(x, y, x + w, y + h)


def build_tree(n, max_entries=8, seed=0):
    rng = random.Random(seed)
    tree = RStarTree(max_entries=max_entries)
    rects = []
    for i in range(n):
        r = random_rect(rng)
        tree.insert(r, i)
        rects.append(r)
    return tree, rects


def brute_force(rects, query):
    return sorted(i for i, r in enumerate(rects) if r.intersects(query))


class TestBasics:
    def test_empty_tree_search(self):
        tree = RStarTree(max_entries=8)
        assert tree.search(Rect(0, 0, 1, 1)).data_ids == []
        assert tree.size == 0
        assert tree.height == 1

    def test_single_insert_and_search(self):
        tree = RStarTree(max_entries=8)
        tree.insert(Rect(0.1, 0.1, 0.2, 0.2), 42)
        hit = tree.search(Rect(0, 0, 1, 1))
        assert hit.data_ids == [42]
        miss = tree.search(Rect(0.5, 0.5, 0.6, 0.6))
        assert miss.data_ids == []

    def test_size_tracks_inserts(self):
        tree, _ = build_tree(100)
        assert tree.size == 100

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=3)

    def test_min_entries_within_bounds(self):
        """The minimum fill is 40% of capacity, and always a legal
        R*-tree bound: at least 2, at most half the capacity."""
        assert RStarTree(max_entries=8).min_entries == 3
        for max_entries in range(4, 257):
            tree = RStarTree(max_entries=max_entries)
            assert 2 <= tree.min_entries <= max_entries // 2

    def test_duplicate_rects_allowed(self):
        tree = RStarTree(max_entries=8)
        r = Rect(0.1, 0.1, 0.2, 0.2)
        for i in range(20):
            tree.insert(r, i)
        assert sorted(tree.search(r).data_ids) == list(range(20))


class TestGrowth:
    def test_root_split_increases_height(self):
        tree = RStarTree(max_entries=4)
        rng = random.Random(1)
        for i in range(5):
            tree.insert(random_rect(rng), i)
        assert tree.height == 2
        tree.validate()

    def test_height_is_logarithmic(self):
        tree, _ = build_tree(1000, max_entries=16)
        # 16-ary tree over 1000 items: height 3-4
        assert 2 <= tree.height <= 4

    def test_invariants_during_growth(self):
        tree = RStarTree(max_entries=6)
        rng = random.Random(2)
        rects = []
        for i in range(300):
            r = random_rect(rng)
            tree.insert(r, i)
            rects.append(r)
            if i % 50 == 49:
                tree.validate()
        tree.validate()

    def test_all_leaves_same_level(self):
        tree, _ = build_tree(500, max_entries=8, seed=3)

        def leaf_depths(node, depth):
            if node.is_leaf:
                yield depth
            else:
                for e in node.entries:
                    yield from leaf_depths(e.child, depth + 1)

        depths = set(leaf_depths(tree.root, 0))
        assert len(depths) == 1

    def test_splits_are_counted(self):
        tree = RStarTree(max_entries=4)
        rng = random.Random(4)
        total_splits = 0
        for i in range(100):
            result = tree.insert(random_rect(rng), i)
            total_splits += result.splits
        assert total_splits > 0

    def test_forced_reinsert_happens(self):
        tree = RStarTree(max_entries=8)
        rng = random.Random(5)
        total_reinserted = 0
        for i in range(500):
            result = tree.insert(random_rect(rng), i)
            total_reinserted += result.reinserted_entries
        assert total_reinserted > 0


class TestSearchOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_entries", [4, 8, 32])
    def test_matches_brute_force(self, seed, max_entries):
        tree, rects = build_tree(400, max_entries=max_entries, seed=seed)
        rng = random.Random(seed + 100)
        for _ in range(50):
            query = random_rect(rng, max_edge=0.3)
            assert sorted(tree.search(query).data_ids) == brute_force(
                rects, query
            )

    def test_full_space_query_returns_everything(self):
        tree, rects = build_tree(200)
        hit = tree.search(Rect(0, 0, 1, 1))
        assert sorted(hit.data_ids) == list(range(200))

    def test_point_query(self):
        tree, rects = build_tree(300, seed=7)
        rng = random.Random(8)
        for _ in range(30):
            x, y = rng.random(), rng.random()
            query = Rect.point(x, y)
            assert sorted(tree.search(query).data_ids) == brute_force(
                rects, query
            )

    def test_traversal_accounting(self):
        tree, _ = build_tree(500, max_entries=8)
        result = tree.search(Rect(0, 0, 1, 1))
        # full-space query visits every node
        assert result.nodes_visited == tree.node_count
        assert result.leaf_nodes_visited > 0
        assert len(result.visited_chunks) == result.nodes_visited

    def test_small_query_visits_few_nodes(self):
        tree, _ = build_tree(2000, max_entries=32, seed=9)
        result = tree.search(Rect(0.5, 0.5, 0.5001, 0.5001))
        assert result.nodes_visited < tree.node_count / 4


class TestDelete:
    def test_delete_existing(self):
        tree = RStarTree(max_entries=8)
        r = Rect(0.1, 0.1, 0.2, 0.2)
        tree.insert(r, 1)
        result = tree.delete(r, 1)
        assert result.ok
        assert tree.size == 0
        assert tree.search(Rect(0, 0, 1, 1)).data_ids == []

    def test_delete_missing_returns_not_ok(self):
        tree = RStarTree(max_entries=8)
        tree.insert(Rect(0.1, 0.1, 0.2, 0.2), 1)
        result = tree.delete(Rect(0.3, 0.3, 0.4, 0.4), 99)
        assert not result.ok
        assert tree.size == 1

    def test_delete_requires_matching_rect(self):
        tree = RStarTree(max_entries=8)
        tree.insert(Rect(0.1, 0.1, 0.2, 0.2), 1)
        assert not tree.delete(Rect(0.1, 0.1, 0.2, 0.21), 1).ok

    def test_delete_half_then_search(self):
        tree, rects = build_tree(300, max_entries=8, seed=11)
        for i in range(0, 300, 2):
            assert tree.delete(rects[i], i).ok
        tree.validate()
        remaining = brute_force(
            [r for i, r in enumerate(rects) if i % 2 == 1],
            Rect(0, 0, 1, 1),
        )
        got = sorted(tree.search(Rect(0, 0, 1, 1)).data_ids)
        assert got == sorted(i for i in range(300) if i % 2 == 1)
        assert len(got) == len(remaining)

    def test_delete_everything_collapses_tree(self):
        tree, rects = build_tree(200, max_entries=8, seed=12)
        for i, r in enumerate(rects):
            assert tree.delete(r, i).ok
        assert tree.size == 0
        assert tree.height == 1
        assert tree.node_count == 1

    def test_tree_valid_under_churn(self):
        tree = RStarTree(max_entries=6)
        rng = random.Random(13)
        live = {}
        next_id = 0
        for step in range(800):
            if live and rng.random() < 0.4:
                data_id = rng.choice(list(live))
                assert tree.delete(live.pop(data_id), data_id).ok
            else:
                r = random_rect(rng)
                tree.insert(r, next_id)
                live[next_id] = r
                next_id += 1
            if step % 100 == 99:
                tree.validate()
        tree.validate()
        got = sorted(tree.search(Rect(0, 0, 1, 1)).data_ids)
        assert got == sorted(live)


class TestMutationAccounting:
    def test_insert_reports_mutated_nodes(self):
        tree = RStarTree(max_entries=8)
        result = tree.insert(Rect(0.1, 0.1, 0.2, 0.2), 1)
        assert result.mutated_nodes
        assert tree.root in result.mutated_nodes

    def test_delete_reports_mutated_nodes(self):
        tree = RStarTree(max_entries=8)
        r = Rect(0.1, 0.1, 0.2, 0.2)
        tree.insert(r, 1)
        result = tree.delete(r, 1)
        assert result.mutated_nodes

    def test_chunk_ids_unique(self):
        tree, _ = build_tree(500, max_entries=8)
        ids = list(tree.nodes)
        assert len(ids) == len(set(ids))
        for cid, node in tree.nodes.items():
            assert node.chunk_id == cid


@st.composite
def rect_list(draw, min_size=1, max_size=120):
    n = draw(st.integers(min_size, max_size))
    rects = []
    for _ in range(n):
        x = draw(st.floats(0, 0.95, allow_nan=False))
        y = draw(st.floats(0, 0.95, allow_nan=False))
        w = draw(st.floats(0, 0.05, allow_nan=False))
        h = draw(st.floats(0, 0.05, allow_nan=False))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


class TestHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(rect_list(), st.integers(0, 2**31))
    def test_search_equals_brute_force(self, rects, qseed):
        tree = RStarTree(max_entries=5)
        for i, r in enumerate(rects):
            tree.insert(r, i)
        tree.validate()
        rng = random.Random(qseed)
        query = random_rect(rng, max_edge=0.5)
        assert sorted(tree.search(query).data_ids) == brute_force(
            rects, query
        )

    @settings(max_examples=25, deadline=None)
    @given(rect_list(min_size=5, max_size=60), st.data())
    def test_insert_delete_round_trip(self, rects, data):
        tree = RStarTree(max_entries=4)
        for i, r in enumerate(rects):
            tree.insert(r, i)
        to_delete = data.draw(
            st.sets(st.integers(0, len(rects) - 1),
                    max_size=len(rects))
        )
        for i in sorted(to_delete):
            assert tree.delete(rects[i], i).ok
        tree.validate()
        expected = sorted(set(range(len(rects))) - to_delete)
        assert sorted(tree.search(Rect(0, 0, 2, 2)).data_ids) == expected
