"""The pruned R* write path against the reference it replaced.

``tests/rstar_reference.py`` keeps ChooseSubtree's leaf-parent rule,
the split and the forced-reinsert order as they were.  The live code
must make every choice the same: the same ``Entry`` per ChooseSubtree
call, the same split groups in the same order, the same reinsert order,
and so, under any insert/delete churn, the same tree — chunk ids, entry
order per node and per-operation accounting.  Coordinates come from a
small grid half the time, so duplicates, touching edges, points,
segments, equal enlargements and both zeros are common.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtree import RStarTree, Rect
from repro.rtree.node import Entry, Node
from repro.rtree.rstar import CHOOSE_SUBTREE_CANDIDATES

from . import rstar_reference as reference

_GRID = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
# Widths and areas overflow to inf here, and some areas are NaN (inf *
# 0.0, inf - inf): the kernel must still choose as the reference does.
_HUGE = [-math.inf, -1e308, -1.0, -0.0, 0.0, 1.0, 1e308, math.inf]


def _rect(rng, grid_share, grid=_GRID):
    """A box, a point, or a horizontal or vertical segment."""
    def coord():
        if rng.random() < grid_share:
            return rng.choice(grid)
        return rng.uniform(-4.0, 4.0)

    x0, x1, y0, y1 = coord(), coord(), coord(), coord()
    shape = rng.choice(["box", "box", "point", "hseg", "vseg"])
    if shape in ("point", "vseg"):
        x1 = x0
    if shape in ("point", "hseg"):
        y1 = y0
    if x1 < x0:
        x0, x1 = x1, x0
    if y1 < y0:
        y0, y1 = y1, y0
    return Rect(x0, y0, x1, y1)


def _rects(rng, n, grid_share, grid=_GRID, nested=False):
    """``n`` rects, about one in five an exact copy of an earlier one.

    ``nested`` rects all contain the origin, so a rect placed there has
    many candidates of zero enlargement, ranked only by area.
    """
    out = []
    for _ in range(n):
        if nested:
            r = _rect(rng, grid_share, grid)
            out.append(Rect(-abs(r.minx), -abs(r.miny),
                            abs(r.maxx), abs(r.maxy)))
        elif out and rng.random() < 0.2:
            r = rng.choice(out)
            out.append(Rect(r.minx, r.miny, r.maxx, r.maxy))
        else:
            out.append(_rect(rng, grid_share, grid))
    return out


def _placed(rng, boxes, how, grid_share, grid=_GRID):
    """The rect to place: fresh, an entry's own rect, or inside one."""
    if how == "fresh":
        return _rect(rng, grid_share, grid)
    if how == "origin":
        return Rect(0.0, 0.0, 0.0, 0.0)
    r = rng.choice(boxes)
    if how == "copy":
        return Rect(r.minx, r.miny, r.maxx, r.maxy)
    if how == "centre":
        cx, cy = r.center()
        return Rect(cx, cy, cx, cy)
    return Rect(r.minx, r.miny, r.minx, r.miny)


def _leaf_parent(boxes):
    node = Node(level=1)
    for r in boxes:
        node.add(Entry(r, child=Node(level=0)))
    return node


def _same_choice(boxes, rect):
    node = _leaf_parent(boxes)
    tree = RStarTree(max_entries=64)
    assert (tree._choose_leaf_parent_entry(node, rect)
            is reference.choose_leaf_parent_entry(node, rect))


def _same_split(boxes):
    entries = [Entry(r, data_id=i) for i, r in enumerate(boxes)]
    tree = RStarTree(max_entries=len(entries) - 1)
    left, right = tree._choose_split(entries)
    ref_left, ref_right = reference.choose_split(entries, tree.min_entries)
    assert [id(e) for e in left] == [id(e) for e in ref_left]
    assert [id(e) for e in right] == [id(e) for e in ref_right]


_seeds = st.integers(0, 2**32 - 1)
# All-grid coordinates make ties everywhere; all-uniform ones almost none.
_grid_shares = st.sampled_from([0.0, 0.5, 0.9, 1.0])
_placements = st.sampled_from(["fresh", "copy", "centre", "corner"])


class TestPerCall:
    """Node sizes 4-65 cross the 32-candidate ranking cut."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=_seeds, n=st.integers(4, 65), grid_share=_grid_shares,
           how=st.one_of(_placements, st.just("origin")))
    def test_choose_leaf_parent_entry(self, seed, n, grid_share, how):
        rng = random.Random(seed)
        boxes = _rects(rng, n, grid_share, nested=how == "origin")
        _same_choice(boxes, _placed(rng, boxes, how, grid_share))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(seed=_seeds, n=st.integers(4, 65), how=_placements)
    def test_choose_leaf_parent_entry_non_finite(self, seed, n, how):
        rng = random.Random(seed)
        boxes = _rects(rng, n, 1.0, _HUGE)
        _same_choice(boxes, _placed(rng, boxes, how, 1.0, _HUGE))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=_seeds, n=st.integers(5, 65), grid_share=_grid_shares,
           grid=st.sampled_from([_GRID, _GRID, _GRID, _HUGE]))
    def test_choose_split(self, seed, n, grid_share, grid):
        _same_split(_rects(random.Random(seed), n, grid_share, grid))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=_seeds, n=st.integers(4, 65), grid_share=_grid_shares)
    def test_reinsert_order(self, seed, n, grid_share):
        node = _leaf_parent(_rects(random.Random(seed), n, grid_share))
        order = RStarTree._reinsert_order(node)
        assert ([id(e) for e in order]
                == [id(e) for e in reference.reinsert_order(node)])


def _shape(tree):
    """Every node's chunk id, level and entries, bit for bit, in DFS order."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        row = []
        for e in node.entries:
            r = e.rect
            ref = e.data_id if node.is_leaf else e.child.chunk_id
            row.append((float(r.minx).hex(), float(r.miny).hex(),
                        float(r.maxx).hex(), float(r.maxy).hex(), ref))
            if not node.is_leaf:
                stack.append(e.child)
        out.append((node.chunk_id, node.level, row))
    return out


def _accounting(result):
    return (result.ok, result.nodes_visited,
            [n.chunk_id for n in result.mutated_nodes],
            result.splits, result.reinserted_entries)


def _steps(rng, count, delete_share, grid_share):
    """Churn steps: ``("insert", rect)``, ``("delete", pick)`` of a live
    item, or ``("miss", rect)``, a delete of an item that is not there."""
    steps = []
    for _ in range(count):
        roll = rng.random()
        if roll < delete_share:
            steps.append(("delete", rng.random()))
        elif roll < delete_share + 0.05:
            steps.append(("miss", _rect(rng, grid_share)))
        else:
            steps.append(("insert", _rect(rng, grid_share)))
    return steps


def _churn(max_entries, steps):
    """Apply the steps to a live and a reference tree, in lockstep."""
    tree = RStarTree(max_entries=max_entries)
    ref = reference.ReferenceRStarTree(max_entries=max_entries)
    live = []
    next_id = 0
    for i, (kind, arg) in enumerate(steps):
        if kind == "delete" and live:
            data_id, rect = live.pop(int(arg * len(live)))
            got, want = tree.delete(rect, data_id), ref.delete(rect, data_id)
        elif kind == "insert":
            got, want = tree.insert(arg, next_id), ref.insert(arg, next_id)
            live.append((next_id, arg))
            next_id += 1
        else:
            rect = arg if kind == "miss" else Rect(0.0, 0.0, 0.0, 0.0)
            got, want = tree.delete(rect, -1), ref.delete(rect, -1)
        assert _accounting(got) == _accounting(want)
        if i % 50 == 49:
            tree.validate()
    tree.validate()
    ref.validate()
    assert _shape(tree) == _shape(ref)
    assert tree.size == len(live)
    return tree


class TestWholeTree:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=_seeds, max_entries=st.sampled_from([4, 16, 64]),
           count=st.integers(0, 300),
           delete_share=st.sampled_from([0.0, 0.25, 0.45]),
           grid_share=_grid_shares)
    def test_churn_builds_the_same_tree(self, seed, max_entries, count,
                                        delete_share, grid_share):
        steps = _steps(random.Random(seed), count, delete_share, grid_share)
        _churn(max_entries, steps)

    def test_churn_at_64_ranks_candidates(self):
        # Enough items that leaf parents hold more than 32 children, so
        # the enlargement ranking runs inside whole-tree churn too.
        steps = _steps(random.Random(29), 3000, 0.15, 0.0)
        tree = _churn(64, steps)
        assert any(node.level == 1 and node.count > CHOOSE_SUBTREE_CANDIDATES
                   for node in tree.nodes.values())


class TestMirrorCheck:
    def test_validate_catches_a_rect_rebound_without_invalidate(self):
        tree = RStarTree(max_entries=4)
        rng = random.Random(3)
        for i in range(40):
            x, y = rng.random(), rng.random()
            tree.insert(Rect(x, y, x + 0.01, y + 0.01), i)
        tree.validate()
        leaf = next(n for n in tree.nodes.values() if n.is_leaf)
        leaf.scan_coords()
        # Swapping two rects keeps every MBR; only the mirror goes stale.
        first, second = leaf.entries[0], leaf.entries[1]
        first.rect, second.rect = second.rect, first.rect
        with pytest.raises(AssertionError, match="stale coordinate mirror"):
            tree.validate()
