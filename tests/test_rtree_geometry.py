"""Unit + property tests for rectangle geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.rtree import Rect


def rect_strategy(lo=-100.0, hi=100.0):
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda x1, y1, x2, y2: Rect(min(x1, x2), min(y1, y2),
                                    max(x1, x2), max(y1, y2)),
        coord, coord, coord, coord,
    )


class TestConstruction:
    def test_basic(self):
        r = Rect(0, 0, 2, 3)
        assert r.width == 2
        assert r.height == 3
        assert r.area() == 6
        assert r.margin() == 5

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_point_rect(self):
        p = Rect.point(1.5, 2.5)
        assert p.area() == 0
        assert p.center() == (1.5, 2.5)

    def test_union_of_empty(self):
        with pytest.raises(ValueError):
            Rect.union_of([])

    def test_union_of_many(self):
        u = Rect.union_of([Rect(0, 0, 1, 1), Rect(2, 2, 3, 3),
                           Rect(-1, 0.5, 0, 0.6)])
        assert (u.minx, u.miny, u.maxx, u.maxy) == (-1, 0, 3, 3)


class TestPredicates:
    def test_intersects_overlapping(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))

    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_intersects_touching_corner(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))
        assert not Rect(0, 0, 1, 1).intersects(Rect(0, 1.01, 1, 2))

    def test_contains(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains(Rect(1, 1, 2, 2))
        assert outer.contains(outer)
        assert not Rect(1, 1, 2, 2).contains(outer)


class TestCombinations:
    def test_union(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert (u.minx, u.miny, u.maxx, u.maxy) == (0, 0, 3, 3)

    def test_intersection_exists(self):
        i = Rect(0, 0, 2, 2).intersection(Rect(1, 1, 3, 3))
        assert (i.minx, i.miny, i.maxx, i.maxy) == (1, 1, 2, 2)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 6, 6)) is None

    def test_overlap_area(self):
        assert Rect(0, 0, 2, 2).overlap_area(Rect(1, 1, 3, 3)) == 1.0
        assert Rect(0, 0, 1, 1).overlap_area(Rect(5, 5, 6, 6)) == 0.0

    def test_enlargement(self):
        base = Rect(0, 0, 1, 1)
        assert base.enlargement(Rect(0.2, 0.2, 0.8, 0.8)) == 0.0
        assert base.enlargement(Rect(0, 0, 2, 1)) == pytest.approx(1.0)

    def test_center_distance2(self):
        a = Rect(0, 0, 2, 2)  # center (1,1)
        b = Rect(3, 4, 5, 6)  # center (4,5)
        assert a.center_distance2(b) == pytest.approx(9 + 16)


class TestDunder:
    def test_equality_and_hash(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(0, 0, 1, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Rect(0, 0, 1, 2)

    def test_eq_other_type(self):
        assert Rect(0, 0, 1, 1) != "rect"

    def test_repr_is_stable(self):
        assert "Rect(" in repr(Rect(0, 0, 1, 1))


class TestProperties:
    @given(rect_strategy(), rect_strategy())
    def test_intersects_is_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rect_strategy(), rect_strategy())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a)
        assert u.contains(b)

    @given(rect_strategy(), rect_strategy())
    def test_union_is_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rect_strategy())
    def test_self_union_is_identity(self, a):
        assert a.union(a) == a

    @given(rect_strategy(), rect_strategy())
    def test_enlargement_nonnegative(self, a, b):
        assert a.enlargement(b) >= 0

    @given(rect_strategy(), rect_strategy())
    def test_intersection_inside_both(self, a, b):
        inter = a.intersection(b)
        if inter is None:
            assert not a.intersects(b)
        else:
            assert a.contains(inter)
            assert b.contains(inter)

    @given(rect_strategy(), rect_strategy())
    def test_overlap_area_bounded(self, a, b):
        overlap = a.overlap_area(b)
        assert 0 <= overlap <= min(a.area(), b.area()) + 1e-9

    @given(rect_strategy())
    def test_contains_implies_intersects(self, a):
        assert a.intersects(a)
        assert a.contains(a)
