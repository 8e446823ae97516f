"""2-D rectangle geometry for the R-tree.

The paper stores 2-dimensional rectangles, each described by four double
precision coordinates ``min(x), max(x), min(y), max(y)`` (§II-A).  All
R\\*-tree heuristics (area, margin, overlap, enlargement) live here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple


class Rect:
    """An axis-aligned rectangle ``[minx, maxx] x [miny, maxy]``.

    Degenerate rectangles (points, segments) are legal — real spatial data
    contains them and the R\\*-tree handles them fine.
    """

    __slots__ = ("minx", "miny", "maxx", "maxy")

    def __init__(self, minx: float, miny: float, maxx: float, maxy: float):
        if minx > maxx or miny > maxy:
            raise ValueError(
                f"invalid rect: [{minx}, {maxx}] x [{miny}, {maxy}]"
            )
        self.minx = minx
        self.miny = miny
        self.maxx = maxx
        self.maxy = maxy

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, x: float, y: float) -> "Rect":
        return cls(x, y, x, y)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Minimum bounding rectangle of a non-empty collection."""
        it: Iterator[Rect] = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_of() of an empty collection") from None
        minx, miny = first.minx, first.miny
        maxx, maxy = first.maxx, first.maxy
        for r in it:
            if r.minx < minx:
                minx = r.minx
            if r.miny < miny:
                miny = r.miny
            if r.maxx > maxx:
                maxx = r.maxx
            if r.maxy > maxy:
                maxy = r.maxy
        return cls(minx, miny, maxx, maxy)

    # -- metrics -----------------------------------------------------------
    #
    # ``area``/``margin`` sit in the R*-tree's innermost loops, so they use
    # direct arithmetic rather than going through the ``width``/``height``
    # properties (a property call per operand is measurable there).

    @property
    def width(self) -> float:
        return self.maxx - self.minx

    @property
    def height(self) -> float:
        return self.maxy - self.miny

    def area(self) -> float:
        return (self.maxx - self.minx) * (self.maxy - self.miny)

    def margin(self) -> float:
        """Half-perimeter; the R\\*-tree split axis criterion."""
        return (self.maxx - self.minx) + (self.maxy - self.miny)

    def center(self) -> Tuple[float, float]:
        return ((self.minx + self.maxx) / 2, (self.miny + self.maxy) / 2)

    def center_distance2(self, other: "Rect") -> float:
        """Squared distance between centres (forced-reinsert ordering)."""
        ax, ay = self.center()
        bx, by = other.center()
        return (ax - bx) ** 2 + (ay - by) ** 2

    def min_dist2_point(self, x: float, y: float) -> float:
        """Squared distance from a point to the rectangle (0 if inside).

        The MINDIST lower bound of branch-and-bound kNN search: no object
        inside this MBR can be closer to ``(x, y)`` than this.
        """
        dx = max(self.minx - x, 0.0, x - self.maxx)
        dy = max(self.miny - y, 0.0, y - self.maxy)
        return dx * dx + dy * dy

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """Closed-interval overlap test (touching counts, as in Guttman)."""
        return not (
            other.minx > self.maxx
            or other.maxx < self.minx
            or other.miny > self.maxy
            or other.maxy < self.miny
        )

    def contains(self, other: "Rect") -> bool:
        return (
            self.minx <= other.minx
            and self.miny <= other.miny
            and self.maxx >= other.maxx
            and self.maxy >= other.maxy
        )

    # -- combinations --------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or None when disjoint."""
        minx = max(self.minx, other.minx)
        miny = max(self.miny, other.miny)
        maxx = min(self.maxx, other.maxx)
        maxy = min(self.maxy, other.maxy)
        if minx > maxx or miny > maxy:
            return None
        return Rect(minx, miny, maxx, maxy)

    def overlap_area(self, other: "Rect") -> float:
        inter = self.intersection(other)
        return inter.area() if inter is not None else 0.0

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed for this MBR to also cover ``other``."""
        return self.union(other).area() - self.area()

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.minx == other.minx
            and self.miny == other.miny
            and self.maxx == other.maxx
            and self.maxy == other.maxy
        )

    def __hash__(self) -> int:
        return hash((self.minx, self.miny, self.maxx, self.maxy))

    def __repr__(self) -> str:
        return (
            f"Rect({self.minx:.6g}, {self.miny:.6g}, "
            f"{self.maxx:.6g}, {self.maxy:.6g})"
        )
