"""The R* write path as it was before the pruned kernel, kept as the
reference the live tree is checked against.

``RStarTree`` now ranks ChooseSubtree candidates over the node's flat
coordinate mirror, skips siblings disjoint from the enlarged rect, drops
a candidate once its partial overlap sum cannot win, builds split group
MBRs with one prefix and one suffix sweep, and scans ``_find_leaf``
through the shared scan kernel.  The originals are kept here as they
were but for names: the per-``Rect`` candidate sort, the full overlap
sum over every sibling, a ``Rect.union_of`` per split point, the
``center_distance2`` reinsert key and the per-entry ``Rect.intersects``
descent.  ``tests/test_rstar_reference.py`` drives them beside the live
code and asserts the same choices and the same trees.  The read side's
per-entry ``Rect.intersects`` search, :func:`search_via_rects`, is the
oracle of the flat-scan and batch-search tests.
"""

from typing import List, Optional, Tuple

from repro.rtree import rstar
from repro.rtree.geometry import Rect
from repro.rtree.node import Entry, Node
from repro.rtree.rstar import MutationResult, RStarTree, SearchResult


def search_via_rects(tree: RStarTree, query: Rect) -> SearchResult:
    """Reference search: per-entry ``Rect.intersects``, no scan cache.

    ``tree.search`` must return byte-identical results.
    """
    result = SearchResult()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        result.nodes_visited += 1
        result.visited_chunks.append(node.chunk_id)
        if node.is_leaf:
            result.leaf_nodes_visited += 1
            for entry in node.entries:
                if entry.rect.intersects(query):
                    result.matches.append((entry.rect, entry.data_id))
        else:
            for entry in node.entries:
                if entry.rect.intersects(query):
                    stack.append(entry.child)
    return result


def choose_leaf_parent_entry(node: Node, rect: Rect) -> Entry:
    """Min overlap enlargement among the best candidates (R* rule)."""
    candidates = node.entries
    if len(candidates) > rstar.CHOOSE_SUBTREE_CANDIDATES:
        candidates = sorted(
            candidates, key=lambda e: e.rect.enlargement(rect)
        )[:rstar.CHOOSE_SUBTREE_CANDIDATES]
    rminx, rminy = rect.minx, rect.miny
    rmaxx, rmaxy = rect.maxx, rect.maxy
    coords = node._coords if node._coords_ok else node.scan_coords()
    entries = node.entries
    best = None
    best_overlap = best_enl = best_area = 0.0
    for entry in candidates:
        er = entry.rect
        eminx, eminy, emaxx, emaxy = er.minx, er.miny, er.maxx, er.maxy
        uminx = rminx if rminx < eminx else eminx
        uminy = rminy if rminy < eminy else eminy
        umaxx = rmaxx if rmaxx > emaxx else emaxx
        umaxy = rmaxy if rmaxy > emaxy else emaxy
        overlap_delta = 0.0
        i = 0
        for other in entries:
            if other is entry:
                i += 4
                continue
            ominx = coords[i]
            ominy = coords[i + 1]
            omaxx = coords[i + 2]
            omaxy = coords[i + 3]
            i += 4
            # enlarged.overlap_area(other.rect)
            ixmin = ominx if ominx > uminx else uminx
            iymin = ominy if ominy > uminy else uminy
            ixmax = omaxx if omaxx < umaxx else umaxx
            iymax = omaxy if omaxy < umaxy else umaxy
            if ixmin > ixmax or iymin > iymax:
                a1 = 0.0
            else:
                a1 = (ixmax - ixmin) * (iymax - iymin)
            # entry.rect.overlap_area(other.rect)
            ixmin = ominx if ominx > eminx else eminx
            iymin = ominy if ominy > eminy else eminy
            ixmax = omaxx if omaxx < emaxx else emaxx
            iymax = omaxy if omaxy < emaxy else emaxy
            if ixmin > ixmax or iymin > iymax:
                a2 = 0.0
            else:
                a2 = (ixmax - ixmin) * (iymax - iymin)
            overlap_delta += a1 - a2
        area = (emaxx - eminx) * (emaxy - eminy)
        enl = (umaxx - uminx) * (umaxy - uminy) - area
        if (
            best is None
            or overlap_delta < best_overlap
            or (
                overlap_delta == best_overlap
                and (
                    enl < best_enl
                    or (enl == best_enl and area < best_area)
                )
            )
        ):
            best = entry
            best_overlap = overlap_delta
            best_enl = enl
            best_area = area
    return best


def choose_split(entries: List[Entry],
                 m: int) -> Tuple[List[Entry], List[Entry]]:
    """R* split: choose axis by margin sum, index by overlap/area."""
    split_points = range(m, len(entries) - m + 1)
    best_axis_margin = None
    best_axis_sortings = None
    for axis in ("x", "y"):
        if axis == "x":
            by_lower = sorted(entries, key=lambda e: (e.rect.minx,
                                                      e.rect.maxx))
            by_upper = sorted(entries, key=lambda e: (e.rect.maxx,
                                                      e.rect.minx))
        else:
            by_lower = sorted(entries, key=lambda e: (e.rect.miny,
                                                      e.rect.maxy))
            by_upper = sorted(entries, key=lambda e: (e.rect.maxy,
                                                      e.rect.miny))
        margin_sum = 0.0
        for ordered in (by_lower, by_upper):
            for k in split_points:
                left = Rect.union_of(e.rect for e in ordered[:k])
                right = Rect.union_of(e.rect for e in ordered[k:])
                margin_sum += left.margin() + right.margin()
        if best_axis_margin is None or margin_sum < best_axis_margin:
            best_axis_margin = margin_sum
            best_axis_sortings = (by_lower, by_upper)
    best_key = None
    best_groups = None
    for ordered in best_axis_sortings:
        for k in split_points:
            left = Rect.union_of(e.rect for e in ordered[:k])
            right = Rect.union_of(e.rect for e in ordered[k:])
            key = (left.overlap_area(right),
                   left.area() + right.area())
            if best_key is None or key < best_key:
                best_key = key
                best_groups = (list(ordered[:k]), list(ordered[k:]))
    return best_groups


def reinsert_order(node: Node) -> List[Entry]:
    """Forced-reinsert order: farthest from the node centre first."""
    mbr = node.mbr()
    return sorted(
        node.entries,
        key=lambda e: e.rect.center_distance2(mbr),
        reverse=True,
    )


def find_leaf(node: Node, rect: Rect, data_id: int,
              result: MutationResult
              ) -> Tuple[Optional[Node], Optional[Entry]]:
    """The delete path's descent, one ``Rect.intersects`` per entry."""
    result.nodes_visited += 1
    if node.is_leaf:
        for entry in node.entries:
            if entry.data_id == data_id and entry.rect == rect:
                return node, entry
        return None, None
    for entry in node.entries:
        if entry.rect.intersects(rect):
            leaf, found = find_leaf(entry.child, rect, data_id, result)
            if leaf is not None:
                return leaf, found
    return None, None


class ReferenceRStarTree(RStarTree):
    """An ``RStarTree`` whose write path runs the reference functions."""

    def _choose_leaf_parent_entry(self, node: Node, rect: Rect) -> Entry:
        return choose_leaf_parent_entry(node, rect)

    def _choose_split(self, entries):
        return choose_split(entries, self.min_entries)

    def _reinsert_order(self, node: Node) -> List[Entry]:
        return reinsert_order(node)

    def _find_leaf(self, node, rect, data_id, result):
        return find_leaf(node, rect, data_id, result)
