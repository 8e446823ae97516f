"""R\\*-tree: insertion, deletion, search and node splitting.

The paper integrates all its communication schemes with the R\\*-tree
(Beckmann, Kriegel, Schneider, Seeger, SIGMOD'90) — §III-A: "we use the
mechanisms of R*-tree for the rectangle insertion and R-tree split".  This
module implements the full algorithm set:

* **ChooseSubtree** with the minimum-overlap-enlargement rule at the leaf
  parent level (with the 32-candidate optimization from the paper) and
  minimum-area-enlargement above;
* **Split** with the two-pass axis/index selection over margin and overlap;
* **OverflowTreatment** with forced reinsertion (30% of entries, closest
  reinsert order) once per level per insertion;
* **CondenseTree** deletion with orphan reinsertion;
* whole-leaf **graft** and **unlink**, which move a migrated run of items
  as one packed leaf (small-tree/large-tree bulk insertion, Chen,
  Choubey and Rundensteiner, ACM GIS'98).

Every public operation reports which nodes it visited and mutated so the
surrounding simulation can charge CPU time and open torn-read windows.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import batch as _batch
from .geometry import Rect
from .node import DEFAULT_MAX_ENTRIES, Entry, Node, min_entries

#: Fraction of entries evicted by forced reinsertion (R* paper: p = 30%).
REINSERT_FRACTION = 0.3

#: ChooseSubtree examines only the best-32 candidates by area enlargement
#: when computing overlap enlargements (R* paper optimization for large M).
CHOOSE_SUBTREE_CANDIDATES = 32


@dataclass
class SearchResult:
    """Outcome of one search: matches plus traversal accounting."""

    matches: List[Tuple[Rect, int]] = field(default_factory=list)
    nodes_visited: int = 0
    leaf_nodes_visited: int = 0
    visited_chunks: List[int] = field(default_factory=list)

    @property
    def data_ids(self) -> List[int]:
        """Just the matching data ids (the rects are in ``matches``)."""
        return [data_id for _rect, data_id in self.matches]

    @property
    def count(self) -> int:
        return len(self.matches)


@dataclass
class MutationResult:
    """Outcome of an insert/delete: accounting for the simulation layer.

    One result may gather a group of inserts or deletes applied back to
    back (pass it to each call): ``items`` is then the group's size and
    ``visited`` the set of distinct nodes the group visited, while the
    counts add up and ``mutated_nodes`` is the union in first-touch order.
    """

    ok: bool = True
    nodes_visited: int = 0
    mutated_nodes: List[Node] = field(default_factory=list)
    splits: int = 0
    reinserted_entries: int = 0
    items: int = 1
    visited: Optional[Set[Node]] = None


class RStarTree:
    """An in-memory R\\*-tree over 2-D rectangles.

    ``alloc_chunk``/``free_chunk`` tie node lifetimes to the server's
    registered-memory chunk allocator; by default an internal counter is
    used so the tree also works stand-alone.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        alloc_chunk: Optional[Callable[[], int]] = None,
        free_chunk: Optional[Callable[[int], None]] = None,
    ):
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        self.max_entries = max_entries
        self.min_entries = min_entries(max_entries)
        self._counter = itertools.count()
        self._alloc_chunk = alloc_chunk or (lambda: next(self._counter))
        self._free_chunk = free_chunk or (lambda chunk_id: None)
        #: chunk id -> node; the simulated registered memory content.
        self.nodes: Dict[int, Node] = {}
        self.root = self._new_node(level=0)
        self.size = 0  # number of stored rectangles
        #: Tree-wide mutation high-water mark: bumped once per completed
        #: structural mutation (insert / successful delete).  Exposed to
        #: offloading clients through the meta region and piggybacked on
        #: heartbeats so client-side node caches know when *any* cached
        #: upper-level view may have gone stale.  Unlike the per-node
        #: ``mut_seq`` it is globally comparable, and like ``mut_seq`` it
        #: moves at the in-memory mutation (not at write-window close).
        #: A mutation bumps it before it touches a node, so the value it
        #: stamps into ``Node.lost_seq`` is its own mark.
        self.mut_hwm = 0

    # -- node lifecycle -----------------------------------------------------

    def _new_node(self, level: int) -> Node:
        node = Node(level, chunk_id=self._alloc_chunk())
        self.nodes[node.chunk_id] = node
        return node

    def _drop_node(self, node: Node) -> None:
        del self.nodes[node.chunk_id]
        self._free_chunk(node.chunk_id)

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        return self.root.level + 1

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    # -- search ---------------------------------------------------------------

    def search(self, query: Rect) -> SearchResult:
        """All data ids whose rectangles intersect ``query``.

        The per-entry test goes through the shared scan kernel
        (``repro.rtree.batch.node_scan_indices``): a flat-list loop over
        the node's coordinate mirror, with the closed-interval predicate
        and entry order of the per-entry ``Rect.intersects`` reference
        loop (``tests/rstar_reference.py``).
        """
        result = SearchResult()
        matches = result.matches
        visited_chunks = result.visited_chunks
        scan = _batch.node_scan_indices
        qminx, qminy = query.minx, query.miny
        qmaxx, qmaxy = query.maxx, query.maxy
        nodes_visited = 0
        leaf_nodes_visited = 0
        stack = [self.root]
        push = stack.append
        while stack:
            node = stack.pop()
            nodes_visited += 1
            visited_chunks.append(node.chunk_id)
            entries = node.entries
            hits = scan(node, qminx, qminy, qmaxx, qmaxy)
            if node.level == 0:
                leaf_nodes_visited += 1
                for j in hits:
                    entry = entries[j]
                    matches.append((entry.rect, entry.data_id))
            else:
                for j in hits:
                    push(entries[j].child)
        result.nodes_visited = nodes_visited
        result.leaf_nodes_visited = leaf_nodes_visited
        return result

    def search_runs(self, query: Rect
                    ) -> List[Tuple[Node, List[Tuple[Rect, int]]]]:
        """:meth:`search`'s matches in its order, cut into one run per
        leaf that holds any, each with its leaf."""
        runs = []
        scan = _batch.node_scan_indices
        qminx, qminy = query.minx, query.miny
        qmaxx, qmaxy = query.maxx, query.maxy
        stack = [self.root]
        while stack:
            node = stack.pop()
            entries = node.entries
            hits = scan(node, qminx, qminy, qmaxx, qmaxy)
            if node.level == 0:
                if hits:
                    runs.append((node, [(entries[j].rect, entries[j].data_id)
                                        for j in hits]))
            else:
                stack.extend(entries[j].child for j in hits)
        return runs

    def count_intersections(self, query: Rect) -> int:
        return self.search(query).count

    def nearest(self, x: float, y: float, k: int = 1) -> SearchResult:
        """The ``k`` nearest rectangles to point ``(x, y)``.

        Classic best-first branch-and-bound (Hjaltason & Samet): a
        priority queue ordered by MINDIST interleaves nodes and data
        entries; entries popped before any closer candidate are final.
        ``matches`` comes back ordered nearest-first.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        result = SearchResult()
        counter = itertools.count()  # tie-breaker for the heap
        heap = [(0.0, next(counter), self.root, None)]
        while heap and len(result.matches) < k:
            dist, _seq, node, entry = heapq.heappop(heap)
            if node is None:
                # A data entry surfaced: nothing unexplored is closer.
                result.matches.append((entry.rect, entry.data_id))
                continue
            result.nodes_visited += 1
            result.visited_chunks.append(node.chunk_id)
            dists = _batch.node_min_dist2(node, x, y)
            if node.is_leaf:
                result.leaf_nodes_visited += 1
                for leaf_entry, d in zip(node.entries, dists):
                    heapq.heappush(heap, (d, next(counter), None, leaf_entry))
            else:
                for child_entry, d in zip(node.entries, dists):
                    heapq.heappush(heap, (
                        d, next(counter), child_entry.child, None,
                    ))
        return result

    # -- insertion ---------------------------------------------------------------

    def insert(self, rect: Rect, data_id: int,
               result: Optional[MutationResult] = None) -> MutationResult:
        """Insert one rectangle (R* insert with forced reinsertion),
        accounted into ``result`` when given (a group, see
        :class:`MutationResult`)."""
        if result is None:
            result = MutationResult()
        self.mut_hwm += 1
        # One forced reinsert per level per insertion (R* OverflowTreatment).
        self._reinserted_levels: Set[int] = set()
        self._insert_entry(Entry(rect, data_id=data_id), level=0,
                           result=result)
        self.size += 1
        return result

    def graft_leaf(self, leaf: Node, result: MutationResult) -> None:
        """Insert a packed leaf's items as one entry at level 1.

        The small-tree/large-tree bulk insertion of Chen, Choubey and
        Rundensteiner: ``leaf`` (built by
        :func:`repro.rtree.bulk.pack_leaves`, at least ``min_entries``
        items) goes down ChooseSubtree as one child entry and overflow is
        treated as for any level-1 insert.  The root must be above the
        leaves."""
        self.mut_hwm += 1
        self._reinserted_levels = set()
        self._note_mutation(leaf, result)
        self._insert_entry(Entry(leaf.mbr(), child=leaf), level=1,
                           result=result)
        self.size += leaf.count

    def _insert_entry(self, entry: Entry, level: int,
                      result: MutationResult) -> None:
        node = self._choose_subtree(entry.rect, level, result)
        node.add(entry)
        self._note_mutation(node, result)
        self._adjust_path_mbrs(node, result)
        if node.count > self.max_entries:
            self._overflow_treatment(node, result)

    def _choose_subtree(self, rect: Rect, level: int,
                        result: MutationResult) -> Node:
        node = self.root
        visited = result.visited
        while node.level > level:
            result.nodes_visited += 1
            if visited is not None:
                visited.add(node)
            if node.level == level + 1 and node.level == 1:
                entry = self._choose_leaf_parent_entry(node, rect)
            else:
                entry = self._choose_min_enlargement_entry(node, rect)
            node = entry.child
        result.nodes_visited += 1
        if visited is not None:
            visited.add(node)
        return node

    # The two ChooseSubtree scans below are the insert-path hot loops.
    # They inline the Rect metric arithmetic (union / area / enlargement /
    # overlap_area) over the node's flat coordinate cache, preserving the
    # exact float operation order and tie-breaking of the Rect-method
    # originals so chosen subtrees — and therefore whole experiments at a
    # fixed seed — are bit-identical.

    def _choose_min_enlargement_entry(self, node: Node, rect: Rect) -> Entry:
        rminx, rminy = rect.minx, rect.miny
        rmaxx, rmaxy = rect.maxx, rect.maxy
        coords = node._coords if node._coords_ok else node.scan_coords()
        best = None
        best_enl = best_area = 0.0
        i = 0
        for entry in node.entries:
            eminx = coords[i]
            eminy = coords[i + 1]
            emaxx = coords[i + 2]
            emaxy = coords[i + 3]
            i += 4
            # union(entry.rect, rect) — min/max with Rect.union's operand
            # order (ties keep the entry's coordinate).
            uminx = rminx if rminx < eminx else eminx
            uminy = rminy if rminy < eminy else eminy
            umaxx = rmaxx if rmaxx > emaxx else emaxx
            umaxy = rmaxy if rmaxy > emaxy else emaxy
            area = (emaxx - eminx) * (emaxy - eminy)
            enl = (umaxx - uminx) * (umaxy - uminy) - area
            if (
                best is None
                or enl < best_enl
                or (enl == best_enl and area < best_area)
            ):
                best = entry
                best_enl = enl
                best_area = area
        return best

    def _choose_leaf_parent_entry(self, node: Node, rect: Rect) -> Entry:
        """Min overlap enlargement among the best candidates (R* rule).

        The winner is the first candidate with the least ``(overlap
        enlargement, area enlargement, area)``, computed as the Rect
        methods would.  Prunes make it cheap without changing it
        (docs/performance.md §7).  A candidate lies inside its enlarged
        rect, so each sibling's term ``overlap(enlarged) - overlap(own)``
        is >= +0.0 and a partial sum never falls:
        * a sibling the closed-interval test finds disjoint from the
          enlarged rect adds exactly ``0.0 - 0.0`` and is skipped;
        * a candidate is dropped once its partial sum exceeds the best
          (or only equals it, when it loses the tie-break anyway).
        """
        rminx, rminy = rect.minx, rect.miny
        rmaxx, rmaxy = rect.maxx, rect.maxy
        coords = node._coords if node._coords_ok else node.scan_coords()
        boxes = list(zip(coords[0::4], coords[1::4],
                         coords[2::4], coords[3::4]))
        # Rect.enlargement per entry: the union with Rect.union's operand
        # order (ties keep the entry's coordinate), then area - area.
        enls = []
        areas = []
        for eminx, eminy, emaxx, emaxy in boxes:
            uminx = rminx if rminx < eminx else eminx
            uminy = rminy if rminy < eminy else eminy
            umaxx = rmaxx if rmaxx > emaxx else emaxx
            umaxy = rmaxy if rmaxy > emaxy else emaxy
            area = (emaxx - eminx) * (emaxy - eminy)
            enls.append((umaxx - uminx) * (umaxy - uminy) - area)
            areas.append(area)
        candidates = range(len(boxes))
        if len(boxes) > CHOOSE_SUBTREE_CANDIDATES:
            candidates = sorted(
                candidates, key=enls.__getitem__
            )[:CHOOSE_SUBTREE_CANDIDATES]
        if math.isfinite(sum(enls)):
            # Examine the likeliest winners first, so the prunes below
            # fire early.  The winner is the same: candidates tied on
            # (overlap, enl, area) keep their order in a stable sort by
            # (enl, area).  A NaN would break that (it ties with nothing);
            # finite enlargements bound every area and overlap term by a
            # finite union area, so none can be NaN.
            candidates = sorted(candidates,
                                key=lambda c: (enls[c], areas[c]))
        best = -1
        best_overlap = best_enl = best_area = 0.0
        for c in candidates:
            enl = enls[c]
            area = areas[c]
            # Losing the (enl, area) tie-break, c must beat best_overlap
            # strictly; a sum that starts at +0.0 cannot beat 0.0.
            strict = best >= 0 and not (
                enl < best_enl or (enl == best_enl and area < best_area)
            )
            if strict and best_overlap == 0.0:
                continue
            own = boxes[c]
            eminx, eminy, emaxx, emaxy = own
            uminx = rminx if rminx < eminx else eminx
            uminy = rminy if rminy < eminy else eminy
            umaxx = rmaxx if rmaxx > emaxx else emaxx
            umaxy = rmaxy if rmaxy > emaxy else emaxy
            overlap_delta = 0.0
            for other in boxes:
                ominx, ominy, omaxx, omaxy = other
                if (
                    ominx > umaxx or omaxx < uminx
                    or ominy > umaxy or omaxy < uminy
                    or other is own
                ):
                    continue
                # enlarged.overlap_area(other.rect), known not disjoint
                ixmin = ominx if ominx > uminx else uminx
                iymin = ominy if ominy > uminy else uminy
                ixmax = omaxx if omaxx < umaxx else umaxx
                iymax = omaxy if omaxy < umaxy else umaxy
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
                if best >= 0 and (
                    overlap_delta > best_overlap
                    or (strict and overlap_delta == best_overlap)
                ):
                    break
            else:
                if (
                    best < 0
                    or overlap_delta < best_overlap
                    or (overlap_delta == best_overlap and not strict)
                ):
                    best = c
                    best_overlap = overlap_delta
                    best_enl = enl
                    best_area = area
        return node.entries[best]

    # -- overflow: forced reinsert or split ------------------------------------

    def _overflow_treatment(self, node: Node, result: MutationResult) -> None:
        if node is not self.root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._forced_reinsert(node, result)
        else:
            self._split(node, result)

    def _forced_reinsert(self, node: Node, result: MutationResult) -> None:
        """Evict the p% entries farthest from the node centre, re-insert."""
        count = max(1, int(REINSERT_FRACTION * self.max_entries))
        evicted = self._reinsert_order(node)[:count]
        for entry in evicted:
            node.remove(entry)
        node.lost_seq = self.mut_hwm
        self._note_mutation(node, result)
        self._adjust_path_mbrs(node, result)
        result.reinserted_entries += len(evicted)
        # Close reinsert: nearest first (R* experiments favour this order).
        for entry in reversed(evicted):
            self._insert_entry(entry, node.level, result)

    @staticmethod
    def _reinsert_order(node: Node) -> List[Entry]:
        """The node's entries, farthest from its MBR centre first.

        The key is ``Rect.center_distance2`` to the node MBR, read from
        the coordinate mirror with the same expression; the sort is
        stable, so ties keep entry order.
        """
        bx, by = node.mbr().center()
        coords = node._coords if node._coords_ok else node.scan_coords()
        keys = []
        for i in range(0, len(coords), 4):
            ax = (coords[i] + coords[i + 2]) / 2
            ay = (coords[i + 1] + coords[i + 3]) / 2
            keys.append((ax - bx) ** 2 + (ay - by) ** 2)
        entries = node.entries
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        return [entries[i] for i in order]

    def _split(self, node: Node, result: MutationResult) -> None:
        result.splits += 1
        group_a, group_b = self._choose_split(node.entries)
        sibling = self._new_node(node.level)
        node.entries = []
        node.invalidate()
        node.lost_seq = self.mut_hwm
        for entry in group_a:
            node.add(entry)
        for entry in group_b:
            sibling.add(entry)
        self._note_mutation(node, result)
        self._note_mutation(sibling, result)
        if node is self.root:
            new_root = self._new_node(node.level + 1)
            new_root.add(Entry(node.mbr(), child=node))
            new_root.add(Entry(sibling.mbr(), child=sibling))
            self.root = new_root
            self._note_mutation(new_root, result)
            return
        parent = node.parent
        parent.entry_for_child(node).rect = node.mbr()
        parent.invalidate()
        parent.add(Entry(sibling.mbr(), child=sibling))
        self._note_mutation(parent, result)
        self._adjust_path_mbrs(parent, result)
        if parent.count > self.max_entries:
            self._overflow_treatment(parent, result)

    def _choose_split(
        self, entries: List[Entry]
    ) -> Tuple[List[Entry], List[Entry]]:
        """R* split: choose axis by margin sum, index by overlap/area."""
        m = self.min_entries
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
            sortings = [(ordered, self._split_groups(ordered, m))
                        for ordered in (by_lower, by_upper)]
            margin_sum = 0.0
            for _ordered, groups in sortings:
                for _k, left, right in groups:
                    margin_sum += left.margin() + right.margin()
            if best_axis_margin is None or margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis_sortings = sortings
        best_key = None
        best_groups = None
        for ordered, groups in best_axis_sortings:
            for k, left, right in groups:
                key = (left.overlap_area(right),
                       left.area() + right.area())
                if best_key is None or key < best_key:
                    best_key = key
                    best_groups = (ordered[:k], ordered[k:])
        return best_groups

    @staticmethod
    def _split_groups(ordered: List[Entry],
                      m: int) -> List[Tuple[int, Rect, Rect]]:
        """``(k, MBR of ordered[:k], MBR of ordered[k:])`` for every legal
        left-group size ``k`` (both groups get at least ``m`` entries).

        One prefix and one suffix sweep instead of a ``Rect.union_of``
        per split point: O(E) per sorting, not O(E²).  The bounds equal
        ``union_of``'s as floats (a zero may differ in sign), and the
        split only compares sums and tuples of them.
        """
        rects = [e.rect for e in ordered]
        n = len(rects)
        prefix = _running_bounds(rects)         # [j]: rects[:j + 1]
        suffix = _running_bounds(rects[::-1])   # [j]: rects[n - 1 - j:]
        return [(k, Rect(*prefix[k - 1]), Rect(*suffix[n - 1 - k]))
                for k in range(m, n - m + 1)]

    # -- deletion -----------------------------------------------------------------

    def delete(self, rect: Rect, data_id: int,
               result: Optional[MutationResult] = None) -> MutationResult:
        """Remove one rectangle; returns ``ok=False`` if not present.
        Accounted into ``result`` when given, as :meth:`insert`."""
        if result is None:
            result = MutationResult()
        leaf, entry = self._find_leaf(self.root, rect, data_id, result)
        if leaf is None:
            result.ok = False
            return result
        leaf.remove(entry)
        self._note_mutation(leaf, result)
        self.size -= 1
        self.mut_hwm += 1
        self._condense_tree(leaf, result)
        self._shrink_root(result)
        return result

    def leaf_holding(self, chunk_id: int,
                     items: Sequence[Tuple[Rect, int]]) -> Optional[Node]:
        """The live non-root leaf at ``chunk_id`` if its entries are
        exactly ``items`` (in any order), else None."""
        leaf = self.nodes.get(chunk_id)
        if (leaf is None or not leaf.is_leaf or leaf is self.root
                or leaf.count != len(items)):
            return None
        held = {(entry.rect, entry.data_id) for entry in leaf.entries}
        return leaf if held == set(items) else None

    def unlink_leaf(self, leaf: Node, result: MutationResult) -> None:
        """Delete every item of a non-root leaf at once: one entry
        removal from its parent, then CondenseTree.

        Charged as the root-to-leaf path it walks (each node once in
        ``result``).  The parent is stamped with this mutation's mark as
        a condense stamps it, so a one-sided traversal that read the
        parent's older image restarts instead of following the freed
        chunk unnoticed."""
        self.mut_hwm += 1
        visited = result.visited
        node = leaf
        while node is not None:
            result.nodes_visited += 1
            if visited is not None:
                visited.add(node)
            node = node.parent
        parent = leaf.parent
        parent.remove(parent.entry_for_child(leaf))
        parent.lost_seq = self.mut_hwm
        self._note_mutation(parent, result)
        self.size -= leaf.count
        self._drop_node(leaf)
        self._condense_tree(parent, result)
        self._shrink_root(result)

    def _shrink_root(self, result: MutationResult) -> None:
        """Shrink the root while it is a lone-child internal node."""
        while not self.root.is_leaf and self.root.count == 1:
            old_root = self.root
            self.root = old_root.entries[0].child
            self.root.parent = None
            self._drop_node(old_root)
            self._note_mutation(self.root, result)

    def _find_leaf(
        self, node: Node, rect: Rect, data_id: int, result: MutationResult
    ) -> Tuple[Optional[Node], Optional[Entry]]:
        result.nodes_visited += 1
        if result.visited is not None:
            result.visited.add(node)
        entries = node.entries
        if node.is_leaf:
            for entry in entries:
                if entry.data_id == data_id and entry.rect == rect:
                    return node, entry
            return None, None
        # The search scan kernel: Rect.intersects' predicate, ascending
        # entry order, so the depth-first descent is unchanged.
        for j in _batch.node_scan_indices(node, rect.minx, rect.miny,
                                          rect.maxx, rect.maxy):
            leaf, found = self._find_leaf(entries[j].child, rect, data_id,
                                          result)
            if leaf is not None:
                return leaf, found
        return None, None

    def _condense_tree(self, node: Node, result: MutationResult) -> None:
        orphans: List[Tuple[Entry, int]] = []
        while node is not self.root:
            parent = node.parent
            if node.count < self.min_entries:
                parent.remove(parent.entry_for_child(node))
                parent.lost_seq = self.mut_hwm
                for entry in list(node.entries):
                    node.remove(entry)
                    orphans.append((entry, node.level))
                self._drop_node(node)
                self._note_mutation(parent, result)
            else:
                entry = parent.entry_for_child(node)
                entry.rect = node.mbr()
                parent.invalidate()
                self._note_mutation(parent, result)
            node = parent
        self._reinserted_levels = set()
        for entry, level in orphans:
            self._insert_entry(entry, level, result)

    # -- MBR maintenance ------------------------------------------------------------

    def _adjust_path_mbrs(self, node: Node, result: MutationResult) -> None:
        while node.parent is not None:
            parent = node.parent
            entry = parent.entry_for_child(node)
            new_mbr = node.mbr() if node.entries else entry.rect
            if new_mbr == entry.rect:
                break
            entry.rect = new_mbr
            parent.invalidate()
            self._note_mutation(parent, result)
            node = parent

    @staticmethod
    def _note_mutation(node: Node, result: MutationResult) -> None:
        if node not in result.mutated_nodes:
            result.mutated_nodes.append(node)

    # -- invariants (used by the test suite) ------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raises AssertionError on bugs."""
        seen_ids: List[int] = []
        self._validate_node(self.root, is_root=True, seen_ids=seen_ids)
        assert len(seen_ids) == self.size, (
            f"size {self.size} but {len(seen_ids)} leaf entries"
        )

    def _validate_node(self, node: Node, is_root: bool,
                       seen_ids: List[int]) -> None:
        if is_root:
            assert node.parent is None, "root has a parent"
            if not node.is_leaf:
                assert node.count >= 2, "internal root with < 2 entries"
        else:
            assert self.min_entries <= node.count <= self.max_entries, (
                f"node #{node.chunk_id} has {node.count} entries "
                f"(bounds [{self.min_entries}, {self.max_entries}])"
            )
        assert node.chunk_id in self.nodes, "node missing from registry"
        if node._coords_ok:
            # ChooseSubtree and the scans read the mirror, not entry.rect:
            # a rect rebound without invalidate() would steer them.
            assert node._coords == [
                c for e in node.entries
                for c in (e.rect.minx, e.rect.miny, e.rect.maxx, e.rect.maxy)
            ], f"stale coordinate mirror on node #{node.chunk_id}"
        for entry in node.entries:
            if node.is_leaf:
                assert entry.is_leaf_entry, "child entry in a leaf"
                seen_ids.append(entry.data_id)
            else:
                assert not entry.is_leaf_entry, "data entry in internal node"
                child = entry.child
                assert child.parent is node, "broken parent pointer"
                assert child.level == node.level - 1, "level mismatch"
                assert entry.rect == child.mbr(), (
                    f"stale MBR for child #{child.chunk_id}"
                )
                self._validate_node(child, is_root=False, seen_ids=seen_ids)


def _running_bounds(rects: List[Rect]) -> List[Tuple[float, ...]]:
    """``(minx, miny, maxx, maxy)`` of ``rects[:1]``, ``rects[:2]``, ...:
    ``Rect.union_of`` folded one rect at a time."""
    r = rects[0]
    minx, miny, maxx, maxy = r.minx, r.miny, r.maxx, r.maxy
    out = []
    for r in rects:
        if r.minx < minx:
            minx = r.minx
        if r.miny < miny:
            miny = r.miny
        if r.maxx > maxx:
            maxx = r.maxx
        if r.maxy > maxy:
            maxy = r.maxy
        out.append((minx, miny, maxx, maxy))
    return out
