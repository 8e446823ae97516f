"""Vectorized node-scan kernels and the cross-query batch search engine.

Following SIMD-ified R-tree Query Processing (Rayhan & Aref), the
per-entry intersection test over a node can be evaluated as **one numpy
broadcast** over the node's flat ``[minx, miny, maxx, maxy]`` coordinate
mirror instead of a Python loop.  Going beyond that paper, the
:class:`BatchSearchEngine` batches *across queries*: a group of
concurrent searches shares one frontier traversal, testing a whole
``(Q x E)`` query-by-entry matrix per node, so one scan of a hot node
(and, on the offload path, one RDMA chunk read) serves many requests.

Three layers live here:

* **kernel selection** — one kernel per platform, fixed at import: the
  batched ``(Q x E)`` kernels are numpy broadcasts if and only if numpy
  can be imported (the ``[accel]`` extra), else pure-Python loops that
  must stay green (the tier-1 CI matrix runs without numpy).
  Single-query scans and MINDIST always run the tight Python loop: at
  the <=64-entry node size a numpy call's fixed dispatch overhead makes
  a broadcast lose to the short-circuiting loop (replaying the 30 420
  server scans of one closed-search bench run, 42.6 entries and 1.7
  hits each, on a shared 2-core x86 box: 4.5–4.8µs per scan for the
  loop, 7.7–10µs for a broadcast over the packed ``(4, E)`` matrix),
  while one batched broadcast serves a whole query group.
* **scan kernels** — :func:`node_scan_indices` /
  :func:`view_scan_indices` (single-query intersection over one node),
  :func:`node_min_dist2` / :func:`view_min_dist2` (kNN MINDIST), and
  :func:`batch_leaf_hits` / :func:`batch_child_sets` (the ``(Q x E)``
  matrix test).  All of them implement the exact closed-interval
  predicate and float operation order of ``Rect.intersects`` /
  ``Rect.min_dist2_point``, so the numpy and Python batch kernels
  return bit-identical results.
* **the batch engine** — :class:`BatchSearchEngine` runs a shared
  depth-first frontier (node -> the set of still-interested queries)
  and returns per-query :class:`~repro.rtree.rstar.SearchResult`
  objects **identical to sequential** ``RStarTree.search``, including
  match order and per-query traversal accounting.

Why the shared DFS preserves per-query order: a child's query set is
always a subset of its parent's, so for any single query ``q`` the
subsequence of shared-stack pops containing ``q`` evolves exactly like
``q``'s private LIFO stack — pops and pushes of ``q``-free nodes cannot
reorder the ``q``-nodes among themselves.  Each tree node is popped at
most once per batch (query sets merge at the parent), which is where
the amortization comes from.

The closed-interval test ``e.minx <= q.maxx and e.maxx >= q.minx and
e.miny <= q.maxy and e.maxy >= q.miny`` is evaluated in packed form by
the numpy batch kernels: per node a ``(4, E)`` matrix ``[minx, miny,
-maxx, -maxy]`` and per batch a ``(Q, 4)`` matrix ``[maxx, maxy,
-minx, -miny]`` turn all four axis comparisons into one ``<=``
broadcast plus one ``all`` reduction — two array ops per node instead
of eleven, which matters when interest sets are small.  Negation is
exact in IEEE-754, so the packed form decides exactly the same
predicate.  The packed matrix is the only numpy mirror: it is cached
per node keyed on ``Node.mut_seq`` (and built once per immutable
:class:`~repro.rtree.serialize.NodeView`), so a static tree pays the
list-to-ndarray conversion once per node, not per query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from .geometry import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (rstar uses us)
    from .node import Node
    from .rstar import RStarTree, SearchResult
    from .serialize import NodeView

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when numpy importable at all (the ``[accel]`` extra is present).
HAVE_NUMPY = _np is not None

#: Whether the batch kernels run as numpy broadcasts.  Private seam:
#: the fallback-equivalence tests and the claims ``fallback`` column
#: flip it to ``False`` inside a ``try``/``finally``.
_np_batch = HAVE_NUMPY


def kernel_name() -> str:
    """The active scan-kernel flavour: ``"numpy"`` when the batched
    kernels run as numpy broadcasts, else ``"python"``."""
    return "numpy" if _np_batch else "python"


# -- packed-matrix mirrors ----------------------------------------------------
#
# The numpy batch kernels scan a per-node packed (4, E) matrix derived
# from the existing flat coordinate list (see the module docstring).
# Nodes key theirs on ``mut_seq`` so any structural mutation
# invalidates the ndarray mirror exactly like the list mirror; NodeView
# snapshots are immutable, so theirs is built at most once.


def _packed_from_coords(coords: List[float], count: int):
    """The ``(4, E)`` matrix ``[minx, miny, -maxx, -maxy]``."""
    rows = _np.asarray(coords, dtype=_np.float64).reshape(count, 4)
    packed = rows.T.copy()
    _np.negative(packed[2:], out=packed[2:])
    return packed


def node_packed(node: "Node"):
    """The node's packed mirror, rebuilt when ``mut_seq`` moved."""
    if node._np_seq != node.mut_seq or node._np_packed is None:
        coords = node._coords if node._coords_ok else node.scan_coords()
        node._np_packed = _packed_from_coords(coords, len(node.entries))
        node._np_seq = node.mut_seq
    return node._np_packed


def view_packed(view: "NodeView"):
    """The view's packed mirror (views are immutable: built once)."""
    packed = view._np_packed
    if packed is None:
        packed = _packed_from_coords(view.scan_coords(), len(view.entries))
        view._np_packed = packed
    return packed


# -- single-query scan kernels ------------------------------------------------


def _scan_indices_py(coords: List[float], count: int,
                     qminx: float, qminy: float,
                     qmaxx: float, qmaxy: float) -> List[int]:
    """Pure-Python closed-interval scan over a flat coordinate mirror."""
    out: List[int] = []
    i = 0
    for j in range(count):
        if (
            coords[i] <= qmaxx
            and coords[i + 2] >= qminx
            and coords[i + 1] <= qmaxy
            and coords[i + 3] >= qminy
        ):
            out.append(j)
        i += 4
    return out


def node_scan_indices(node: "Node", qminx: float, qminy: float,
                      qmaxx: float, qmaxy: float) -> List[int]:
    """Entry indices of ``node`` intersecting the query window, in
    ascending entry order."""
    coords = node._coords if node._coords_ok else node.scan_coords()
    return _scan_indices_py(coords, len(node.entries),
                            qminx, qminy, qmaxx, qmaxy)


def view_scan_indices(view: "NodeView", qminx: float, qminy: float,
                      qmaxx: float, qmaxy: float) -> List[int]:
    """Entry indices of a :class:`NodeView` intersecting the window."""
    return _scan_indices_py(view.scan_coords(), len(view.entries),
                            qminx, qminy, qmaxx, qmaxy)


def _min_dist2_py(coords: List[float], count: int,
                  x: float, y: float) -> List[float]:
    """Per-entry squared MINDIST, mirroring ``Rect.min_dist2_point``."""
    out: List[float] = []
    i = 0
    for _ in range(count):
        dx = max(coords[i] - x, 0.0, x - coords[i + 2])
        dy = max(coords[i + 1] - y, 0.0, y - coords[i + 3])
        out.append(dx * dx + dy * dy)
        i += 4
    return out


def node_min_dist2(node: "Node", x: float, y: float) -> List[float]:
    """Squared MINDIST from ``(x, y)`` to every entry of ``node``."""
    coords = node._coords if node._coords_ok else node.scan_coords()
    return _min_dist2_py(coords, len(node.entries), x, y)


def view_min_dist2(view: "NodeView", x: float, y: float) -> List[float]:
    """Squared MINDIST from ``(x, y)`` to every entry of a view."""
    return _min_dist2_py(view.scan_coords(), len(view.entries), x, y)


# -- cross-query batch kernel --------------------------------------------------


class QueryBatch:
    """A group of query windows in structure-of-arrays form.

    Holds the packed ``(Q, 4)`` comparison matrix (numpy batch kernel)
    or per-axis lists (python kernel) over all queries, plus
    ``all_sel`` — the selector naming every query — which the
    traversals narrow into per-node interest sets.
    """

    __slots__ = ("queries", "packed", "minx", "miny", "maxx", "maxy",
                 "all_sel")

    def __init__(self, queries: Sequence[Rect]):
        self.queries: List[Rect] = list(queries)
        n = len(self.queries)
        if _np_batch:
            packed = _np.empty((n, 4), dtype=_np.float64)
            for i, q in enumerate(self.queries):
                packed[i, 0] = q.maxx
                packed[i, 1] = q.maxy
                packed[i, 2] = -q.minx
                packed[i, 3] = -q.miny
            self.packed = packed
            self.minx = self.miny = self.maxx = self.maxy = None
            self.all_sel = _np.arange(n)
        else:
            self.packed = None
            self.minx = [q.minx for q in self.queries]
            self.miny = [q.miny for q in self.queries]
            self.maxx = [q.maxx for q in self.queries]
            self.maxy = [q.maxy for q in self.queries]
            self.all_sel = list(range(n))

    def __len__(self) -> int:
        return len(self.queries)

    @staticmethod
    def sel_list(qsel) -> List[int]:
        """A selector as a plain list of query indices."""
        return qsel if isinstance(qsel, list) else qsel.tolist()


def _batch_mask(packed, qb: QueryBatch, qsel):
    """The (|qsel|, E) boolean intersection matrix (numpy kernel).

    ``packed[:, e] <= qb.packed[q]`` in all four slots is exactly the
    closed-interval intersection test (see module docstring): one
    gather, one broadcast compare, one reduction.
    """
    return (packed[None, :, :] <= qb.packed[qsel][:, :, None]).all(axis=1)


def batch_leaf_hits(source, count: int, qb: QueryBatch,
                    qsel) -> List[Tuple[int, List[int]]]:
    """Hits of a leaf grouped per query: ``[(row, entry_idxs), ...]``.

    Rows index into ``qsel`` (the node's interest set) and come out
    ascending; each row's entry indices are ascending too — exactly
    sequential per-query match order, ready for one ``extend`` per
    (query, leaf) pair instead of per-hit Python work.  ``source`` is
    the node's packed matrix (numpy kernel) or flat coordinate list
    (python kernel).
    """
    if _np_batch:
        rows, entries = _np.nonzero(_batch_mask(source, qb, qsel))
        n = rows.shape[0]
        if n == 0:
            return []
        cuts = _np.flatnonzero(rows[1:] != rows[:-1])
        rows_list = rows.tolist()
        ents_list = entries.tolist()
        out = []
        start = 0
        for cut in cuts.tolist():
            out.append((rows_list[start], ents_list[start:cut + 1]))
            start = cut + 1
        out.append((rows_list[start], ents_list[start:]))
        return out
    coords = source
    out = []
    for row, q in enumerate(qsel):
        qminx = qb.minx[q]
        qminy = qb.miny[q]
        qmaxx = qb.maxx[q]
        qmaxy = qb.maxy[q]
        hits: List[int] = []
        i = 0
        for e in range(count):
            if (
                coords[i] <= qmaxx
                and coords[i + 2] >= qminx
                and coords[i + 1] <= qmaxy
                and coords[i + 3] >= qminy
            ):
                hits.append(e)
            i += 4
        if hits:
            out.append((row, hits))
    return out


def batch_child_sets(source, count: int, qb: QueryBatch, qsel) -> List:
    """Per-entry interest sets of an internal node.

    Returns ``[(entry_idx, sub_qsel), ...]`` in ascending entry order,
    skipping entries no query intersects.  ``sub_qsel`` is a selector
    in the same representation as ``qsel`` (ndarray or list) with its
    queries in the same relative order, which is what keeps per-query
    traversal order identical to a private DFS.
    """
    if _np_batch:
        # Transposed nonzero sorts hits by entry, then by row; one
        # gather maps rows back to query ids and cheap slices carve the
        # per-entry segments — no per-entry fancy indexing.
        ent, rows = _np.nonzero(_batch_mask(source, qb, qsel).T)
        n = ent.shape[0]
        if n == 0:
            return []
        qhit = qsel[rows]
        cuts = _np.flatnonzero(ent[1:] != ent[:-1])
        ent_list = ent.tolist()
        out = []
        start = 0
        for cut in cuts.tolist():
            out.append((ent_list[start], qhit[start:cut + 1]))
            start = cut + 1
        out.append((ent_list[start], qhit[start:]))
        return out
    coords = source
    out = []
    for e in range(count):
        i = 4 * e
        eminx = coords[i]
        eminy = coords[i + 1]
        emaxx = coords[i + 2]
        emaxy = coords[i + 3]
        sub = [
            q for q in qsel
            if (
                eminx <= qb.maxx[q]
                and emaxx >= qb.minx[q]
                and eminy <= qb.maxy[q]
                and emaxy >= qb.miny[q]
            )
        ]
        if sub:
            out.append((e, sub))
    return out


def node_leaf_payload(node: "Node") -> List[Tuple[Rect, int]]:
    """The leaf's per-entry ``(rect, data_id)`` tuples, mut_seq-cached.

    The batched scatter extends per-query match lists with these
    prebuilt tuples (one C-level ``map`` per (query, leaf) pair), so
    the per-hit cost is an index instead of two attribute reads and a
    tuple construction.
    """
    if node._payload_seq != node.mut_seq or node._payload is None:
        node._payload = [(e.rect, e.data_id) for e in node.entries]
        node._payload_seq = node.mut_seq
    return node._payload


def node_scan_source(node: "Node"):
    """What the batch kernels scan for a live node (kernel-dependent)."""
    if _np_batch:
        return node_packed(node)
    return node._coords if node._coords_ok else node.scan_coords()


def view_scan_source(view: "NodeView"):
    """What the batch kernels scan for a node view (kernel-dependent)."""
    if _np_batch:
        return view_packed(view)
    return view.scan_coords()


# -- the batch search engine ---------------------------------------------------


class BatchSearchEngine:
    """Cross-query batched range search over an :class:`RStarTree`.

    ``search_batch`` runs one shared depth-first frontier for the whole
    query group: each tree node is scanned (and, in the simulated
    system, visited) **once per batch** no matter how many queries reach
    it, with the per-node intersection test evaluated as one
    ``(Q x E)`` matrix.  The returned per-query results are identical
    to calling ``tree.search(q)`` per query — same matches in the same
    order, same ``nodes_visited`` / ``leaf_nodes_visited`` /
    ``visited_chunks`` accounting — so batching is purely a wall-clock
    (and, offloaded, an RTT) optimization, never a semantic one.
    """

    def __init__(self, tree: "RStarTree"):
        self.tree = tree
        #: Batches served, queries served, and shared node pops (cheap
        #: introspection for the benchmark harness and the obs layer:
        #: total per-query visits / shared_visits is the amortization
        #: factor batching achieved).
        self.batches_served = 0
        self.queries_served = 0
        self.shared_visits = 0

    def search_batch(self, queries: Sequence[Rect]) -> List["SearchResult"]:
        """Per-query results for a group of range queries."""
        from .rstar import SearchResult

        results = [SearchResult() for _ in queries]
        self.batches_served += 1
        self.queries_served += len(results)
        if not results:
            return results
        qb = QueryBatch(queries)
        shared_visits = 0
        # Per-visit accounting runs once per (query, node) pair — the
        # only O(total visits) loop left — so it is pared down to one
        # chunk append; ``nodes_visited`` is recovered as
        # ``len(visited_chunks)`` (sequential search appends exactly
        # one chunk per pop) and leaf counts come from a side array.
        visited = [r.visited_chunks for r in results]
        res_matches = [r.matches for r in results]
        leaf_visits = [0] * len(results)
        stack: List[Tuple] = [(self.tree.root, qb.all_sel)]
        push = stack.append
        while stack:
            node, qsel = stack.pop()
            shared_visits += 1
            qlist = QueryBatch.sel_list(qsel)
            chunk_id = node.chunk_id
            entries = node.entries
            if node.level == 0:
                for q in qlist:
                    visited[q].append(chunk_id)
                    leaf_visits[q] += 1
                if entries:
                    getp = node_leaf_payload(node).__getitem__
                    for row, ent_idxs in batch_leaf_hits(
                        node_scan_source(node), len(entries), qb, qsel
                    ):
                        res_matches[qlist[row]].extend(map(getp, ent_idxs))
            else:
                for q in qlist:
                    visited[q].append(chunk_id)
                if entries:
                    # Ascending entry order + LIFO pops = the private
                    # DFS every query would have run on its own.
                    for e_idx, sub in batch_child_sets(
                        node_scan_source(node), len(entries), qb, qsel
                    ):
                        push((entries[e_idx].child, sub))
        for q, result in enumerate(results):
            result.nodes_visited = len(result.visited_chunks)
            result.leaf_nodes_visited = leaf_visits[q]
        self.shared_visits += shared_visits
        return results
