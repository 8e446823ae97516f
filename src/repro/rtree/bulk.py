"""STR (Sort-Tile-Recursive) bulk loading.

The paper pre-builds a 2-million-rectangle R-tree before every experiment.
Building that incrementally with R\\* inserts is needlessly slow for
benchmarking, so the harness bulk-loads with STR (Leutenegger et al.,
ICDE'97), the standard packing algorithm.  The result is a valid R-tree
over the same API; an ablation benchmark compares search quality of STR
vs. incremental R\\* builds.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from .geometry import Rect
from .node import DEFAULT_MAX_ENTRIES, Entry, Node
from .rstar import RStarTree


def bulk_load(
    items: Sequence[Tuple[Rect, int]],
    max_entries: int = DEFAULT_MAX_ENTRIES,
    fill: float = 0.9,
    alloc_chunk: Optional[Callable[[], int]] = None,
    free_chunk: Optional[Callable[[int], None]] = None,
) -> RStarTree:
    """Build an R-tree from ``(rect, data_id)`` pairs with STR packing.

    ``fill`` is the target node occupancy (90% leaves room for inserts
    without immediate splits).
    """
    if not 0.1 < fill <= 1.0:
        raise ValueError(f"fill {fill} outside (0.1, 1.0]")
    tree = RStarTree(
        max_entries=max_entries,
        alloc_chunk=alloc_chunk,
        free_chunk=free_chunk,
    )
    if not items:
        return tree
    per_node = max(2, int(max_entries * fill))

    # Pack the leaf level.
    leaf_entries = [Entry(rect, data_id=data_id) for rect, data_id in items]
    nodes = _pack_level(tree, leaf_entries, level=0, per_node=per_node)

    # Pack upper levels until a single node remains.
    level = 1
    while len(nodes) > 1:
        child_entries = [Entry(n.mbr(), child=n) for n in nodes]
        nodes = _pack_level(tree, child_entries, level=level,
                            per_node=per_node)
        level += 1

    # Replace the placeholder root created by RStarTree().
    placeholder = tree.root
    tree.root = nodes[0]
    tree.root.parent = None
    if placeholder is not tree.root:
        tree._drop_node(placeholder)
    tree.size = len(items)
    return tree


def pack_leaves(tree: RStarTree,
                items: Sequence[Tuple[Rect, int]]) -> List[Node]:
    """STR-pack ``items`` (at least ``tree.min_entries``) into full leaves
    of ``tree``, not yet linked under a parent: one leaf when they fit
    in one node."""
    entries = [Entry(rect, data_id=data_id) for rect, data_id in items]
    return _pack_level(tree, entries, level=0, per_node=tree.max_entries)


def _pack_level(
    tree: RStarTree, entries: List[Entry], level: int, per_node: int
) -> List[Node]:
    """One STR pass: tile by x, sort tiles by y, cut into nodes."""
    n_nodes = math.ceil(len(entries) / per_node)
    n_slices = max(1, math.ceil(math.sqrt(n_nodes)))
    slice_size = n_slices * per_node

    def cx(entry: Entry) -> float:
        return entry.rect.center()[0]

    def cy(entry: Entry) -> float:
        return entry.rect.center()[1]

    by_x = sorted(entries, key=cx)
    nodes: List[Node] = []
    for start in range(0, len(by_x), slice_size):
        chunk = sorted(by_x[start:start + slice_size], key=cy)
        for node_start in range(0, len(chunk), per_node):
            group = chunk[node_start:node_start + per_node]
            node = tree._new_node(level)
            for entry in group:
                node.add(entry)
            nodes.append(node)
    _rebalance_tiny_tail(nodes, tree.min_entries)
    return nodes


def _rebalance_tiny_tail(nodes: List[Node], minimum: int) -> None:
    """STR can leave a last node below the minimum fill; borrow entries
    from its predecessor so tree invariants hold."""
    if len(nodes) < 2:
        return
    last, prev = nodes[-1], nodes[-2]
    while last.count < minimum and prev.count > minimum:
        entry = prev.entries[-1]
        prev.remove(entry)
        last.add(entry)
