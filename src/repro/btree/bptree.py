"""A B+tree — the first of the paper's §VI framework extensions.

"Catfish is a framework for accessing link-based data structures over
RDMA, such as B+tree and Cuckoo hashing."  This module provides the
B+tree itself: a textbook implementation with

* fixed-capacity nodes tied to registered-memory chunks (like the R-tree);
* a sorted leaf chain (``next_leaf``) for range scans;
* the same write-window versioning hooks the R-tree nodes expose, so
  FaRM-style one-sided reads validate identically.

Keys are integers, values are opaque integer tokens (their byte footprint
is accounted by the message codec).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..rtree.node import VersionedChunk

DEFAULT_CAPACITY = 64


@dataclass
class KvMutationResult:
    """Accounting for one put (mirrors the R-tree's version)."""

    nodes_visited: int = 0
    mutated_nodes: List["BNode"] = field(default_factory=list)
    splits: int = 0

    def note(self, node: "BNode") -> None:
        if node not in self.mutated_nodes:
            self.mutated_nodes.append(node)


@dataclass
class KvSearchResult:
    """Accounting for one get/scan."""

    items: List[Tuple[int, int]] = field(default_factory=list)
    nodes_visited: int = 0
    visited_chunks: List[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.items)


class BNode(VersionedChunk):
    """Shared base of the leaves and inner nodes: a versioned chunk with
    a parent link."""

    __slots__ = ("parent",)

    def __init__(self, chunk_id: int):
        super().__init__(chunk_id)
        self.parent: Optional["BInner"] = None

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError


class BLeaf(BNode):
    __slots__ = ("keys", "values", "next_leaf")

    def __init__(self, chunk_id: int):
        super().__init__(chunk_id)
        self.keys: List[int] = []
        self.values: List[int] = []
        self.next_leaf: Optional["BLeaf"] = None

    @property
    def is_leaf(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"<BLeaf #{self.chunk_id} n={len(self.keys)}>"


class BInner(BNode):
    __slots__ = ("keys", "children")

    def __init__(self, chunk_id: int):
        super().__init__(chunk_id)
        #: ``len(children) == len(keys) + 1``; subtree ``children[i]``
        #: holds keys < keys[i] (and >= keys[i-1]).
        self.keys: List[int] = []
        self.children: List[BNode] = []

    @property
    def is_leaf(self) -> bool:
        return False

    def child_index_for(self, key: int) -> int:
        return bisect.bisect_right(self.keys, key)

    def adopt(self, child: BNode) -> None:
        child.parent = self

    def __repr__(self) -> str:
        return f"<BInner #{self.chunk_id} n={len(self.keys)}>"


class BPlusTree:
    """A B+tree over integer keys with chunk-allocated nodes."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        alloc_chunk: Optional[Callable[[], int]] = None,
        free_chunk: Optional[Callable[[int], None]] = None,
    ):
        if capacity < 4:
            raise ValueError(f"capacity must be >= 4, got {capacity}")
        self.capacity = capacity
        self.min_fill = capacity // 2
        self._counter = itertools.count()
        self._alloc = alloc_chunk or (lambda: next(self._counter))
        self._free = free_chunk or (lambda chunk_id: None)
        self.nodes: Dict[int, BNode] = {}
        self.root: BNode = self._new_leaf()
        self.size = 0

    # -- node lifecycle -----------------------------------------------------

    def _register(self, node: BNode) -> BNode:
        self.nodes[node.chunk_id] = node
        return node

    def _new_leaf(self) -> BLeaf:
        return self._register(BLeaf(self._alloc()))

    def _new_inner(self) -> BInner:
        return self._register(BInner(self._alloc()))

    def _drop(self, node: BNode) -> None:
        del self.nodes[node.chunk_id]
        self._free(node.chunk_id)

    @property
    def height(self) -> int:
        height = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    # -- lookup ---------------------------------------------------------------

    def _descend(self, key: int, result) -> BLeaf:
        node = self.root
        result.nodes_visited += 1
        if hasattr(result, "visited_chunks"):
            result.visited_chunks.append(node.chunk_id)
        while not node.is_leaf:
            node = node.children[node.child_index_for(key)]
            result.nodes_visited += 1
            if hasattr(result, "visited_chunks"):
                result.visited_chunks.append(node.chunk_id)
        return node

    def get(self, key: int) -> KvSearchResult:
        """Point lookup; ``items`` holds [(key, value)] or is empty."""
        result = KvSearchResult()
        leaf = self._descend(key, result)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            result.items.append((key, leaf.values[index]))
        return result

    def range_scan(self, lo: int, hi: int,
                   max_results: Optional[int] = None) -> KvSearchResult:
        """All (key, value) with lo <= key <= hi, in key order."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        result = KvSearchResult()
        leaf = self._descend(lo, result)
        while leaf is not None:
            start = bisect.bisect_left(leaf.keys, lo)
            for i in range(start, len(leaf.keys)):
                if leaf.keys[i] > hi:
                    return result
                result.items.append((leaf.keys[i], leaf.values[i]))
                if max_results is not None and result.count >= max_results:
                    return result
            leaf = leaf.next_leaf
            if leaf is not None:
                result.nodes_visited += 1
                result.visited_chunks.append(leaf.chunk_id)
        return result

    # -- insertion ----------------------------------------------------------------

    def put(self, key: int, value: int) -> KvMutationResult:
        """Insert or overwrite."""
        result = KvMutationResult()
        leaf = self._descend(key, result)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value  # overwrite
        else:
            leaf.keys.insert(index, key)
            leaf.values.insert(index, value)
            self.size += 1
        result.note(leaf)
        if len(leaf.keys) > self.capacity:
            self._split_leaf(leaf, result)
        return result

    def _split_leaf(self, leaf: BLeaf, result: KvMutationResult) -> None:
        result.splits += 1
        sibling = self._new_leaf()
        mid = len(leaf.keys) // 2
        sibling.keys = leaf.keys[mid:]
        sibling.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        sibling.next_leaf = leaf.next_leaf
        leaf.next_leaf = sibling
        result.note(leaf)
        result.note(sibling)
        self._insert_in_parent(leaf, sibling.keys[0], sibling, result)

    def _split_inner(self, inner: BInner, result: KvMutationResult) -> None:
        result.splits += 1
        sibling = self._new_inner()
        mid = len(inner.keys) // 2
        push_up = inner.keys[mid]
        sibling.keys = inner.keys[mid + 1:]
        sibling.children = inner.children[mid + 1:]
        inner.keys = inner.keys[:mid]
        inner.children = inner.children[:mid + 1]
        for child in sibling.children:
            sibling.adopt(child)
        result.note(inner)
        result.note(sibling)
        self._insert_in_parent(inner, push_up, sibling, result)

    def _insert_in_parent(self, left: BNode, key: int, right: BNode,
                          result: KvMutationResult) -> None:
        parent = left.parent
        if parent is None:
            new_root = self._new_inner()
            new_root.keys = [key]
            new_root.children = [left, right]
            new_root.adopt(left)
            new_root.adopt(right)
            self.root = new_root
            result.note(new_root)
            return
        index = parent.children.index(left)
        parent.keys.insert(index, key)
        parent.children.insert(index + 1, right)
        parent.adopt(right)
        result.note(parent)
        if len(parent.children) > self.capacity:
            self._split_inner(parent, result)

    # -- bulk loading ------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        items: List[Tuple[int, int]],
        capacity: int = DEFAULT_CAPACITY,
        fill: float = 0.9,
        alloc_chunk: Optional[Callable[[], int]] = None,
        free_chunk: Optional[Callable[[int], None]] = None,
    ) -> "BPlusTree":
        """Build from (key, value) pairs; keys must be unique."""
        tree = cls(capacity=capacity, alloc_chunk=alloc_chunk,
                   free_chunk=free_chunk)
        if not items:
            return tree
        ordered = sorted(items)
        keys = [k for k, _ in ordered]
        if len(set(keys)) != len(keys):
            raise ValueError("bulk_load requires unique keys")
        per_node = max(2, int(capacity * fill))

        placeholder = tree.root
        leaves: List[BLeaf] = []
        for start in range(0, len(ordered), per_node):
            chunk = ordered[start:start + per_node]
            leaf = tree._new_leaf()
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        if len(leaves) > 1 and len(leaves[-1].keys) < tree.min_fill:
            # Borrow from the predecessor so fill invariants hold.
            prev, last = leaves[-2], leaves[-1]
            while len(last.keys) < tree.min_fill:
                last.keys.insert(0, prev.keys.pop())
                last.values.insert(0, prev.values.pop())

        level: List[BNode] = list(leaves)
        while len(level) > 1:
            parents: List[BInner] = []
            for start in range(0, len(level), per_node):
                group = level[start:start + per_node]
                inner = tree._new_inner()
                inner.children = list(group)
                inner.keys = [
                    tree._leftmost_key(child) for child in group[1:]
                ]
                for child in group:
                    inner.adopt(child)
                parents.append(inner)
            if len(parents) > 1 and len(parents[-1].children) < tree.min_fill:
                prev, last = parents[-2], parents[-1]
                while len(last.children) < tree.min_fill:
                    child = prev.children.pop()
                    last.children.insert(0, child)
                    last.adopt(child)
                # Separators are the leftmost keys of all but the first
                # child; rebuild both affected nodes.
                prev.keys = [tree._leftmost_key(c)
                             for c in prev.children[1:]]
                last.keys = [tree._leftmost_key(c)
                             for c in last.children[1:]]
            level = list(parents)
        tree.root = level[0]
        tree.root.parent = None
        tree._drop(placeholder)
        tree.size = len(ordered)
        return tree

    def _leftmost_key(self, node: BNode) -> int:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]
