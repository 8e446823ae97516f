"""Structural invariants of the two KV indexes, asserted by their tests.

``validate_bptree`` checks key order and bounds, node fill, parent
pointers, the leaf chain and the size count of a :class:`BPlusTree`;
``validate_cuckoo`` checks that every key sits in one of its two
candidate buckets, once, and that the size count matches.
"""

from typing import Dict, List

from repro.btree import BPlusTree
from repro.btree.bptree import BLeaf
from repro.cuckoo import CuckooHashTable


def validate_bptree(tree: BPlusTree) -> None:
    leaves: List[BLeaf] = []
    count = _validate_node(tree, tree.root, None, None, True, leaves)
    assert count == tree.size, f"size {tree.size} but {count} keys"
    # Leaf chain covers every leaf, in order.
    if leaves:
        chain = []
        node = leaves[0]
        while node is not None:
            chain.append(node)
            node = node.next_leaf
        assert chain == leaves, "broken leaf chain"
        flat = [k for leaf in leaves for k in leaf.keys]
        assert flat == sorted(flat), "leaf keys out of order"
        assert len(flat) == len(set(flat)), "duplicate keys"


def _validate_node(tree, node, lo, hi, is_root, leaves) -> int:
    if node.is_leaf:
        assert node.keys == sorted(node.keys)
        assert len(node.keys) == len(node.values)
        if not is_root:
            assert len(node.keys) >= tree.min_fill, (
                f"leaf #{node.chunk_id} underfull: {len(node.keys)}"
            )
        assert len(node.keys) <= tree.capacity
        for key in node.keys:
            assert lo is None or key >= lo, f"key {key} below {lo}"
            assert hi is None or key < hi, f"key {key} not below {hi}"
        leaves.append(node)
        return len(node.keys)
    assert len(node.children) == len(node.keys) + 1
    assert node.keys == sorted(node.keys)
    if not is_root:
        assert len(node.children) >= tree.min_fill
    else:
        assert len(node.children) >= 2
    assert len(node.children) <= tree.capacity
    total = 0
    bounds = [lo] + list(node.keys) + [hi]
    for i, child in enumerate(node.children):
        assert child.parent is node, "broken parent pointer"
        total += _validate_node(tree, child, bounds[i], bounds[i + 1],
                                False, leaves)
    return total


def validate_cuckoo(table: CuckooHashTable) -> None:
    seen: Dict[int, int] = {}
    total = 0
    for bucket in table.buckets:
        assert len(bucket.entries) <= table.slots_per_bucket
        for k, _v in bucket.entries:
            assert k not in seen, (
                f"key {k} in buckets {seen[k]} and {bucket.chunk_id}")
            seen[k] = bucket.chunk_id
            h1, h2 = table.bucket_indices(k)
            assert bucket.chunk_id in (h1, h2), (
                f"key {k} in bucket {bucket.chunk_id}, candidates "
                f"({h1}, {h2})"
            )
            total += 1
    assert total == table.size, f"size {table.size} but {total} entries"
