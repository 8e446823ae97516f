"""B+tree over the Catfish framework (paper §VI extension)."""

from .bptree import (
    BInner,
    BLeaf,
    BNode,
    BPlusTree,
    KvMutationResult,
    KvSearchResult,
)
from .offload import (
    OP_GET,
    OP_PUT,
    OP_SCAN,
    BTreeOffloadEngine,
    KvFmSession,
    KvRequest,
)
from .serialize import BNodeSnapshot, snapshot_bnode
from .service import BTreeService

__all__ = [
    "BInner",
    "BLeaf",
    "BNode",
    "BPlusTree",
    "KvMutationResult",
    "KvSearchResult",
    "OP_GET",
    "OP_PUT",
    "OP_SCAN",
    "BTreeOffloadEngine",
    "KvFmSession",
    "KvRequest",
    "BNodeSnapshot",
    "BTreeService",
    "snapshot_bnode",
]
