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
    OP_KV_DELETE,
    OP_PUT,
    OP_SCAN,
    BTreeOffloadEngine,
    KvFmSession,
    KvRequest,
)
from .service import (
    BNodeSnapshot,
    BTreeService,
    BTreeSnapshotReader,
    KvMeta,
    KvOffloadDescriptor,
    snapshot_bnode,
)

__all__ = [
    "BInner",
    "BLeaf",
    "BNode",
    "BPlusTree",
    "KvMutationResult",
    "KvSearchResult",
    "OP_GET",
    "OP_KV_DELETE",
    "OP_PUT",
    "OP_SCAN",
    "BTreeOffloadEngine",
    "KvFmSession",
    "KvRequest",
    "BNodeSnapshot",
    "BTreeService",
    "BTreeSnapshotReader",
    "KvMeta",
    "KvOffloadDescriptor",
    "snapshot_bnode",
]
