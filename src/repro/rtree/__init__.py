"""The R\\*-tree and its concurrency/serialization machinery."""

from .batch import (
    HAVE_NUMPY,
    BatchSearchEngine,
    QueryBatch,
    kernel_name,
)
from .bulk import bulk_load
from .geometry import Rect
from .locks import RWLock, TreeLockManager
from .node import DEFAULT_MAX_ENTRIES, Entry, Node, min_entries
from .rstar import MutationResult, RStarTree, SearchResult
from .serialize import (
    CACHE_LINE,
    ENTRY_SIZE,
    HEADER_SIZE,
    NodeView,
    UnpackedNode,
    chunk_size,
    pack_node,
    snapshot_node,
    unpack_node,
)
from .versioning import WriteTracker

__all__ = [
    "HAVE_NUMPY",
    "BatchSearchEngine",
    "QueryBatch",
    "kernel_name",
    "bulk_load",
    "Rect",
    "RWLock",
    "TreeLockManager",
    "DEFAULT_MAX_ENTRIES",
    "Entry",
    "Node",
    "min_entries",
    "MutationResult",
    "RStarTree",
    "SearchResult",
    "CACHE_LINE",
    "ENTRY_SIZE",
    "HEADER_SIZE",
    "NodeView",
    "UnpackedNode",
    "chunk_size",
    "pack_node",
    "snapshot_node",
    "unpack_node",
    "WriteTracker",
]
