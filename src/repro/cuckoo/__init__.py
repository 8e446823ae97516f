"""Cuckoo hashing over the Catfish framework (paper §VI extension)."""

from .service import (
    BUCKET_BYTES,
    BucketSnapshot,
    CuckooDescriptor,
    CuckooOffloadEngine,
    CuckooService,
    snapshot_bucket,
)
from .table import (
    DEFAULT_SLOTS,
    MAX_KICKS,
    Bucket,
    CuckooFullError,
    CuckooHashTable,
    CuckooOpResult,
)

__all__ = [
    "BUCKET_BYTES",
    "BucketSnapshot",
    "CuckooDescriptor",
    "CuckooOffloadEngine",
    "CuckooService",
    "snapshot_bucket",
    "DEFAULT_SLOTS",
    "MAX_KICKS",
    "Bucket",
    "CuckooFullError",
    "CuckooHashTable",
    "CuckooOpResult",
]
