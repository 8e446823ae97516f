"""A cuckoo hash table — the second §VI framework extension.

2-choice cuckoo hashing with multi-slot buckets (4-way associativity, the
standard configuration): every key lives in one of exactly two candidate
buckets; inserts displace ("kick") residents along a bounded random walk.

Buckets carry the same write-window versioning protocol as the tree nodes
so one-sided readers validate snapshots identically — and because the two
candidate buckets are known from the key alone, an offloaded GET needs a
single round trip of two concurrent RDMA Reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..rtree.node import VersionedChunk

DEFAULT_SLOTS = 4
MAX_KICKS = 500

_SALT1 = 0x9E3779B97F4A7C15
_SALT2 = 0xC2B2AE3D27D4EB4F


def _mix(value: int, salt: int) -> int:
    """A 64-bit finalizer (xorshift-multiply), deterministic across runs."""
    value = (value ^ salt) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 33
    return value


class CuckooFullError(Exception):
    """An insert exhausted its kick budget — the table is effectively full."""


class Bucket(VersionedChunk):
    """One bucket: up to ``slots`` (key, value) pairs; its chunk id is
    its index in the table."""

    __slots__ = ("entries",)

    def __init__(self, index: int):
        super().__init__(index)
        self.entries: List[Tuple[int, int]] = []

    def find(self, key: int) -> Optional[int]:
        for k, v in self.entries:
            if k == key:
                return v
        return None

    def __repr__(self) -> str:
        return f"<Bucket {self.chunk_id} n={len(self.entries)}>"


@dataclass
class CuckooOpResult:
    """Accounting for one table operation."""

    items: List[Tuple[int, int]] = field(default_factory=list)
    buckets_probed: int = 0
    kicks: int = 0
    mutated_nodes: List[Bucket] = field(default_factory=list)
    visited_chunks: List[int] = field(default_factory=list)

    def note(self, bucket: Bucket) -> None:
        if bucket not in self.mutated_nodes:
            self.mutated_nodes.append(bucket)


class CuckooHashTable:
    """2-choice, multi-slot cuckoo hashing over integer keys."""

    def __init__(
        self,
        n_buckets: int,
        slots_per_bucket: int = DEFAULT_SLOTS,
        seed: int = 0,
        max_kicks: int = MAX_KICKS,
    ):
        if n_buckets < 2:
            raise ValueError(f"need >= 2 buckets, got {n_buckets}")
        if slots_per_bucket < 1:
            raise ValueError(f"need >= 1 slot, got {slots_per_bucket}")
        self.n_buckets = n_buckets
        self.slots_per_bucket = slots_per_bucket
        self.max_kicks = max_kicks
        self.seed = seed
        self.buckets: List[Bucket] = [Bucket(i) for i in range(n_buckets)]
        self.size = 0
        self._rng = random.Random(seed)
        self.total_kicks = 0

    # -- hashing ------------------------------------------------------------

    def bucket_indices(self, key: int) -> Tuple[int, int]:
        """The key's two candidate buckets (may coincide)."""
        h1 = _mix(key + self.seed, _SALT1) % self.n_buckets
        h2 = _mix(key + self.seed, _SALT2) % self.n_buckets
        return h1, h2

    def _alternate(self, key: int, current: int) -> int:
        h1, h2 = self.bucket_indices(key)
        return h2 if current == h1 else h1

    @property
    def capacity(self) -> int:
        return self.n_buckets * self.slots_per_bucket

    @property
    def load_factor(self) -> float:
        return self.size / self.capacity

    # -- operations -----------------------------------------------------------

    def get(self, key: int) -> CuckooOpResult:
        result = CuckooOpResult()
        h1, h2 = self.bucket_indices(key)
        for index in dict.fromkeys((h1, h2)):  # dedupe, keep order
            result.buckets_probed += 1
            result.visited_chunks.append(index)
            value = self.buckets[index].find(key)
            if value is not None:
                result.items.append((key, value))
                return result
        return result

    def put(self, key: int, value: int) -> CuckooOpResult:
        """Insert or overwrite; raises :class:`CuckooFullError` when the
        displacement walk exceeds the kick budget."""
        result = CuckooOpResult()
        h1, h2 = self.bucket_indices(key)
        # Overwrite in place if present.
        for index in dict.fromkeys((h1, h2)):
            result.buckets_probed += 1
            bucket = self.buckets[index]
            for i, (k, _v) in enumerate(bucket.entries):
                if k == key:
                    bucket.entries[i] = (key, value)
                    result.note(bucket)
                    return result
        # Free slot in either candidate.
        for index in dict.fromkeys((h1, h2)):
            bucket = self.buckets[index]
            if len(bucket.entries) < self.slots_per_bucket:
                bucket.entries.append((key, value))
                result.note(bucket)
                self.size += 1
                return result
        # Displacement walk.
        index = self._rng.choice((h1, h2))
        carry_key, carry_value = key, value
        for _kick in range(self.max_kicks):
            bucket = self.buckets[index]
            slot = self._rng.randrange(self.slots_per_bucket)
            victim_key, victim_value = bucket.entries[slot]
            bucket.entries[slot] = (carry_key, carry_value)
            result.note(bucket)
            result.kicks += 1
            self.total_kicks += 1
            carry_key, carry_value = victim_key, victim_value
            index = self._alternate(carry_key, index)
            target = self.buckets[index]
            if len(target.entries) < self.slots_per_bucket:
                target.entries.append((carry_key, carry_value))
                result.note(target)
                self.size += 1
                return result
        raise CuckooFullError(
            f"insert of {key} exceeded {self.max_kicks} kicks at load "
            f"{self.load_factor:.2f}"
        )
