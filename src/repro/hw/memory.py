"""Registered-memory model: regions, rkeys and the chunk allocator.

The paper's RDMA-offloading design registers one large buffer for the whole
R-tree once, divides it into node-sized chunks, and lets clients address any
node as ``base + chunk_id * chunk_size`` (§III-B).  This module provides
exactly that: a :class:`MemoryRegion` registry handing out rkeys, and a
:class:`ChunkAllocator` mapping chunk ids to addresses with a free list so
node splits/frees reuse space.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class MemoryError_(Exception):
    """Raised on invalid registered-memory operations."""


class MemoryRegion:
    """A contiguous registered region addressable by remote reads/writes."""

    def __init__(self, base: int, size: int, rkey: int, name: str = ""):
        if size <= 0:
            raise ValueError(f"region size must be > 0, got {size}")
        self.base = base
        self.size = size
        self.rkey = rkey
        self.name = name

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        """Whether ``[address, address+length)`` lies inside the region."""
        return self.base <= address and address + length <= self.end


class MemoryRegistry:
    """Per-host registry of registered memory regions (the NIC's MTT)."""

    def __init__(self) -> None:
        self._regions: Dict[int, MemoryRegion] = {}
        self._targets: Dict[int, object] = {}
        self._next_rkey = 1
        self._next_base = 0x10000000  # arbitrary simulated VA space start

    def register(self, size: int, name: str = "") -> MemoryRegion:
        """Register ``size`` bytes; returns the region with a fresh rkey."""
        region = MemoryRegion(self._next_base, size, self._next_rkey, name)
        self._regions[region.rkey] = region
        self._next_rkey += 1
        # Keep regions disjoint so address-containment checks are meaningful.
        self._next_base += size + 4096
        return region

    def bind(self, rkey: int, target: object) -> None:
        """Attach the object that services one-sided accesses to ``rkey``.

        The target must implement ``rdma_read(address, length, now)`` and/or
        ``rdma_write(address, length, payload, now)``.
        """
        self.lookup(rkey)  # validates existence
        self._targets[rkey] = target

    def target_of(self, rkey: int) -> Optional[object]:
        """The bound target for ``rkey`` or None."""
        return self._targets.get(rkey)

    def lookup(self, rkey: int) -> MemoryRegion:
        region = self._regions.get(rkey)
        if region is None:
            raise MemoryError_(f"rkey {rkey} is not registered")
        return region

    def validate(self, rkey: int, address: int, length: int) -> MemoryRegion:
        """Check an incoming one-sided access; raises on protection fault."""
        region = self.lookup(rkey)
        if not region.contains(address, length):
            raise MemoryError_(
                f"access [{address:#x}, +{length}) outside region "
                f"[{region.base:#x}, +{region.size}) rkey={rkey}"
            )
        return region


class ChunkAllocator:
    """Fixed-size chunk allocator over one registered region.

    Chunk ids are stable for the lifetime of a node, so a client that knows
    ``(region.base, chunk_size, chunk_id)`` can compute the node's address
    without asking the server — the basis of RDMA offloading.
    """

    def __init__(self, region: MemoryRegion, chunk_size: int):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
        if chunk_size > region.size:
            raise ValueError("chunk_size larger than the region")
        self.region = region
        self.chunk_size = chunk_size
        self.capacity = region.size // chunk_size
        self._next_fresh = 0
        self._free: List[int] = []
        self._allocated: set = set()

    def alloc(self) -> int:
        """Allocate a chunk; returns its chunk id."""
        if self._free:
            chunk_id = self._free.pop()
        elif self._next_fresh < self.capacity:
            chunk_id = self._next_fresh
            self._next_fresh += 1
        else:
            raise MemoryError_(
                f"region {self.region.name!r} out of chunks "
                f"(capacity {self.capacity})"
            )
        self._allocated.add(chunk_id)
        return chunk_id

    def free(self, chunk_id: int) -> None:
        if chunk_id not in self._allocated:
            raise MemoryError_(f"chunk {chunk_id} is not allocated")
        self._allocated.remove(chunk_id)
        self._free.append(chunk_id)

    def address_of(self, chunk_id: int) -> int:
        """Virtual address of a chunk (valid whether or not allocated —
        a remote reader cannot know the server-side free list)."""
        if not 0 <= chunk_id < self.capacity:
            raise MemoryError_(
                f"chunk id {chunk_id} outside [0, {self.capacity})"
            )
        return self.region.base + chunk_id * self.chunk_size

    def chunk_of(self, address: int) -> int:
        """Inverse of :meth:`address_of` for aligned addresses."""
        offset = address - self.region.base
        if offset < 0 or offset >= self.capacity * self.chunk_size:
            raise MemoryError_(f"address {address:#x} outside chunk area")
        if offset % self.chunk_size != 0:
            raise MemoryError_(f"address {address:#x} not chunk-aligned")
        return offset // self.chunk_size
