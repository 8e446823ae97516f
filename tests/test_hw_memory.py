"""Unit tests for registered memory regions and the chunk allocator."""

import pytest

from repro.hw import ChunkAllocator, MemoryRegistry, MemoryError_


class TestMemoryRegistry:
    def test_register_assigns_unique_rkeys(self):
        reg = MemoryRegistry()
        a = reg.register(1024, name="a")
        b = reg.register(1024, name="b")
        assert a.rkey != b.rkey

    def test_regions_are_disjoint(self):
        reg = MemoryRegistry()
        a = reg.register(4096)
        b = reg.register(4096)
        assert a.end <= b.base or b.end <= a.base

    def test_lookup(self):
        reg = MemoryRegistry()
        r = reg.register(100)
        assert reg.lookup(r.rkey) is r
        with pytest.raises(MemoryError_):
            reg.lookup(r.rkey + 1)

    def test_validate_in_bounds(self):
        reg = MemoryRegistry()
        r = reg.register(1000)
        assert reg.validate(r.rkey, r.base, 1000) is r
        assert reg.validate(r.rkey, r.base + 500, 500) is r

    def test_validate_out_of_bounds(self):
        reg = MemoryRegistry()
        r = reg.register(1000)
        with pytest.raises(MemoryError_):
            reg.validate(r.rkey, r.base + 500, 501)
        with pytest.raises(MemoryError_):
            reg.validate(r.rkey, r.base - 1, 10)

    def test_bind_and_target_of(self):
        reg = MemoryRegistry()
        r = reg.register(100)
        target = object()
        reg.bind(r.rkey, target)
        assert reg.target_of(r.rkey) is target
        assert reg.target_of(12345) is None

    def test_bind_unknown_rkey_fails(self):
        reg = MemoryRegistry()
        with pytest.raises(MemoryError_):
            reg.bind(42, object())

    def test_zero_size_region_rejected(self):
        reg = MemoryRegistry()
        with pytest.raises(ValueError):
            reg.register(0)


class TestChunkAllocator:
    def _allocator(self, chunks=10, chunk_size=64):
        reg = MemoryRegistry()
        region = reg.register(chunks * chunk_size, name="tree")
        return ChunkAllocator(region, chunk_size)

    def test_capacity(self):
        alloc = self._allocator(chunks=10, chunk_size=64)
        assert alloc.capacity == 10

    def test_alloc_unique_ids(self):
        alloc = self._allocator()
        ids = {alloc.alloc() for _ in range(10)}
        assert len(ids) == 10

    def test_exhaustion(self):
        alloc = self._allocator(chunks=2)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(MemoryError_):
            alloc.alloc()

    def test_free_and_reuse(self):
        alloc = self._allocator(chunks=1)
        cid = alloc.alloc()
        alloc.free(cid)
        assert alloc.alloc() == cid

    def test_double_free_rejected(self):
        alloc = self._allocator()
        cid = alloc.alloc()
        alloc.free(cid)
        with pytest.raises(MemoryError_):
            alloc.free(cid)

    def test_free_unallocated_rejected(self):
        alloc = self._allocator()
        with pytest.raises(MemoryError_):
            alloc.free(3)

    def test_address_round_trip(self):
        alloc = self._allocator(chunks=10, chunk_size=128)
        for cid in range(10):
            addr = alloc.address_of(cid)
            assert alloc.chunk_of(addr) == cid

    def test_addresses_inside_region(self):
        alloc = self._allocator(chunks=10, chunk_size=128)
        for cid in range(10):
            addr = alloc.address_of(cid)
            assert alloc.region.contains(addr, 128)

    def test_address_of_out_of_range(self):
        alloc = self._allocator(chunks=10)
        with pytest.raises(MemoryError_):
            alloc.address_of(10)
        with pytest.raises(MemoryError_):
            alloc.address_of(-1)

    def test_chunk_of_unaligned(self):
        alloc = self._allocator(chunk_size=64)
        with pytest.raises(MemoryError_):
            alloc.chunk_of(alloc.region.base + 3)

    def test_chunk_size_validation(self):
        reg = MemoryRegistry()
        region = reg.register(100)
        with pytest.raises(ValueError):
            ChunkAllocator(region, 0)
        with pytest.raises(ValueError):
            ChunkAllocator(region, 200)
