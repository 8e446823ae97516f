"""Server-side B+tree service: registered chunks, execution, dispatch.

Plugs into the *same* fast-messaging / TCP machinery as the R-tree server
(all services expose ``host``, ``costs``, ``service_inflation``,
``plan``, ``offload_descriptor`` and the served-work counters)
— this is the paper's §VI framework claim made concrete: nothing in
``repro.server.fast_messaging``, the client session or its path policies
knows which index lives behind the ring buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Sequence, Tuple

from ..hw.host import Host
from ..hw.memory import ChunkAllocator
from ..msg.codec import (
    KvDeleteRequest,
    KvGetRequest,
    KvPutRequest,
    KvScanRequest,
    ResponseSegment,
    segment_results,
)
from ..rtree.locks import TreeLockManager
from ..rtree.versioning import WriteTracker
from ..server.base import META_REGION_SIZE, OFFLOAD_CHUNK_BYTES
from ..server.costs import DEFAULT_COSTS, CostModel
from ..server.plan import OpPlan, execute_plan, mutation_plan
from ..sim.kernel import Simulator
from .bptree import BNode, BPlusTree


@dataclass(frozen=True)
class BNodeSnapshot:
    """Client-visible image of one B+tree chunk."""

    chunk_id: int
    is_leaf: bool
    keys: Tuple[int, ...]
    #: children chunk ids (inner) or values (leaf)
    refs: Tuple[int, ...]
    next_leaf: Optional[int]
    version: int
    torn: bool

    def child_for(self, key: int) -> int:
        import bisect
        return self.refs[bisect.bisect_right(self.keys, key)]

    def children_for_range(self, lo: int, hi: int) -> Tuple[int, ...]:
        """Chunk ids of every child overlapping [lo, hi] (inner nodes)."""
        import bisect
        first = bisect.bisect_right(self.keys, lo)
        last = bisect.bisect_right(self.keys, hi)
        return self.refs[first:last + 1]


def snapshot_bnode(node: BNode) -> BNodeSnapshot:
    if node.is_leaf:
        refs = tuple(node.values)
        next_leaf = (node.next_leaf.chunk_id
                     if node.next_leaf is not None else None)
    else:
        refs = tuple(child.chunk_id for child in node.children)
        next_leaf = None
    return BNodeSnapshot(
        chunk_id=node.chunk_id,
        is_leaf=node.is_leaf,
        keys=tuple(node.keys),
        refs=refs,
        next_leaf=next_leaf,
        version=node.version,
        torn=node.active_writers > 0,
    )


class BTreeSnapshotReader:
    """One-sided chunk reads with torn-read injection (as for the R-tree)."""

    def __init__(self, nodes: Dict[int, BNode]):
        self._nodes = nodes
        self.reads = 0
        self.torn_reads = 0

    def read_chunk(self, chunk_id: int, now: float) -> BNodeSnapshot:
        self.reads += 1
        node = self._nodes.get(chunk_id)
        if node is None:
            self.torn_reads += 1
            return BNodeSnapshot(chunk_id, True, (), (), None, -1, True)
        view = snapshot_bnode(node)
        if view.torn:
            self.torn_reads += 1
        return view


class BTreeChunkTarget:
    def __init__(self, allocator: ChunkAllocator,
                 reader: BTreeSnapshotReader):
        self._allocator = allocator
        self._reader = reader

    def rdma_read(self, address, length, now):
        return self._reader.read_chunk(self._allocator.chunk_of(address),
                                       now)

    def rdma_write(self, address, length, payload, now):
        raise PermissionError("clients never write the B+tree region")


class ByteBTreeChunkTarget:
    """Full-fidelity variant: reads return real packed chunk bytes with
    genuinely inconsistent version stamps for mid-write images."""

    def __init__(self, service: "BTreeService"):
        self._service = service
        self.reads = 0
        self.torn_reads = 0

    def rdma_read(self, address, length, now):
        from .serialize import garbage_bchunk, pack_bnode, pack_bnode_torn
        chunk_id = self._service.allocator.chunk_of(address)
        node = self._service.tree.nodes.get(chunk_id)
        capacity = self._service.tree.capacity
        self.reads += 1
        if node is None:
            self.torn_reads += 1
            return garbage_bchunk(capacity)
        if node.active_writers > 0:
            self.torn_reads += 1
            return pack_bnode_torn(node, capacity)
        return pack_bnode(node, capacity)

    def rdma_write(self, address, length, payload, now):
        raise PermissionError("clients never write the B+tree region")


@dataclass(frozen=True)
class KvMeta:
    root_chunk: int
    height: int


@dataclass(frozen=True)
class KvOffloadDescriptor:
    tree_rkey: int
    tree_base: int
    chunk_bytes: int
    meta_rkey: int
    meta_base: int
    #: node capacity (needed by the byte-mode chunk decoder)
    capacity: int = 64


class _KvMetaTarget:
    def __init__(self, service: "BTreeService"):
        self._service = service

    def rdma_read(self, address, length, now):
        tree = self._service.tree
        return KvMeta(root_chunk=tree.root.chunk_id, height=tree.height)

    def rdma_write(self, address, length, payload, now):
        raise PermissionError("the meta region is read-only for clients")


class BTreeService:
    """The B+tree analogue of :class:`~repro.server.base.RTreeServer`."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        items: Sequence[Tuple[int, int]],
        capacity: int = 64,
        costs: CostModel = DEFAULT_COSTS,
        byte_mode: bool = False,
    ):
        self.sim = sim
        self.host = host
        self.costs = costs
        self.byte_mode = byte_mode
        self.service_inflation = 1.0
        self.chunk_bytes = OFFLOAD_CHUNK_BYTES
        node_estimate = max(64, 4 * len(items) // max(2, capacity // 2))
        self.region = host.memory.register(
            (node_estimate + 4096) * self.chunk_bytes, name="btree"
        )
        self.allocator = ChunkAllocator(self.region, self.chunk_bytes)
        self.tree = BPlusTree.bulk_load(
            list(items),
            capacity=capacity,
            alloc_chunk=self.allocator.alloc,
            free_chunk=self.allocator.free,
        )
        self.reader = BTreeSnapshotReader(self.tree.nodes)
        self.locks = TreeLockManager(sim)
        self.write_tracker = WriteTracker(sim)
        if byte_mode:
            self.byte_target = ByteBTreeChunkTarget(self)
            host.memory.bind(self.region.rkey, self.byte_target)
        else:
            self.byte_target = None
            host.memory.bind(
                self.region.rkey,
                BTreeChunkTarget(self.allocator, self.reader),
            )
        self.meta_region = host.memory.register(META_REGION_SIZE,
                                                name="btree-meta")
        host.memory.bind(self.meta_region.rkey, _KvMetaTarget(self))

        self.gets_served = 0
        self.puts_served = 0
        self.deletes_served = 0
        self.scans_served = 0

    # -- client bootstrap -----------------------------------------------------

    def offload_descriptor(self) -> KvOffloadDescriptor:
        return KvOffloadDescriptor(
            tree_rkey=self.region.rkey,
            tree_base=self.region.base,
            chunk_bytes=self.chunk_bytes,
            meta_rkey=self.meta_region.rkey,
            meta_base=self.meta_region.base,
            capacity=self.tree.capacity,
        )

    def chunk_address(self, chunk_id: int) -> int:
        return self.allocator.address_of(chunk_id)

    # -- execution ---------------------------------------------------------------

    def _search_cost(self, result) -> float:
        return (
            self.costs.request_parse
            + result.nodes_visited * self.costs.node_visit
            + result.count * self.costs.per_result
        ) * self.service_inflation

    def _mutation_cost(self, result) -> float:
        return (
            self.costs.request_parse
            + result.nodes_visited * self.costs.node_visit
            + self.costs.insert_write
            + (result.splits + result.merges + result.borrows)
            * self.costs.split
        ) * self.service_inflation

    def plan_get(self, key: int) -> OpPlan:
        result = self.tree.get(key)
        return OpPlan(result.items, self._search_cost(result),
                      result.visited_chunks, counter="gets_served")

    def plan_scan(self, lo: int, hi: int,
                  max_results: Optional[int] = None) -> OpPlan:
        result = self.tree.range_scan(lo, hi, max_results)
        return OpPlan(result.items, self._search_cost(result),
                      result.visited_chunks, counter="scans_served")

    def _mutation(self, ok: bool, result, counter: str) -> OpPlan:
        nodes = result.mutated_nodes
        return mutation_plan(ok, self._mutation_cost(result), nodes,
                             [n.chunk_id for n in nodes], self.costs,
                             counter)

    def plan_put(self, key: int, value: int) -> OpPlan:
        return self._mutation(True, self.tree.put(key, value),
                              "puts_served")

    def plan_delete(self, key: int) -> OpPlan:
        result = self.tree.delete(key)
        return self._mutation(result.ok, result, "deletes_served")

    def execute_put(self, key: int, value: int) -> Generator:
        return (yield from execute_plan(self, self.plan_put(key, value)))

    # -- transport-facing dispatch --------------------------------------------------

    def plan(self, request) -> OpPlan:
        if isinstance(request, (KvGetRequest, KvScanRequest)):
            if isinstance(request, KvGetRequest):
                plan = self.plan_get(request.key)
            else:
                plan = self.plan_scan(request.lo, request.hi,
                                      request.max_results)
            plan.segments = segment_results(request.req_id, plan.result)
            return plan
        if isinstance(request, KvPutRequest):
            plan = self.plan_put(request.key, request.value)
        elif isinstance(request, KvDeleteRequest):
            plan = self.plan_delete(request.key)
        else:
            raise TypeError(f"B+tree service got unexpected {request!r}")
        plan.segments = [ResponseSegment(request.req_id, (), last=True,
                                         ok=plan.result)]
        return plan

    def cpu_utilization(self) -> float:
        return self.host.cpu.utilization()

    # -- the served-work counters every service reports ------------------------

    @property
    def searches_served(self) -> int:
        return self.gets_served + self.scans_served

    @property
    def inserts_served(self) -> int:
        return self.puts_served

    def items_held(self) -> int:
        return self.tree.size
