"""The R-tree server: tree storage, registered memory, request execution.

Owns everything scheme-independent:

* the R\\*-tree, bulk-loaded into chunk-allocated registered memory and
  registered with the NIC **once** (the paper registers the whole tree
  buffer up front to avoid per-access registration cost, §III-B);
* the chunk directory clients use for one-sided reads, plus a small meta
  region exposing the current root chunk id;
* the op plans of search/count/kNN/insert/delete/update requests, which
  the server threads run lock-managed and CPU-charged
  (:mod:`repro.server.plan`);
* the write tracker that opens torn-read windows for the versioning model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Sequence, Tuple

from ..hw.host import Host
from ..hw.memory import ChunkAllocator
from ..msg.codec import (
    CountRequest,
    DeleteRequest,
    InsertRequest,
    NearestRequest,
    ResponseSegment,
    SearchRequest,
    UpdateRequest,
    segment_results,
)
from ..rtree.bulk import bulk_load
from ..rtree.geometry import Rect
from ..rtree.locks import TreeLockManager
from ..rtree.node import DEFAULT_MAX_ENTRIES
from ..rtree.serialize import (
    NodeView,
    chunk_size,
    garbage_chunk,
    pack_node,
    pack_node_torn,
)
from ..rtree.versioning import SnapshotReader, WriteTracker
from ..sim.kernel import Simulator
from .costs import DEFAULT_COSTS, CostModel
from .plan import OpPlan, execute_plan, mutation_plan

#: Meta region layout: root chunk id (u64) + tree height (u32) + the
#: tree-wide mutation high-water mark (u32, wrapping) in the former pad
#: word — same 16-byte read as before, so validation stays one tiny RTT.
META_REGION_SIZE = 64

#: Chunks are padded to a fixed 4 KB footprint (the paper sizes chunks for
#: full 64-entry nodes; clients always read whole chunks since they cannot
#: know a node's fill level).
OFFLOAD_CHUNK_BYTES = 4096

#: Recent read rects kept per server for load-aware split planning; big
#: enough to smooth one rebalance interval's traffic, small enough that
#: a stale sample ages out within a few intervals.
RECENT_QUERY_WINDOW = 256


@dataclass(frozen=True)
class OffloadDescriptor:
    """Everything a client needs to traverse the tree one-sidedly."""

    tree_rkey: int
    tree_base: int
    chunk_bytes: int
    meta_rkey: int
    meta_base: int
    max_entries: int


@dataclass(frozen=True)
class TreeMeta:
    """Contents of the meta chunk (read via a single tiny RDMA Read).

    ``mut_seq`` is the tree-wide mutation high-water mark
    (:attr:`~repro.rtree.rstar.RStarTree.mut_hwm`) packed into the
    formerly padded word of the 16-byte meta read; -1 only for legacy
    senders that predate the field (the client cache then stays cold).
    """

    root_chunk: int
    height: int
    mut_seq: int = -1


class TreeChunkTarget:
    """RDMA-Read target covering the registered tree region."""

    def __init__(self, allocator: ChunkAllocator, reader: SnapshotReader):
        self._allocator = allocator
        self._reader = reader

    def rdma_read(self, address: int, length: int, now: float) -> NodeView:
        chunk_id = self._allocator.chunk_of(address)
        return self._reader.read_chunk(chunk_id, now)

    def rdma_write(self, address: int, length: int, payload, now: float):
        raise PermissionError(
            "clients never RDMA-Write the tree region (writes go through "
            "the server, §III-B)"
        )


class ByteTreeChunkTarget:
    """Full-fidelity variant: reads return real packed chunk *bytes*.

    A read that overlaps a server mutation returns an image whose
    per-cache-line version numbers genuinely disagree (half old, half
    new); a read of a freed chunk returns recycled-memory garbage.  The
    client must run the actual FaRM validation on the bytes — nothing is
    signalled out of band.  Used to verify that the chunk codec carries
    everything the offloaded traversal needs.

    Packed images are cached per chunk, stamped with the node identity
    and its ``(version, mut_seq)`` pair, so repeated quiescent reads of
    the same node return the same bytes without re-packing.  ``version``
    alone cannot key the cache: the tree mutates *before* the simulated
    write window closes (which is when ``version`` bumps), so ``mut_seq``
    — bumped at the mutation itself — covers that gap.  Keeping the node
    object in the stamp guards against a freed chunk id being recycled
    for a new node whose counters happen to collide.  Torn and garbage
    reads bypass the cache entirely.
    """

    def __init__(self, server: "RTreeServer"):
        self._server = server
        self.reads = 0
        self.torn_reads = 0
        self.cached_reads = 0
        self._cache: Dict[int, Tuple[object, int, int, bytes]] = {}
        self._garbage: Optional[bytes] = None

    def rdma_read(self, address: int, length: int, now: float) -> bytes:
        chunk_id = self._server.allocator.chunk_of(address)
        node = self._server.tree.nodes.get(chunk_id)
        self.reads += 1
        max_entries = self._server.max_entries
        if node is None:
            self.torn_reads += 1
            # Recycled-memory garbage is deterministic per chunk size.
            garbage = self._garbage
            if garbage is None:
                garbage = self._garbage = garbage_chunk(max_entries)
            return garbage
        if node.active_writers > 0:
            self.torn_reads += 1
            # Mid-write image: version numbers straddle the update.
            return pack_node_torn(node, max_entries)
        cached = self._cache.get(chunk_id)
        if (
            cached is not None
            and cached[0] is node
            and cached[1] == node.version
            and cached[2] == node.mut_seq
        ):
            self.cached_reads += 1
            return cached[3]
        data = pack_node(node, max_entries)
        self._cache[chunk_id] = (node, node.version, node.mut_seq, data)
        return data

    def rdma_write(self, address: int, length: int, payload, now: float):
        raise PermissionError(
            "clients never RDMA-Write the tree region (writes go through "
            "the server, §III-B)"
        )


class MetaTarget:
    """RDMA-Read target for the root pointer."""

    def __init__(self, server: "RTreeServer"):
        self._server = server

    def rdma_read(self, address: int, length: int, now: float) -> TreeMeta:
        tree = self._server.tree
        return TreeMeta(root_chunk=tree.root.chunk_id, height=tree.height,
                        mut_seq=tree.mut_hwm)

    def rdma_write(self, address: int, length: int, payload, now: float):
        raise PermissionError("the meta region is read-only for clients")


class RTreeServer:
    """Scheme-independent server state and request execution."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        items: Sequence[Tuple[Rect, int]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        costs: CostModel = DEFAULT_COSTS,
        byte_mode: bool = False,
    ):
        self.sim = sim
        self.host = host
        self.costs = costs
        self.max_entries = max_entries
        self.byte_mode = byte_mode

        # Register one region big enough for the whole tree plus growth,
        # exactly once (paper §III-B).
        self.chunk_bytes = max(OFFLOAD_CHUNK_BYTES, chunk_size(max_entries))
        node_estimate = max(64, 2 * len(items) // max(4, max_entries // 4))
        region_chunks = node_estimate + 4096
        self.tree_region = host.memory.register(
            region_chunks * self.chunk_bytes, name="rtree"
        )
        self.allocator = ChunkAllocator(self.tree_region, self.chunk_bytes)
        self.tree = bulk_load(
            items,
            max_entries=max_entries,
            alloc_chunk=self.allocator.alloc,
            free_chunk=self.allocator.free,
        )
        self.reader = SnapshotReader(self.tree.nodes)
        self.locks = TreeLockManager(sim)
        self.write_tracker = WriteTracker(sim)
        if byte_mode:
            self.byte_target = ByteTreeChunkTarget(self)
            host.memory.bind(self.tree_region.rkey, self.byte_target)
        else:
            self.byte_target = None
            host.memory.bind(
                self.tree_region.rkey,
                TreeChunkTarget(self.allocator, self.reader),
            )
        self.meta_region = host.memory.register(META_REGION_SIZE, name="meta")
        host.memory.bind(self.meta_region.rkey, MetaTarget(self))

        #: CPU-time inflation from busy-poll interference; set to > 1 by the
        #: polling fast-messaging server when connections oversubscribe the
        #: cores (see SchedulerModel.service_inflation).
        self.service_inflation = 1.0

        # Request accounting.
        self.searches_served = 0
        self.inserts_served = 0
        self.deletes_served = 0
        self.updates_served = 0
        #: Bounded ring of recent read rects (search/count/nearest), the
        #: load sample the rebalance controller plans splits from.  Pure
        #: observability: appending charges no CPU and draws no RNG.
        self.recent_queries = deque(maxlen=RECENT_QUERY_WINDOW)

    # -- client bootstrap ----------------------------------------------------

    def offload_descriptor(self) -> OffloadDescriptor:
        """The connection-setup payload sent to offloading clients."""
        return OffloadDescriptor(
            tree_rkey=self.tree_region.rkey,
            tree_base=self.tree_region.base,
            chunk_bytes=self.chunk_bytes,
            meta_rkey=self.meta_region.rkey,
            meta_base=self.meta_region.base,
            max_entries=self.max_entries,
        )

    def chunk_address(self, chunk_id: int) -> int:
        return self.allocator.address_of(chunk_id)

    # -- request plans (see repro.server.plan) ----------------------------------

    def plan_search(self, rect: Rect) -> OpPlan:
        """One search; the result is [(rect, id), ...]."""
        result = self.tree.search(rect)
        return OpPlan(
            result.matches,
            self.costs.search_cost(result) * self.service_inflation,
            result.visited_chunks, counter="searches_served", query=rect)

    def plan_nearest(self, x: float, y: float, k: int) -> OpPlan:
        """One kNN query; the result is the matches, nearest first."""
        result = self.tree.nearest(x, y, k)
        return OpPlan(
            result.matches,
            self.costs.search_cost(result) * self.service_inflation,
            result.visited_chunks, counter="searches_served",
            query=Rect(x, y, x, y))

    def plan_count(self, rect: Rect) -> OpPlan:
        """One aggregate-only search; the result is the intersection count.

        Charged like a search minus the per-result copy cost (nothing is
        materialized into the response)."""
        result = self.tree.search(rect)
        cost = (
            self.costs.request_parse
            + result.nodes_visited * self.costs.node_visit
        ) * self.service_inflation
        return OpPlan(result.count, cost, result.visited_chunks,
                      counter="searches_served", query=rect)

    def plan_insert(self, rect: Rect, data_id: int) -> OpPlan:
        """One insert; the result is True."""
        result = self.tree.insert(rect, data_id)
        return self._mutation(
            True, self.costs.mutation_cost(result), result.mutated_nodes,
            "inserts_served")

    def plan_delete(self, rect: Rect, data_id: int) -> OpPlan:
        """One delete; the result is whether the entry existed."""
        result = self.tree.delete(rect, data_id)
        return self._mutation(
            result.ok, self.costs.mutation_cost(result),
            result.mutated_nodes, "deletes_served")

    def plan_update(self, old_rect: Rect, new_rect: Rect,
                    data_id: int) -> OpPlan:
        """Atomically relocate one rectangle (delete + insert under one
        lock scope); the result is False when the old entry was not
        found."""
        delete_result = self.tree.delete(old_rect, data_id)
        if not delete_result.ok:
            # Nothing changed; still charge the failed lookup.
            cost = (self.costs.request_parse
                    + delete_result.nodes_visited * self.costs.node_visit
                    ) * self.service_inflation
            return OpPlan(False, cost)
        insert_result = self.tree.insert(new_rect, data_id)
        mutated = list(delete_result.mutated_nodes)
        for node in insert_result.mutated_nodes:
            if node not in mutated:
                mutated.append(node)
        return self._mutation(
            True,
            self.costs.mutation_cost(delete_result)
            + self.costs.mutation_cost(insert_result),
            mutated, "updates_served")

    def _mutation(self, ok: bool, cost: float, mutated_nodes,
                  counter: str) -> OpPlan:
        return mutation_plan(ok, cost * self.service_inflation,
                             mutated_nodes,
                             [n.chunk_id for n in mutated_nodes],
                             self.costs, counter)

    def plan(self, request) -> OpPlan:
        """The plan of one wire request, response segments included.

        This is the transport-agnostic entry point: the fast-messaging
        and TCP workers run whatever plan a service returns, so any index
        service exposing ``plan`` (B+tree, cuckoo hash, ...) plugs into
        the same communication machinery — the framework claim of the
        paper's §VI.
        """
        req_id = request.req_id
        if isinstance(request, SearchRequest):
            plan = self.plan_search(request.rect)
            plan.segments = segment_results(req_id, plan.result)
        elif isinstance(request, NearestRequest):
            plan = self.plan_nearest(request.x, request.y, request.k)
            plan.segments = segment_results(req_id, plan.result)
        elif isinstance(request, CountRequest):
            plan = self.plan_count(request.rect)
            plan.segments = [ResponseSegment(req_id, (), last=True,
                                             count=plan.result)]
        else:
            if isinstance(request, InsertRequest):
                plan = self.plan_insert(request.rect, request.data_id)
            elif isinstance(request, DeleteRequest):
                plan = self.plan_delete(request.rect, request.data_id)
            elif isinstance(request, UpdateRequest):
                plan = self.plan_update(request.old_rect, request.new_rect,
                                        request.data_id)
            else:
                raise TypeError(f"server got unexpected message {request!r}")
            plan.segments = [ResponseSegment(req_id, (), last=True,
                                             ok=plan.result)]
        return plan

    # -- the same operations from a process (rebalancer, tests) ----------------

    def execute_search(self, rect: Rect) -> Generator:
        return (yield from execute_plan(self, self.plan_search(rect)))

    def execute_nearest(self, x: float, y: float, k: int) -> Generator:
        return (yield from execute_plan(self, self.plan_nearest(x, y, k)))

    def execute_count(self, rect: Rect) -> Generator:
        return (yield from execute_plan(self, self.plan_count(rect)))

    def execute_insert(self, rect: Rect, data_id: int) -> Generator:
        return (yield from execute_plan(self,
                                        self.plan_insert(rect, data_id)))

    def execute_delete(self, rect: Rect, data_id: int) -> Generator:
        return (yield from execute_plan(self,
                                        self.plan_delete(rect, data_id)))

    def execute_update(self, old_rect: Rect, new_rect: Rect,
                       data_id: int) -> Generator:
        return (yield from execute_plan(
            self, self.plan_update(old_rect, new_rect, data_id)))

    # -- reporting ------------------------------------------------------------

    @property
    def requests_served(self) -> int:
        """Every request served, the rebalancer's load signal."""
        return (self.searches_served + self.inserts_served
                + self.deletes_served + self.updates_served)

    def cpu_utilization(self) -> float:
        return self.host.cpu.utilization()

    def items_held(self) -> int:
        """Exact data-item count in the tree right now.

        Walks the leaf level, so it stays correct under routed writes and
        live migration (served-op counters can't distinguish a delete
        that found nothing).  The rebalance controller and the shard
        occupancy report both read this.
        """
        return sum(
            len(node.entries) for node in self.tree.nodes.values()
            if node.level == 0
        )
