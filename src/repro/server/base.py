"""The index services: one skeleton under the R-tree, B+tree and cuckoo servers.

:class:`IndexService` owns the index-independent half of a server, once:

* the simulator, host, cost model and busy-poll inflation, the chunk lock
  manager and the write tracker that opens torn-read windows for the
  versioning model;
* read-only registered regions (:class:`ReadOnlyTarget`): clients
  RDMA-Read them, every write goes through the server (§III-B);
* ``plan(request)``, the transport-agnostic entry point: the request's
  plan method, looked up by type in the class's ``PLANS`` table, and its
  reply segments (:mod:`repro.server.plan` runs the plan).

:class:`TreeService` adds what the two trees share: the tree region,
registered with the NIC **once** and chunk-allocated (the paper registers
the whole tree buffer up front to avoid per-access registration cost,
§III-B), the object/byte image switch, and a small meta region exposing
the current root chunk id.  An index supplies only its structure, its
chunk images and its ``plan_*`` methods with their costs and counters;
:class:`RTreeServer` is the paper's R*-tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Sequence, Tuple

from ..hw.host import Host
from ..hw.memory import ChunkAllocator, MemoryRegion
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
from ..rtree.rstar import MutationResult
from ..rtree.serialize import (
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

#: Reply shapes of a plan: its matches as CONT/END segments, an
#: aggregate count, or a write's ack.
RESULTS = "results"
COUNT = "count"
ACK = "ack"


@dataclass(frozen=True)
class OffloadDescriptor:
    """Everything a client needs to traverse a tree one-sidedly."""

    tree_rkey: int
    tree_base: int
    chunk_bytes: int
    meta_rkey: int
    meta_base: int
    #: Node capacity (the byte-mode chunk decoders need it).
    max_entries: int


@dataclass(frozen=True)
class TreeMeta:
    """Contents of the meta chunk (read via a single tiny RDMA Read).

    ``mut_seq`` is the R-tree's mutation high-water mark
    (:attr:`~repro.rtree.rstar.RStarTree.mut_hwm`) packed into the
    formerly padded word of the 16-byte meta read; -1 when the index keeps
    none (the B+tree; a client node cache then stays cold).
    """

    root_chunk: int
    height: int
    mut_seq: int = -1


class ReadOnlyTarget:
    """RDMA target of a region clients may read but never write.

    ``read(address, length, now)`` serves the reads.  The byte-mode chunk
    targets subclass it for the write rejection.
    """

    def __init__(self, read: Callable[[int, int, float], Any]):
        self.rdma_read = read

    def rdma_write(self, address: int, length: int, payload, now: float):
        raise PermissionError(
            "clients never RDMA-Write an index region (writes go through "
            "the server, §III-B)"
        )


class ByteTreeChunkTarget(ReadOnlyTarget):
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
        super().__init__(self._read)
        self._server = server
        self.reads = 0
        self.torn_reads = 0
        self.cached_reads = 0
        self._cache: Dict[int, Tuple[object, int, int, bytes]] = {}
        self._garbage: Optional[bytes] = None

    def _read(self, address: int, length: int, now: float) -> bytes:
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


class IndexService:
    """The index-independent half of every server.

    A subclass fills ``PLANS``: for each wire request type, a runner
    ``run(service, request)`` that calls the plan method with the
    request's fields, and the shape of the reply.
    """

    PLANS: Dict[type, Tuple[Callable[[Any, Any], OpPlan], str]] = {}

    def __init__(self, sim: Simulator, host: Host, costs: CostModel):
        self.sim = sim
        self.host = host
        self.costs = costs
        #: CPU-time inflation from busy-poll interference; set to > 1 by the
        #: polling fast-messaging server when connections oversubscribe the
        #: cores (see SchedulerModel.service_inflation).
        self.service_inflation = 1.0
        self.locks = TreeLockManager(sim)
        self.write_tracker = WriteTracker(sim)

    def _register_read_only(self, size: int, name: str,
                            read: Callable[[int, int, float], Any]
                            ) -> MemoryRegion:
        """Register ``size`` bytes that clients read through ``read``."""
        region = self.host.memory.register(size, name=name)
        self.host.memory.bind(region.rkey, ReadOnlyTarget(read))
        return region

    def plan(self, request) -> OpPlan:
        """The plan of one wire request, response segments included.

        The fast-messaging and TCP workers run whatever plan a service
        returns, so every index plugs into the same communication
        machinery — the framework claim of the paper's §VI.
        """
        entry = self.PLANS.get(type(request))
        if entry is None:
            raise TypeError(
                f"{type(self).__name__} got unexpected message {request!r}")
        run, shape = entry
        plan = run(self, request)
        req_id = request.req_id
        if shape == RESULTS:
            plan.segments = segment_results(req_id, plan.result)
        elif shape == COUNT:
            plan.segments = [ResponseSegment(req_id, (), last=True,
                                             count=plan.result)]
        else:
            plan.segments = [ResponseSegment(req_id, (), last=True,
                                             ok=plan.result)]
        return plan


class TreeService(IndexService):
    """A tree of fixed-size chunks in registered memory, read one-sidedly.

    The tree region is registered once, big enough for ``node_estimate``
    nodes plus growth, then the meta region; a client addresses a node as
    ``tree_base + chunk_id * chunk_bytes``.  A subclass supplies
    ``_build(items)``, its object-mode image (``reader_class``, whose
    ``read_chunk`` snapshots one chunk), its byte-mode image
    (``byte_target_class``) and the names its two regions register under.
    """

    region_name: str
    meta_name: str
    reader_class: type
    byte_target_class: type

    def __init__(self, sim: Simulator, host: Host, items, max_entries: int,
                 costs: CostModel, byte_mode: bool, chunk_bytes: int,
                 node_estimate: int):
        super().__init__(sim, host, costs)
        self.max_entries = max_entries
        self.byte_mode = byte_mode
        self.chunk_bytes = chunk_bytes
        self.tree_region = host.memory.register(
            (node_estimate + 4096) * chunk_bytes, name=self.region_name
        )
        self.allocator = ChunkAllocator(self.tree_region, chunk_bytes)
        self.tree = self._build(items)
        self.reader = self.reader_class(self.tree.nodes)
        self.byte_target = (self.byte_target_class(self) if byte_mode
                            else None)
        host.memory.bind(self.tree_region.rkey,
                         self.byte_target or ReadOnlyTarget(self._read_chunk))
        self.meta_region = self._register_read_only(
            META_REGION_SIZE, self.meta_name, self._read_meta)

    def _build(self, items):
        """The structure, bulk-loaded into the allocator's chunks."""
        raise NotImplementedError

    def _read_chunk(self, address: int, length: int, now: float):
        return self.reader.read_chunk(self.allocator.chunk_of(address), now)

    def _read_meta(self, address: int, length: int, now: float) -> TreeMeta:
        tree = self.tree
        return TreeMeta(tree.root.chunk_id, tree.height)

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


class RTreeServer(TreeService):
    """The paper's R*-tree server."""

    region_name = "rtree"
    meta_name = "meta"
    reader_class = SnapshotReader
    byte_target_class = ByteTreeChunkTarget

    PLANS = {
        SearchRequest: (lambda s, r: s.plan_search(r.rect), RESULTS),
        NearestRequest: (lambda s, r: s.plan_nearest(r.x, r.y, r.k),
                         RESULTS),
        CountRequest: (lambda s, r: s.plan_count(r.rect), COUNT),
        InsertRequest: (lambda s, r: s.plan_insert(r.rect, r.data_id), ACK),
        DeleteRequest: (lambda s, r: s.plan_delete(r.rect, r.data_id), ACK),
        UpdateRequest: (lambda s, r: s.plan_update(r.old_rect, r.new_rect,
                                                   r.data_id), ACK),
    }

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        items: Sequence[Tuple[Rect, int]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        costs: CostModel = DEFAULT_COSTS,
        byte_mode: bool = False,
    ):
        super().__init__(
            sim, host, items, max_entries, costs, byte_mode,
            chunk_bytes=max(OFFLOAD_CHUNK_BYTES, chunk_size(max_entries)),
            node_estimate=max(64, 2 * len(items) // max(4, max_entries // 4)),
        )
        # Request accounting.
        self.searches_served = 0
        self.inserts_served = 0
        self.deletes_served = 0
        self.updates_served = 0
        #: Bounded ring of recent read rects (search/count/nearest), the
        #: load sample the rebalance controller plans splits from.  Pure
        #: observability: appending charges no CPU and draws no RNG.
        self.recent_queries = deque(maxlen=RECENT_QUERY_WINDOW)

    def _build(self, items):
        return bulk_load(items, max_entries=self.max_entries,
                         alloc_chunk=self.allocator.alloc,
                         free_chunk=self.allocator.free)

    def _read_meta(self, address: int, length: int, now: float) -> TreeMeta:
        tree = self.tree
        return TreeMeta(tree.root.chunk_id, tree.height, tree.mut_hwm)

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

    def plan_insert_group(self, items: Sequence[Tuple[Rect, int]]) -> OpPlan:
        """Insert ``items`` in order as one op; the result is True.

        Charged as one request (:meth:`CostModel.mutation_cost`): one
        parse, one visit per distinct node, the write charges per item,
        under write locks on the union of the mutated chunks."""
        tree = self.tree
        result = MutationResult(items=len(items), visited=set())
        for rect, data_id in items:
            tree.insert(rect, data_id, result)
        return self._mutation(
            True, self.costs.mutation_cost(result), result.mutated_nodes,
            "inserts_served")

    def plan_delete_group(self, items: Sequence[Tuple[Rect, int]]) -> OpPlan:
        """Delete ``items`` in order as one op, charged as
        :meth:`plan_insert_group`; the result is how many existed."""
        tree = self.tree
        held = tree.size
        result = MutationResult(items=len(items), visited=set())
        for rect, data_id in items:
            tree.delete(rect, data_id, result)
        return self._mutation(
            held - tree.size, self.costs.mutation_cost(result),
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

    def _mutation(self, result, cost: float, mutated_nodes,
                  counter: str) -> OpPlan:
        return mutation_plan(result, cost * self.service_inflation,
                             mutated_nodes,
                             [n.chunk_id for n in mutated_nodes],
                             self.costs, counter)

    # -- the same operations from a process (rebalancer, tests) ----------------

    def execute_search(self, rect: Rect) -> Generator:
        return (yield from execute_plan(self, self.plan_search(rect)))

    def execute_nearest(self, x: float, y: float, k: int) -> Generator:
        return (yield from execute_plan(self, self.plan_nearest(x, y, k)))

    def execute_insert(self, rect: Rect, data_id: int) -> Generator:
        return (yield from execute_plan(self,
                                        self.plan_insert(rect, data_id)))

    def execute_delete(self, rect: Rect, data_id: int) -> Generator:
        return (yield from execute_plan(self,
                                        self.plan_delete(rect, data_id)))

    def execute_insert_group(self, items) -> Generator:
        return (yield from execute_plan(self, self.plan_insert_group(items)))

    def execute_delete_group(self, items) -> Generator:
        return (yield from execute_plan(self, self.plan_delete_group(items)))

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
