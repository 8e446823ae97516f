"""The index services: one skeleton under the R-tree, B+tree and cuckoo servers.

:class:`IndexService` owns the index-independent half of a server, once:

* the simulator, host, cost model and busy-poll inflation, the chunk lock
  manager and the write tracker that opens torn-read windows for the
  versioning model;
* read-only registered regions (:class:`ReadOnlyTarget`): clients
  RDMA-Read them, every write goes through the server (§III-B), and every
  chunk region answers through one rule, :class:`ChunkReads`;
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
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

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
from ..rtree.bulk import bulk_load, pack_leaves
from ..rtree.geometry import Rect
from ..rtree.locks import TreeLockManager
from ..rtree.node import DEFAULT_MAX_ENTRIES
from ..rtree.rstar import MutationResult
from ..rtree.serialize import (
    NodeView,
    chunk_size,
    garbage_image,
    pack_node,
    pack_node_torn,
    payload_size,
    snapshot_node,
)
from ..rtree.versioning import WriteTracker
from ..sim.kernel import Simulator
from .costs import DEFAULT_COSTS, CostModel
from .plan import OpPlan, mutation_plan

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

#: The ack of a write a shard refused: its rect's tile is not one the
#: shard holds (see :meth:`RTreeServer.refuses`).
REFUSED = "refused"


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

    ``read(address, length, now)`` serves the reads; :class:`ChunkReads`
    is the one subclass.
    """

    def __init__(self, read: Callable[[int, int, float], Any]):
        self.rdma_read = read

    def rdma_write(self, address: int, length: int, payload, now: float):
        raise PermissionError(
            "clients never RDMA-Write an index region (writes go through "
            "the server, §III-B)"
        )


class ChunkReads(ReadOnlyTarget):
    """What a one-sided read of one chunk returns, for every index (§III-B).

    ``chunk_at(address)`` names the chunk: its id and the live chunk, or
    None when it is free.  A free chunk reads as ``garbage`` (recycled
    memory whose versions never validate), a chunk inside a write window
    as ``torn_image(chunk)`` (in byte mode cache-line versions straddling
    the write; by default ``image``, whose ``torn`` flag is then set), any
    other chunk as ``image(chunk)``.  With a ``stamp``, quiescent images
    are cached under the chunk's identity and stamp (the identity guards
    a recycled chunk id whose stamp collides); torn and garbage reads
    bypass the cache.  Nothing is signalled out of band: the client's
    image check alone decides.
    """

    def __init__(self, chunk_at: Callable[[int], Tuple[int, Any]],
                 image: Callable[[Any], Any], garbage: Any,
                 torn_image: Optional[Callable[[Any], Any]] = None,
                 stamp: Optional[Callable[[Any], Any]] = None):
        super().__init__(self._read)
        self._chunk_at = chunk_at
        self._image = image
        self._garbage = garbage
        self._torn_image = torn_image or image
        self._stamp = stamp
        self.reads = 0
        self.torn_reads = 0
        self.cached_reads = 0
        self._cache: Dict[int, Tuple[Any, Any, Any]] = {}

    def _read(self, address: int, length: int, now: float):
        chunk_id, chunk = self._chunk_at(address)
        self.reads += 1
        if chunk is None:
            self.torn_reads += 1
            return self._garbage
        if chunk.active_writers > 0:
            self.torn_reads += 1
            return self._torn_image(chunk)
        stamp = self._stamp
        if stamp is None:
            return self._image(chunk)
        key = stamp(chunk)
        cached = self._cache.get(chunk_id)
        if cached is not None and cached[0] is chunk and cached[1] == key:
            self.cached_reads += 1
            return cached[2]
        image = self._image(chunk)
        self._cache[chunk_id] = (chunk, key, image)
        return image


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
                            target: ReadOnlyTarget) -> MemoryRegion:
        """Register ``size`` bytes that clients read through ``target``."""
        region = self.host.memory.register(size, name=name)
        self.host.memory.bind(region.rkey, target)
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
    ``tree_base + chunk_id * chunk_bytes`` and its reads are served by one
    :class:`ChunkReads`, :attr:`chunk_reads`.  A subclass supplies
    ``_build(items)``, its chunk images (``_images(byte_mode)``) and the
    names its two regions register under.
    """

    region_name: str
    meta_name: str

    def __init__(self, sim: Simulator, host: Host, items, max_entries: int,
                 costs: CostModel, byte_mode: bool, chunk_bytes: int,
                 node_estimate: int):
        super().__init__(sim, host, costs)
        self.max_entries = max_entries
        self.chunk_bytes = chunk_bytes
        self.chunk_reads = ChunkReads(self._chunk_at,
                                      **self._images(byte_mode))
        self.tree_region = self._register_read_only(
            (node_estimate + 4096) * chunk_bytes, self.region_name,
            self.chunk_reads)
        self.allocator = ChunkAllocator(self.tree_region, chunk_bytes)
        self.tree = self._build(items)
        self.meta_region = self._register_read_only(
            META_REGION_SIZE, self.meta_name, ReadOnlyTarget(self._read_meta))

    def _build(self, items):
        """The structure, bulk-loaded into the allocator's chunks."""
        raise NotImplementedError

    def _images(self, byte_mode: bool) -> Dict[str, Any]:
        """The :class:`ChunkReads` images of one node: ``image`` and
        ``garbage``, in byte mode ``torn_image``, optionally ``stamp``."""
        raise NotImplementedError

    def _chunk_at(self, address: int) -> Tuple[int, Any]:
        chunk_id = self.allocator.chunk_of(address)
        return chunk_id, self.tree.nodes.get(chunk_id)

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
        #: A shard's tile table — its deployment's shard map — and its id
        #: in it; None on an unsharded server, which applies every write.
        self.tiles = None
        self.shard_id = 0
        self.writes_refused = 0

    def _build(self, items):
        return bulk_load(items, max_entries=self.max_entries,
                         alloc_chunk=self.allocator.alloc,
                         free_chunk=self.allocator.free)

    def _images(self, byte_mode: bool) -> Dict[str, Any]:
        """Node images, cached under ``(version, mut_seq)``.

        ``version`` alone cannot key the cache: the tree mutates *before*
        the simulated write window closes (which is when ``version``
        bumps), so ``mut_seq``, bumped at the mutation itself, covers
        that gap."""
        stamp = attrgetter("version", "mut_seq")
        if not byte_mode:
            return dict(image=snapshot_node, stamp=stamp,
                        garbage=NodeView(level=0, chunk_id=-1, entries=(),
                                         version=-1, torn=True))
        max_entries = self.max_entries
        return dict(image=lambda node: pack_node(node, max_entries),
                    torn_image=lambda node: pack_node_torn(node, max_entries),
                    garbage=garbage_image(payload_size(max_entries)),
                    stamp=stamp)

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

    def refuses(self, rect: Rect, insert: bool = False) -> bool:
        """Whether this shard refuses a write of ``rect``: an insert
        unless it owns the tile of the rect's centre, a delete or update
        unless it owns that tile or is its second holder."""
        tiles = self.tiles
        if tiles is None:
            return False
        if insert:
            return tiles.owner_of(rect) != self.shard_id
        return self.shard_id not in tiles.holders(rect)

    def _refusal(self) -> OpPlan:
        """A refused write: a parse, no lock, no mutation."""
        self.writes_refused += 1
        return OpPlan(REFUSED, self.costs.request_parse
                      * self.service_inflation)

    def plan_insert(self, rect: Rect, data_id: int) -> OpPlan:
        """One insert; the result is True (:data:`REFUSED` when this
        shard does not own the rect's tile)."""
        if self.refuses(rect, insert=True):
            return self._refusal()
        result = self.tree.insert(rect, data_id)
        return self._mutation(
            True, self.costs.mutation_cost(result), result.mutated_nodes,
            "inserts_served")

    def plan_delete(self, rect: Rect, data_id: int) -> OpPlan:
        """One delete; the result is whether the entry existed
        (:data:`REFUSED` when this shard does not hold the rect's
        tile)."""
        if self.refuses(rect):
            return self._refusal()
        result = self.tree.delete(rect, data_id)
        return self._mutation(
            result.ok, self.costs.mutation_cost(result),
            result.mutated_nodes, "deletes_served")

    def plan_insert_group(self, items: Sequence[Tuple[Rect, int]]) -> OpPlan:
        """Insert ``items`` as one op; the result is True.

        A group of at least ``min_entries`` items, into a tree whose root
        is above the leaves, is STR-packed into whole leaves
        (:func:`~repro.rtree.bulk.pack_leaves`; a run from one source
        leaf packs to one) and each leaf is grafted at level 1
        (:meth:`~repro.rtree.rstar.RStarTree.graft_leaf`).  Any other
        group is inserted item by item, in order.  Charged as one request
        (:meth:`CostModel.mutation_cost`): one parse, one visit per
        distinct node, ``insert_write`` per item inserted singly, under
        write locks on the union of the mutated chunks."""
        tree = self.tree
        if len(items) >= tree.min_entries and not tree.root.is_leaf:
            result = MutationResult(items=0, visited=set())
            for leaf in pack_leaves(tree, items):
                tree.graft_leaf(leaf, result)
        else:
            result = MutationResult(items=len(items), visited=set())
            for rect, data_id in items:
                tree.insert(rect, data_id, result)
        return self._mutation(
            True, self.costs.mutation_cost(result), result.mutated_nodes,
            "inserts_served")

    def plan_delete_group(self, items: Sequence[Tuple[Rect, int]],
                          leaf: Optional[int] = None) -> OpPlan:
        """Delete ``items`` as one op, charged as
        :meth:`plan_insert_group`; the result is how many existed.

        When ``leaf`` names a live non-root leaf that holds exactly
        ``items``, the leaf is unlinked whole
        (:meth:`~repro.rtree.rstar.RStarTree.unlink_leaf`); otherwise (the
        leaf changed since it was named, or none was) the items are
        deleted one by one, in order."""
        tree = self.tree
        held = tree.size
        node = None if leaf is None else tree.leaf_holding(leaf, items)
        if node is not None:
            result = MutationResult(items=0, visited=set())
            tree.unlink_leaf(node, result)
        else:
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
        if self.refuses(old_rect) or self.refuses(new_rect):
            return self._refusal()
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
