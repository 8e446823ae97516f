"""Server-side B+tree service: registered chunks, execution, dispatch.

A :class:`~repro.server.base.TreeService` like the R-tree server, so it
plugs into the *same* fast-messaging / TCP machinery — the paper's §VI
framework claim made concrete: nothing in
``repro.server.fast_messaging``, the client session or its path policies
knows which index lives behind the ring buffer.  This module supplies the
structure, its chunk images (object and byte) and the plans.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..hw.host import Host
from ..msg.codec import (
    KvGetRequest,
    KvPutRequest,
    KvScanRequest,
)
from ..rtree.serialize import garbage_image
from ..server.base import ACK, OFFLOAD_CHUNK_BYTES, RESULTS, TreeService
from ..server.costs import DEFAULT_COSTS, CostModel
from ..server.plan import OpPlan, mutation_plan
from ..sim.kernel import Simulator
from .bptree import DEFAULT_CAPACITY, BPlusTree
from .serialize import (
    BNodeSnapshot,
    pack_bnode,
    pack_bnode_torn,
    payload_size,
    snapshot_bnode,
)


class BTreeService(TreeService):
    """The B+tree analogue of :class:`~repro.server.base.RTreeServer`."""

    region_name = "btree"
    meta_name = "btree-meta"

    PLANS = {
        KvGetRequest: (lambda s, r: s.plan_get(r.key), RESULTS),
        KvScanRequest: (lambda s, r: s.plan_scan(r.lo, r.hi, r.max_results),
                        RESULTS),
        KvPutRequest: (lambda s, r: s.plan_put(r.key, r.value), ACK),
    }

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        items: Sequence[Tuple[int, int]],
        max_entries: int = DEFAULT_CAPACITY,
        costs: CostModel = DEFAULT_COSTS,
        byte_mode: bool = False,
    ):
        super().__init__(
            sim, host, items, max_entries, costs, byte_mode,
            chunk_bytes=OFFLOAD_CHUNK_BYTES,
            node_estimate=max(64, 4 * len(items) // max(2, max_entries // 2)),
        )
        self.gets_served = 0
        self.puts_served = 0
        self.scans_served = 0

    def _build(self, items):
        return BPlusTree.bulk_load(list(items), capacity=self.max_entries,
                                   alloc_chunk=self.allocator.alloc,
                                   free_chunk=self.allocator.free)

    def _images(self, byte_mode: bool) -> Dict[str, Any]:
        if not byte_mode:
            return dict(image=snapshot_bnode,
                        garbage=BNodeSnapshot(-1, True, (), (), None, -1,
                                              True))
        capacity = self.max_entries
        return dict(image=lambda node: pack_bnode(node, capacity),
                    torn_image=lambda node: pack_bnode_torn(node, capacity),
                    garbage=garbage_image(payload_size(capacity)))

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
            + result.splits * self.costs.split
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

    def _mutation(self, result, counter: str) -> OpPlan:
        nodes = result.mutated_nodes
        return mutation_plan(True, self._mutation_cost(result), nodes,
                             [n.chunk_id for n in nodes], self.costs,
                             counter)

    def plan_put(self, key: int, value: int) -> OpPlan:
        return self._mutation(self.tree.put(key, value), "puts_served")

    # -- the served-work counters every service reports ------------------------

    @property
    def searches_served(self) -> int:
        return self.gets_served + self.scans_served

    @property
    def inserts_served(self) -> int:
        return self.puts_served

    def items_held(self) -> int:
        return self.tree.size
