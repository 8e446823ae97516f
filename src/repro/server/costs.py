"""CPU cost model for R-tree request processing.

These constants are the simulation's analogue of "how long does a Broadwell
core spend on this"; they are calibrated so the paper's resource-saturation
shapes reproduce (see DESIGN.md §5):

* scale-1e-5 searches (~8 nodes visited on the 2M tree) cost ~15-20 us of
  server CPU, so 28 cores saturate around 1.5-1.8 Mops — the CPU-bound
  regime of Figs 2(b)/10(a);
* scale-0.01 searches (~15 nodes + ~50 results) cost ~35 us, and their
  ~2 KB responses saturate 1 GbE before the CPU — the bandwidth-bound
  regime of Figs 2(a)/10(b).

All values are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rtree.rstar import MutationResult, SearchResult


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU charges for a server (or client) core."""

    #: Fixed per-request dispatch/parse cost.
    request_parse: float = 1.0e-6
    #: Visiting one R-tree node: cache misses on up to M entries plus the
    #: rectangle comparisons (calibrated against the paper's saturation
    #: throughputs; see DESIGN.md §5).
    node_visit: float = 5.0e-6
    #: Copying one matching rectangle into the response.
    per_result: float = 0.1e-6
    #: Posting one response segment (RDMA Write descriptor or socket call).
    response_segment: float = 0.5e-6
    #: Fixed insert cost beyond path traversal (leaf write + MBR updates).
    insert_write: float = 4.0e-6
    #: Splitting one node (R* axis/index selection + redistribution).
    split: float = 10.0e-6
    #: Re-inserting one entry during forced reinsertion.
    reinsert_entry: float = 3.0e-6
    #: Client-side cost of one node intersection check during offloading
    #: (uncontended client core; adds latency only).  Cheaper than the
    #: server's ``node_visit`` because the client skips result copying and
    #: lock handling, but the same order of magnitude — the intersection
    #: scan is the same work.
    client_node_check: float = 2.0e-6
    #: Probing one cuckoo hash bucket (a single cache line of slots; far
    #: cheaper than an R-tree node scan).
    bucket_probe: float = 0.5e-6
    #: Duration of the actual memory mutation per touched node — the torn-
    #: read window.  Most of an insert's CPU time is traversal (reads);
    #: only the final store burst can tear a concurrent one-sided read.
    node_write_window: float = 0.8e-6

    def write_window(self, n_mutated_nodes: int) -> float:
        """Torn-read window for a mutation touching ``n`` nodes."""
        return self.node_write_window * max(1, n_mutated_nodes)

    def search_cost(self, result: SearchResult) -> float:
        """Server CPU seconds to execute one search."""
        return (
            self.request_parse
            + result.nodes_visited * self.node_visit
            + result.count * self.per_result
        )

    def search_batch_cost(self, n_queries: int, shared_visits: int,
                          n_results: int) -> float:
        """Server CPU seconds to execute Q searches as one shared
        traversal: a parse per query, one visit per distinct node the
        batch visited (each node is scanned once for every query that
        reaches it, as one ``(Q x E)`` test) and the copy per match.  A
        batch of one is :meth:`search_cost`."""
        return (
            n_queries * self.request_parse
            + shared_visits * self.node_visit
            + n_results * self.per_result
        )

    def mutation_cost(self, result: MutationResult) -> float:
        """Server CPU seconds to execute one insert/delete, or one group
        of them as a single op: one parse, one visit per distinct node
        the group visited, the write charges per item inserted or deleted
        singly (``result.items``; none for a grafted or unlinked leaf)
        and per split or reinserted entry (the write window, per mutated
        node, is :meth:`write_window`)."""
        visits = (result.nodes_visited if result.visited is None
                  else len(result.visited))
        return (
            self.request_parse
            + visits * self.node_visit
            + result.items * self.insert_write
            + result.splits * self.split
            + result.reinserted_entries * self.reinsert_entry
        )

    def response_cost(self, n_segments: int) -> float:
        """Server CPU seconds to emit a segmented response."""
        return n_segments * self.response_segment


DEFAULT_COSTS = CostModel()
