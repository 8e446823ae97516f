"""Client-side B+tree access over the Catfish framework.

* :class:`KvFmSession` — get/put/scan through the ring buffer
  (the generic :class:`FmSession` with the KV wire codec);
* :class:`BTreeOffloadEngine` — one-sided traversal over the shared
  :class:`~repro.client.offload_client.OneSidedReader`: point lookups
  walk root→leaf with validated chunk reads; range scans multi-issue all
  the leaves the parent points into the range (the B+tree analogue of
  the R-tree's multi-issue).

Path selection is not here: a
:class:`~repro.runtime.session.PolicySession` over these two runs
Algorithm 1 (or any other policy) unchanged, with gets and scans as the
offloadable operations.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..client.fm_client import FmSession
from ..client.offload_client import OneSidedReader
from ..msg.codec import (
    KvGetRequest,
    KvPutRequest,
    KvScanRequest,
)
from .serialize import BNodeSnapshot, snapshot_from_bytes

OP_GET = "get"
OP_PUT = "put"
OP_SCAN = "scan"


class KvRequest:
    """One client-side KV request (scheme-independent)."""

    __slots__ = ("op", "key", "value", "lo", "hi", "max_results")

    def __init__(self, op, key=None, value=None, lo=None, hi=None,
                 max_results=None):
        if op not in (OP_GET, OP_PUT, OP_SCAN):
            raise ValueError(f"unknown kv op {op!r}")
        if op in (OP_GET, OP_PUT) and key is None:
            raise ValueError(f"{op} needs a key")
        if op == OP_PUT and value is None:
            raise ValueError("put needs a value")
        if op == OP_SCAN and (lo is None or hi is None):
            raise ValueError("scan needs lo and hi")
        self.op = op
        self.key = key
        self.value = value
        self.lo = lo
        self.hi = hi
        self.max_results = max_results


class KvFmSession(FmSession):
    """Fast messaging for KV requests (same rings, different codec)."""

    read_ops = (OP_GET, OP_SCAN)

    def _make_wire(self, request: KvRequest):
        req_id = self._ids.next_id()
        if request.op == OP_GET:
            return KvGetRequest(req_id, request.key)
        if request.op == OP_PUT:
            return KvPutRequest(req_id, request.key, request.value)
        return KvScanRequest(req_id, request.lo, request.hi,
                             request.max_results)


class BTreeOffloadEngine(OneSidedReader):
    """One-sided B+tree traversal over the shared reader: a chunk image is
    accepted when it is untorn and of the expected leafness."""

    def _decode(self, data: bytes) -> Optional[BNodeSnapshot]:
        return snapshot_from_bytes(data, self.desc.max_entries)

    def _fits(self, view: BNodeSnapshot, expect_leaf: bool) -> bool:
        if view.is_leaf == expect_leaf:
            return True
        self.stats.torn_retries += 1
        return False

    # -- operations -------------------------------------------------------------

    def read(self, request: KvRequest) -> Generator:
        """Serve one read request (get / scan) one-sidedly."""
        if request.op == OP_GET:
            return self.get(request.key)
        return self.scan(request.lo, request.hi, request.max_results)

    def get(self, key: int) -> Generator:
        """Point lookup; returns [(key, value)] or []."""
        self.stats.offloaded_requests += 1
        return self._restarting("get", self._get_once, key)

    def _get_once(self, key: int) -> Generator:
        yield from self._read_meta()
        chunk_id = self._cached_root
        levels_left = self._cached_height
        while True:
            view = yield from self._read_valid(chunk_id, levels_left == 1)
            if view is None:
                return None
            yield self.sim.timeout(self.costs.client_node_check)
            if view.is_leaf:
                return [(k, v) for k, v in zip(view.keys, view.refs)
                        if k == key]
            chunk_id = view.child_for(key)
            levels_left -= 1

    def scan(self, lo: int, hi: int,
             max_results: Optional[int] = None) -> Generator:
        """Range scan [lo, hi]; multi-issue fetches sibling leaves in
        one wave when the parent's fan-out covers the range."""
        self.stats.offloaded_requests += 1
        return self._restarting("scan", self._scan_once, lo, hi, max_results)

    def _scan_once(self, lo, hi, max_results) -> Generator:
        yield from self._read_meta()
        walk = self._scan_levelwise if self.multi_issue else self._scan_chain
        return (yield from walk(lo, hi, max_results))

    def _scan_chain(self, lo, hi, max_results) -> Generator:
        """Baseline: descend to lo's leaf, then walk the next-leaf chain —
        one RDMA Read per node, strictly sequential RTTs."""
        chunk_id = self._cached_root
        levels_left = self._cached_height
        while levels_left > 1:
            view = yield from self._read_valid(chunk_id, False)
            if view is None:
                return None
            yield self.sim.timeout(self.costs.client_node_check)
            chunk_id = view.child_for(lo)
            levels_left -= 1

        items: List[Tuple[int, int]] = []
        next_id = chunk_id
        while next_id is not None:
            leaf = yield from self._read_valid(next_id, True)
            if leaf is None:
                return None
            yield self.sim.timeout(self.costs.client_node_check)
            for k, v in zip(leaf.keys, leaf.refs):
                if k > hi:
                    return items
                if k >= lo:
                    items.append((k, v))
                    if max_results is not None and len(items) >= max_results:
                        return items
            next_id = leaf.next_leaf
        return items

    def _scan_levelwise(self, lo, hi, max_results) -> Generator:
        """Multi-issue: at every level fetch *all* children overlapping the
        range in one concurrent wave (the B+tree analogue of the R-tree's
        multi-issue traversal: the RTTs of a whole level pipeline)."""
        frontier = [self._cached_root]
        levels_left = self._cached_height
        while levels_left > 1:
            views = yield from self._fetch_round(
                [(cid, False) for cid in frontier])
            if views is None:
                return None
            for _ in views:
                yield self.sim.timeout(self.costs.client_node_check)
            frontier = [
                cid
                for view in views
                for cid in view.children_for_range(lo, hi)
            ]
            levels_left -= 1
            if max_results is not None and levels_left == 1:
                # Every leaf holds at least one key in range except
                # possibly the two boundary leaves; cap the wave.
                frontier = frontier[:max_results + 2]

        leaves = yield from self._fetch_round(
            [(cid, True) for cid in frontier])
        if leaves is None:
            return None
        items: List[Tuple[int, int]] = []
        for leaf in leaves:  # wave preserves key order
            yield self.sim.timeout(self.costs.client_node_check)
            for k, v in zip(leaf.keys, leaf.refs):
                if lo <= k <= hi:
                    items.append((k, v))
                    if max_results is not None and len(items) >= max_results:
                        return items
        return items
