"""Client-side B+tree access over the Catfish framework.

* :class:`KvFmSession` — get/put/delete/scan through the ring buffer
  (the generic :class:`FmSession` with the KV wire codec);
* :class:`BTreeOffloadEngine` — one-sided traversal: point lookups walk
  root→leaf with validated chunk reads; range scans multi-issue all the
  leaves the parent points into the range (the B+tree analogue of the
  R-tree's multi-issue).

Path selection is not here: a
:class:`~repro.runtime.session.PolicySession` over these two runs
Algorithm 1 (or any other policy) unchanged, with gets and scans as the
offloadable operations.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple

from ..client.base import ClientStats
from ..client.fm_client import FmSession
from ..client.offload_client import OffloadError
from ..client.resilience import OFFLOAD_READ_RETRIES, OFFLOAD_SEARCH_RESTARTS
from ..msg.codec import (
    KvDeleteRequest,
    KvGetRequest,
    KvPutRequest,
    KvScanRequest,
)
from ..server.costs import CostModel
from ..sim.kernel import Event, Simulator
from ..sim.resources import Mailbox
from ..transport.rdma import QpEndpoint
from .serialize import snapshot_from_bytes
from .service import BNodeSnapshot, KvMeta, KvOffloadDescriptor

OP_GET = "get"
OP_PUT = "put"
OP_KV_DELETE = "kv_delete"
OP_SCAN = "scan"

META_READ_SIZE = 16


class KvRequest:
    """One client-side KV request (scheme-independent)."""

    __slots__ = ("op", "key", "value", "lo", "hi", "max_results")

    def __init__(self, op, key=None, value=None, lo=None, hi=None,
                 max_results=None):
        if op not in (OP_GET, OP_PUT, OP_KV_DELETE, OP_SCAN):
            raise ValueError(f"unknown kv op {op!r}")
        if op in (OP_GET, OP_PUT, OP_KV_DELETE) and key is None:
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
        if request.op == OP_KV_DELETE:
            return KvDeleteRequest(req_id, request.key)
        return KvScanRequest(req_id, request.lo, request.hi,
                             request.max_results)


class BTreeOffloadEngine:
    """One-sided B+tree traversal with validation and restarts."""

    #: Counters summed over all clients into the ``offload.*`` metrics.
    counter_fields = ("meta_reads", "chunks_fetched")

    def __init__(
        self,
        sim: Simulator,
        qp: QpEndpoint,
        descriptor: KvOffloadDescriptor,
        costs: CostModel,
        stats: ClientStats,
        multi_issue: bool = True,
        max_read_retries: int = OFFLOAD_READ_RETRIES,
        max_restarts: int = OFFLOAD_SEARCH_RESTARTS,
        retry_backoff: float = 1e-6,
    ):
        self.sim = sim
        self.qp = qp
        self.desc = descriptor
        self.costs = costs
        self.stats = stats
        self.multi_issue = multi_issue
        self.max_read_retries = max_read_retries
        self.max_restarts = max_restarts
        self.retry_backoff = retry_backoff
        self._cached_root: Optional[int] = None
        self._cached_height: Optional[int] = None
        self.meta_reads = 0
        self.chunks_fetched = 0

    # -- low-level reads -------------------------------------------------------

    def _addr(self, chunk_id: int) -> int:
        return self.desc.tree_base + chunk_id * self.desc.chunk_bytes

    def _read_meta(self) -> Generator:
        meta: KvMeta = yield self.qp.post_read(
            self.desc.meta_rkey, self.desc.meta_base, META_READ_SIZE
        )
        self.meta_reads += 1
        return meta

    def _apply_meta(self, meta: KvMeta) -> bool:
        stale = (meta.root_chunk != self._cached_root
                 or meta.height != self._cached_height)
        self._cached_root = meta.root_chunk
        self._cached_height = meta.height
        return stale

    def _post_chunk_read(self, chunk_id: int) -> Event:
        return self.qp.post_read(self.desc.tree_rkey, self._addr(chunk_id),
                                 self.desc.chunk_bytes)

    def _accept(self, data, expect_leaf: Optional[bool]):
        """Count and validate one fetched image: the snapshot, or None
        (counted as torn) when it must be re-read."""
        self.chunks_fetched += 1
        if isinstance(data, (bytes, bytearray)):
            view = snapshot_from_bytes(data, self.desc.capacity)
            ok = view is not None
        else:
            view = data
            ok = not view.torn
        if ok and (expect_leaf is None or view.is_leaf == expect_leaf):
            return view
        self.stats.torn_retries += 1
        return None

    def _read_valid(self, chunk_id: int, expect_leaf: Optional[bool] = None,
                    attempt: int = 0) -> Generator:
        for attempt in range(attempt, self.max_read_retries):
            data = yield self._post_chunk_read(chunk_id)
            view = self._accept(data, expect_leaf)
            if view is not None:
                return view
            yield self.sim.timeout(self.retry_backoff * (attempt + 1))
        return None

    def _read_then(self, chunk_id: int, expect_leaf: Optional[bool],
                   deliver: Callable[[Optional[BNodeSnapshot]], None]
                   ) -> None:
        """:meth:`_read_valid` for a concurrent fetch: ``deliver(view)``
        (None on failure) runs in the step the read would have returned
        in, as the last thing that step does.  Attempt 0 is a callback;
        only a re-read runs the generator."""

        def landed(event: Event) -> None:
            if not event._ok:
                return  # the failed read surfaces from the run
            view = self._accept(event._value, expect_leaf)
            if view is not None:
                deliver(view)
            else:
                self.sim.start(self._reread(chunk_id, expect_leaf, deliver),
                               name="kv-reread")

        self._post_chunk_read(chunk_id).callbacks.append(landed)

    def _reread(self, chunk_id: int, expect_leaf: Optional[bool],
                deliver: Callable[[Optional[BNodeSnapshot]], None]
                ) -> Generator:
        yield self.sim.timeout(self.retry_backoff * 1)
        deliver((yield from self._read_valid(chunk_id, expect_leaf,
                                             attempt=1)))

    # -- operations -------------------------------------------------------------

    def read(self, request: KvRequest) -> Generator:
        """Serve one read request (get / scan) one-sidedly."""
        if request.op == OP_GET:
            return self.get(request.key)
        return self.scan(request.lo, request.hi, request.max_results)

    def get(self, key: int) -> Generator:
        """Point lookup; returns [(key, value)] or []."""
        self.stats.offloaded_requests += 1
        for _restart in range(self.max_restarts):
            meta = yield from self._read_meta()
            self._apply_meta(meta)
            items = yield from self._descend_and_read(key)
            if items is not None:
                self.stats.results_received += len(items)
                return items
            self.stats.search_restarts += 1
        raise OffloadError("get() did not complete after restarts")

    def _descend_and_read(self, key: int) -> Generator:
        chunk_id = self._cached_root
        remaining_levels = self._cached_height
        while True:
            expect_leaf = remaining_levels == 1
            view = yield from self._read_valid(chunk_id, expect_leaf)
            if view is None:
                return None
            yield self.sim.timeout(self.costs.client_node_check)
            if view.is_leaf:
                items = [
                    (k, v) for k, v in zip(view.keys, view.refs) if k == key
                ]
                return items
            chunk_id = view.child_for(key)
            remaining_levels -= 1

    def scan(self, lo: int, hi: int,
             max_results: Optional[int] = None) -> Generator:
        """Range scan [lo, hi]; multi-issue fetches sibling leaves in
        one wave when the parent's fan-out covers the range."""
        self.stats.offloaded_requests += 1
        for _restart in range(self.max_restarts):
            meta = yield from self._read_meta()
            self._apply_meta(meta)
            items = yield from self._scan_once(lo, hi, max_results)
            if items is not None:
                self.stats.results_received += len(items)
                return items
            self.stats.search_restarts += 1
        raise OffloadError("scan() did not complete after restarts")

    def _scan_once(self, lo, hi, max_results) -> Generator:
        if self.multi_issue:
            items = yield from self._scan_levelwise(lo, hi, max_results)
        else:
            items = yield from self._scan_chain(lo, hi, max_results)
        return items

    def _scan_chain(self, lo, hi, max_results) -> Generator:
        """Baseline: descend to lo's leaf, then walk the next-leaf chain —
        one RDMA Read per node, strictly sequential RTTs."""
        chunk_id = self._cached_root
        levels_left = self._cached_height
        while levels_left > 1:
            view = yield from self._read_valid(chunk_id, expect_leaf=False)
            if view is None:
                return None
            yield self.sim.timeout(self.costs.client_node_check)
            chunk_id = view.child_for(lo)
            levels_left -= 1

        items: List[Tuple[int, int]] = []
        next_id = chunk_id
        while next_id is not None:
            leaf = yield from self._read_valid(next_id, expect_leaf=True)
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
            views = yield from self._fetch_wave(frontier, expect_leaf=False)
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

        leaves = yield from self._fetch_wave(frontier, expect_leaf=True)
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

    def _fetch_wave(self, chunk_ids, expect_leaf) -> Generator:
        """Fetch chunks concurrently, preserving input order; None if any
        read failed validation permanently."""
        arrived = Mailbox(self.sim)
        for index, cid in enumerate(chunk_ids):
            self._read_then(
                cid, expect_leaf,
                lambda view, index=index: arrived.put((index, view)))
        views: List[Optional[BNodeSnapshot]] = [None] * len(chunk_ids)
        failed = False
        for _ in chunk_ids:
            index, view = yield arrived.get()
            if view is None:
                failed = True
            views[index] = view
        return None if failed else views
