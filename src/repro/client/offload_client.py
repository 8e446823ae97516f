"""RDMA offloading: one-sided reads under every index, and the R-tree's
client-side traversal over them.

The paper's second design (§III-B) plus the multi-issue enhancement
(§IV-C), and §VI's claim that both carry to any link-based structure:

* :class:`OneSidedReader` is the one-sided protocol every offload engine
  shares: the meta read, the validated chunk read with re-reads and
  backoff, the concurrent wave of reads, and the restart-and-span loop
  every offloaded read returns, and the one image check.  An index
  supplies only its address map, its image decode and fit, and its
  traversal — :class:`OffloadEngine` (below),
  :class:`~repro.btree.offload.BTreeOffloadEngine` and
  :class:`~repro.cuckoo.service.CuckooOffloadEngine`;
* the R-tree client fetches the root chunk with an RDMA Read, intersects
  the query against the node's MBRs, and recursively fetches every
  intersecting child — the server CPU is never involved;
* **single-issue** (the FaRM-style baseline) fetches one node per RTT;
* **multi-issue** (Catfish) posts RDMA Reads for *all* intersecting
  children at once, pipelining the RTTs on the NICs and the wire, and
  starts checking whichever node returns first;
* every fetched node is validated with the version mechanism; a torn
  snapshot is re-read.  A node whose level does not match its parent's
  expectation reveals a stale root (the root split since the client cached
  it), which triggers a meta refresh and a search restart.

Writes are *never* offloaded: insert/delete always travel the fast
messaging path so the server's lock manager serializes them (§III-B).

An optional client-side :class:`~repro.client.node_cache.NodeCache`
(RDMAbox-style) serves repeated upper-level fetches locally: internal
views are cached under the tree's mutation high-water mark, concurrent
fetches of the same chunk coalesce into one in-flight read
(single-flight), and distinct same-round multi-issue reads are
doorbell-batched through one :meth:`QpEndpoint.post_read_batch`.  Leaf
chunks are always re-read and re-validated — the FaRM version check on
fresh leaf reads is the safety net under concurrent writes.  With no
cache attached (the default) every code path is byte-identical to the
pre-cache engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..obs.trace import NULL_SPAN, NULL_TRACER
from ..rtree import batch as _batch
from ..rtree.geometry import Rect
from ..rtree.serialize import NodeView, view_from_bytes
from ..server.costs import CostModel
from ..sim.kernel import Event, Simulator
from ..sim.resources import Mailbox
from ..transport.rdma import QpEndpoint
from .base import OP_COUNT, OP_SEARCH, ClientStats, Request
from .node_cache import NodeCache
from .resilience import (
    OFFLOAD_READ_RETRIES,
    OFFLOAD_RETRY_BACKOFF,
    OFFLOAD_SEARCH_RESTARTS,
)

#: Bytes of a meta read (root pointer + height + mutation mark).
META_READ_SIZE = 16

#: Where a wave hands each fetched image: ``deliver(i, view)`` for the
#: wave's ``i``-th chunk, ``view`` None when its reads kept failing.
Deliver = Callable[[int, Any], None]


class OffloadError(Exception):
    """A search could not complete after the configured restarts."""


class OneSidedReader:
    """The one-sided read protocol shared by every offload engine.

    A subclass supplies three things:

    * its address map, :meth:`_address_map`;
    * its image: :meth:`_decode`, which decodes and FaRM-validates the
      bytes a byte-mode server returns, and :meth:`_fits`, which accepts
      a valid view as the one the traversal expected (counted when not);
      :meth:`_check` runs both, once for every index;
    * its traversal: attempts that return a result, or None to restart,
      run through :meth:`_restarting`.

    A chunk is requested as ``(chunk_id, expected)``, where ``expected``
    is what :meth:`_fits` needs to accept it (the R-tree's level, the
    B+tree's leafness, nothing for a cuckoo bucket).

    :meth:`_fits` may also note the image's entry-loss stamp in
    :attr:`_lost_seq` (the R-tree's, see :attr:`~repro.rtree.node.Node
    .lost_seq`).  A traversal reads a parent before its children, so a
    child that lost entries after the parent was read hides them: an
    attempt that accepted an image stamped after its meta read's mutation
    mark restarts, whichever traversal ran it.
    """

    #: Counters summed over all clients into the ``offload.*`` metrics.
    counter_fields: Tuple[str, ...] = ("meta_reads", "chunks_fetched")

    def __init__(
        self,
        sim: Simulator,
        qp: QpEndpoint,
        descriptor,
        costs: CostModel,
        stats: ClientStats,
        multi_issue: bool = True,
        max_read_retries: int = OFFLOAD_READ_RETRIES,
        max_restarts: int = OFFLOAD_SEARCH_RESTARTS,
        tracer=None,
    ):
        self.sim = sim
        self.qp = qp
        self.desc = descriptor
        self.costs = costs
        self.stats = stats
        self.multi_issue = multi_issue
        self.max_read_retries = max_read_retries
        self.max_restarts = max_restarts
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rkey, self._base, self._stride = self._address_map(descriptor)
        self._cached_root: Optional[int] = None
        self._cached_height: Optional[int] = None
        self._span = NULL_SPAN
        self.meta_reads = 0
        self.stale_root_detections = 0
        self.chunks_fetched = 0
        self.moved_entry_restarts = 0
        #: The current attempt's meta-read mutation mark, and the newest
        #: entry-loss stamp among the images it accepted (-1: none).
        self._read_seq = -1
        self._lost_seq = -1
        #: The R-tree's node cache, and its single-flight table: chunk id
        #: -> follower events sharing the leader's in-flight read.  Both
        #: stay None without a cache, so the cache-less engine stays
        #: byte-identical to the seed.
        self.cache: Optional[NodeCache] = None
        self._inflight_reads: Optional[Dict[int, List]] = None

    @staticmethod
    def _address_map(desc) -> Tuple[int, int, int]:
        """``(rkey, base address, bytes per chunk)`` of the chunk region."""
        return desc.tree_rkey, desc.tree_base, desc.chunk_bytes

    def _check(self, data, expected):
        """The image check: the view ``data`` holds, or None (counted in
        the client stats) when it must be re-read.

        A server serves object images (the fast path) or raw chunk bytes
        (byte mode, the reference path); bytes run the real decode and
        per-cache-line version comparison, an object image its ``torn``
        flag.  Either rejection counts as a torn read."""
        if isinstance(data, (bytes, bytearray)):
            view = self._decode(data)
        else:
            view = None if data.torn else data
        if view is None:
            self.stats.torn_retries += 1
            return None
        return view if self._fits(view, expected) else None

    def _decode(self, data: bytes):
        """The view chunk bytes hold, or None when they do not validate."""
        raise NotImplementedError

    def _fits(self, view, expected) -> bool:
        """Whether a valid view is the chunk the traversal expected
        (counting the mismatch when it is not)."""
        return True

    # -- low-level reads -----------------------------------------------------

    def _relayed(self, start: Callable[[Callable[[Event], None]], None]
                 ) -> Generator:
        """Run a callback fetch from a process: ``start(then)`` posts it,
        and the process goes on with its value (or its error) in the step
        its completion is processed."""
        relay = self.sim.event()
        start(lambda event: self.sim.fire(relay, event))
        event = yield relay
        if not event._ok:
            event.defused = True
            raise event._value
        return event._value

    def _meta_then(self, then: Callable[[Event], None]) -> None:
        """Fetch the root pointer from the server's meta region; ``then``
        gets the read's completion event."""
        self._span.annotate("meta_read")

        def landed(event: Event) -> None:
            if event._ok:
                self.meta_reads += 1
            then(event)

        self.qp.post_read(
            self.desc.meta_rkey, self.desc.meta_base, META_READ_SIZE
        ).callbacks.append(landed)

    def _read_meta(self) -> Generator:
        """:meth:`_meta_then` from a process, adopted by
        :meth:`_apply_meta`."""
        self._apply_meta((yield from self._relayed(self._meta_then)))

    def _apply_meta(self, meta, hits: int = 0) -> bool:
        """Adopt a meta read: the cached root and height, and the mutation
        mark for the node cache (cached views fetched under an older mark
        are dropped).  True if a traversal already under way must
        restart: the cached root was stale, or the mark advanced after
        ``hits`` cache hits were served under the older one."""
        stale = (
            meta.root_chunk != self._cached_root
            or meta.height != self._cached_height
        )
        if stale and self._cached_root is not None:
            self.stale_root_detections += 1
        self._cached_root = meta.root_chunk
        self._cached_height = meta.height
        self._read_seq = meta.mut_seq
        cache = self.cache
        advanced = (cache is not None and meta.mut_seq >= 0
                    and cache.note_server_hwm(meta.mut_seq))
        return stale or (advanced and hits > 0)

    def _post_chunk_read(self, chunk_id: int) -> Event:
        stride = self._stride
        return self.qp.post_read(self._rkey, self._base + chunk_id * stride,
                                 stride)

    def _fetch_then(self, chunk_id: int, then: Callable[[Event], None],
                    first_read: Optional[Event] = None) -> None:
        """One raw chunk fetch: ``then`` gets the completion event.

        With a cache attached, concurrent fetches of the same chunk
        (multi-issue re-reads, concurrent searches sharing this engine)
        share one RDMA Read via the single-flight table: the leader
        posts, followers wait on it and receive the same raw data.
        ``first_read`` is an already-posted doorbell-batched read of the
        chunk (counted at post time), whose followers it feeds.
        """
        inflight = self._inflight_reads
        counted = leads = True
        if first_read is not None:
            read, counted, leads = first_read, False, inflight is not None
        elif inflight is None:
            read, leads = self._post_chunk_read(chunk_id), False
        elif chunk_id in inflight:
            follower = self.sim.event()
            inflight[chunk_id].append(follower)
            if self.cache is not None:
                self.cache.coalesced_reads += 1
            follower.callbacks.append(then)
            return
        else:
            inflight[chunk_id] = []
            read = self._post_chunk_read(chunk_id)

        def landed(event: Event) -> None:
            if event._ok:
                if counted:
                    self.chunks_fetched += 1
                if leads:
                    for follower in inflight.pop(chunk_id, ()):
                        follower.succeed(event._value)
            elif leads:
                for follower in inflight.pop(chunk_id, ()):
                    follower.fail(event._value)
            then(event)

        read.callbacks.append(landed)

    def _accept(self, chunk_id: int, expected, data, stamp, attempt: int):
        """Run the image check on one fetched image: the view (stored in
        the node cache, if any), or None (annotated) when it must be
        re-read."""
        view = self._check(data, expected)
        span = self._span
        if view is None:
            span.annotate("retry", chunk=chunk_id, attempt=attempt)
            return None
        span.annotate("validate", chunk=chunk_id, ok=True)
        if self.cache is not None:
            self.cache.store(view, stamp=stamp)
        return view

    def _stamp(self, chunk_id: int, expected, attempt: int):
        """Annotate a fetch attempt; the cache stamp it stores under.

        The stamp is captured before the fetch: if the high-water mark
        moves while the read is in flight, the store is skipped rather
        than mis-stamping pre-mutation content."""
        self._span.annotate("issue", chunk=chunk_id, level=expected,
                            attempt=attempt)
        return self.cache.server_hwm if self.cache is not None else None

    def _read_valid(self, chunk_id: int, expected, attempt: int = 0
                    ) -> Generator:
        """Fetch one chunk, re-reading rejected images; None on failure.

        A first attempt is served from the node cache when it holds the
        chunk (internal levels only: leaves are always re-read)."""
        cache = self.cache
        if cache is not None and not attempt and expected > 0:
            view = cache.lookup(chunk_id)
            if view is not None:
                self._span.annotate("cache_hit", chunk=chunk_id,
                                    level=expected)
                return view
        while attempt < self.max_read_retries:
            stamp = self._stamp(chunk_id, expected, attempt)
            data = yield from self._relayed(
                lambda then: self._fetch_then(chunk_id, then))
            view = self._accept(chunk_id, expected, data, stamp, attempt)
            if view is not None:
                return view
            attempt += 1
            if attempt < self.max_read_retries:
                # No backoff after the final attempt: the caller is about
                # to restart (or fail) anyway, and the largest backoff of
                # the schedule would be pure added latency.
                yield self.sim.timeout(OFFLOAD_RETRY_BACKOFF * attempt)
        return None

    def _read_then(self, i: int, chunk_id: int, expected, deliver: Deliver,
                   first_read: Optional[Event] = None) -> None:
        """:meth:`_read_valid` for a concurrent fetch: ``deliver(i, view)``
        (None on failure) runs in the step the read would have returned
        in, as the last thing that step does.  Attempt 0 is callbacks;
        only a re-read runs the generator."""
        stamp = self._stamp(chunk_id, expected, 0)

        def landed(event: Event) -> None:
            if not event._ok:
                return  # the failed read surfaces from the run
            view = self._accept(chunk_id, expected, event._value, stamp, 0)
            if view is not None or self.max_read_retries <= 1:
                deliver(i, view)
            else:
                self.sim.start(self._reread(i, chunk_id, expected, deliver),
                               name="offload-reread")

        self._fetch_then(chunk_id, landed, first_read)

    def _reread(self, i: int, chunk_id: int, expected, deliver: Deliver
                ) -> Generator:
        yield self.sim.timeout(OFFLOAD_RETRY_BACKOFF * 1)
        deliver(i, (yield from self._read_valid(chunk_id, expected,
                                                attempt=1)))

    # -- waves -----------------------------------------------------------------

    def _issue_wave(self, pairs: List[Tuple[int, Any]],
                    deliver: Deliver) -> int:
        """Issue one wave of chunk fetches; returns its cache hits.

        Cache hits are delivered at once, chunks already in flight join
        the leader single-flight, and the remaining misses are posted
        concurrently: through one doorbell when ≥2 and the single-flight
        table exists (cache attached), else as individual reads.  Every
        chunk is delivered exactly once, unless its read fails outright
        (the failed read surfaces from the run).  Chunk ids within a wave
        are distinct by construction.
        """
        cache = self.cache
        inflight_reads = self._inflight_reads
        hits = 0
        to_post: List[int] = []
        for i, (chunk_id, expected) in enumerate(pairs):
            view = (cache.lookup(chunk_id)
                    if cache is not None and expected > 0 else None)
            if view is not None:
                hits += 1
                self._span.annotate("cache_hit", chunk=chunk_id,
                                    level=expected)
                deliver(i, view)
            elif inflight_reads is not None and chunk_id in inflight_reads:
                # Single-flight: _fetch_then joins the leader.
                self._read_then(i, chunk_id, expected, deliver)
            else:
                to_post.append(i)
        if len(to_post) >= 2 and inflight_reads is not None:
            rkey, base, stride = self._rkey, self._base, self._stride
            events = self.qp.post_read_batch([
                (rkey, base + pairs[i][0] * stride, stride) for i in to_post
            ])
            for i, event in zip(to_post, events):
                chunk_id, expected = pairs[i]
                inflight_reads[chunk_id] = []
                self.chunks_fetched += 1
                self._read_then(i, chunk_id, expected, deliver, event)
        else:
            for i in to_post:
                chunk_id, expected = pairs[i]
                self._read_then(i, chunk_id, expected, deliver)
        return hits

    def _fetch_round(self, pairs: List[Tuple[int, Any]],
                     urgent: bool = False) -> Generator:
        """Fetch one wave; its views in ``pairs`` order, or None if any
        chunk's reads kept failing.

        Multi-issue posts the wave at once (:meth:`_issue_wave`),
        single-issue reads one chunk per round trip.  An ``urgent`` wave
        is posted at once under every scheme, from a
        :meth:`Simulator.urgent` callback: the queue slot a process start
        takes, behind the caller's step (the cuckoo GET's, which has no
        cache; see ``docs/performance.md`` §5).
        """
        views: List[Any] = [None] * len(pairs)
        if not (self.multi_issue or urgent):
            for i, (chunk_id, expected) in enumerate(pairs):
                view = yield from self._read_valid(chunk_id, expected)
                if view is None:
                    return None
                views[i] = view
            return views
        arrived = Mailbox(self.sim)

        def landed(i: int, view) -> None:
            arrived.put((i, view))

        if urgent:
            self.sim.urgent(lambda _event: self._issue_wave(pairs, landed))
        else:
            self._issue_wave(pairs, landed)
        failed = False
        for _ in pairs:
            i, view = yield arrived.get()
            if view is None:
                failed = True
            views[i] = view
        return None if failed else views

    # -- the restart loop ------------------------------------------------------

    def _restarting(self, op: str, attempt: Callable[..., Generator], *args,
                    found: Callable[[Any], int] = len) -> Generator:
        """The restart-and-span loop every offloaded read returns.

        Runs ``attempt(*args)`` until it returns a result (not None) —
        None means a stale root or a chunk whose reads kept failing —
        and accepted no image that lost entries after its meta read, at
        most :attr:`max_restarts` times, then raises
        :class:`OffloadError`.  ``found(result)`` results are counted.
        """
        span = self._span = self.tracer.span("offload", op)
        ended = False
        error: Optional[str] = None
        try:
            for restart in range(self.max_restarts):
                self._lost_seq = -1
                result = yield from attempt(*args)
                if result is not None and self._lost_seq > self._read_seq:
                    self.moved_entry_restarts += 1
                    result = None
                if result is not None:
                    results = found(result)
                    self.stats.results_received += results
                    span.end(restarts=restart, results=results)
                    ended = True
                    return result
                self.stats.search_restarts += 1
                span.annotate("restart", attempt=restart + 1)
            error = "restarts-exhausted"
            raise OffloadError(
                f"{op} did not complete after {self.max_restarts} restarts"
            )
        except BaseException as exc:
            # An escaping exception (e.g. an injected fault) must still
            # end the span — a leaked span pins its trace ring slot.
            if error is None:
                error = type(exc).__name__
            raise
        finally:
            self._span = NULL_SPAN
            if not ended:
                span.end(error=error if error is not None else "unknown")


def _total_matches(results: List[List]) -> int:
    return sum(map(len, results))


class OffloadEngine(OneSidedReader):
    """One-sided R-tree traversal: search, count, kNN and batched search."""

    counter_fields = ("meta_reads", "stale_root_detections",
                      "chunks_fetched", "moved_entry_restarts")

    def attach_cache(self, cache: NodeCache) -> None:
        """Enable the client-side node cache (and read coalescing)."""
        self.cache = cache
        self._inflight_reads = {}

    def _decode(self, data: bytes) -> Optional[NodeView]:
        return view_from_bytes(data, self.desc.max_entries)

    def _fits(self, view: NodeView, level: int) -> bool:
        if view.level != level:
            # Valid image at the wrong level: a recycled chunk or a stale
            # root, not a torn snapshot — keep the diagnosis streams
            # separate.
            self.stats.level_mismatch_retries += 1
            return False
        if view.lost_seq > self._lost_seq:
            self._lost_seq = view.lost_seq
        return True

    # -- search ------------------------------------------------------------------

    def read(self, request: Request) -> Generator:
        """Serve one read request (search / count / nearest) one-sidedly."""
        op = request.op
        if op == OP_SEARCH:
            return self.search(request.rect)
        if op == OP_COUNT:
            return self.count(request.rect)
        cx, cy = request.rect.center()
        return self.nearest(cx, cy, request.k)

    def search(self, query: Rect) -> Generator:
        """Traverse the tree one-sidedly; returns [(rect, data_id), ...].

        Every search validates the cached root pointer against the meta
        region: a root split would otherwise leave the old root looking
        perfectly valid (same chunk, same level) while missing the new
        sibling's subtree.  Multi-issue overlaps the meta read with the
        optimistic root read, so validation costs no extra round trip;
        single-issue (the baseline) pays it sequentially — one more of the
        "multiple RTTs" the paper attributes to offloading.
        """
        self.stats.offloaded_requests += 1
        attempt = (self._search_multi_issue if self.multi_issue
                   else self._search_single_issue)
        return self._restarting("search", attempt, query)

    def count(self, query: Rect) -> Generator:
        """Aggregate-only offloaded search: traverse, count, ship nothing
        beyond the chunks themselves."""
        matches = yield from self.search(query)
        return len(matches)

    # -- batched search ------------------------------------------------------

    def search_batch(self, queries: List[Rect]) -> Generator:
        """One shared one-sided traversal for a group of range queries.

        Returns one match list per query, set-identical to running
        :meth:`search` once per query (ordering follows the shared
        frontier: level wave by level wave, nodes in discovery order).
        The amortization is the point: each tree node of interest is
        fetched **once per batch** — one RDMA Read (or one cache hit)
        serves every query that reaches the node — and each wave's
        misses go out pipelined (doorbell-batched when the cache's
        single-flight table is attached).  One meta read validates the
        whole batch; any stale root / torn-read failure restarts the
        whole batch, mirroring :meth:`search`.
        """
        self.stats.offloaded_requests += len(queries)
        return self._restarting("search_batch", self._batch_attempt,
                                queries, found=_total_matches)

    def _batch_attempt(self, queries: List[Rect]) -> Generator:
        """One batched traversal attempt; None => restart the batch.

        The meta read is sequential (as in the single-issue path), so
        the mutation high-water mark is synchronized before any cache
        hit is served — hits are exact as of batch start, no mid-flight
        stale-abort bookkeeping needed.
        """
        if not queries:
            return []
        yield from self._read_meta()
        qb = _batch.QueryBatch(queries)
        results: List[List[Tuple[Rect, int]]] = [[] for _ in queries]
        frontier = [(self._cached_root, self._cached_height - 1, qb.all_sel)]
        while frontier:
            views = yield from self._fetch_round(
                [(chunk_id, level) for chunk_id, level, _q in frontier]
            )
            if views is None:
                return None
            next_frontier = []
            for (chunk_id, level, qsel), view in zip(frontier, views):
                # One node check serves the whole interest set — the
                # (Q x E) matrix below is a single kernel evaluation.
                yield self.sim.timeout(self.costs.client_node_check)
                entries = view.entries
                count = len(entries)
                source = _batch.view_scan_source(view)
                if view.is_leaf:
                    qlist = _batch.QueryBatch.sel_list(qsel)
                    gete = entries.__getitem__
                    for row, ent_idxs in _batch.batch_leaf_hits(
                        source, count, qb, qsel
                    ):
                        results[qlist[row]].extend(map(gete, ent_idxs))
                else:
                    for e_idx, sub in _batch.batch_child_sets(
                        source, count, qb, qsel
                    ):
                        next_frontier.append(
                            (entries[e_idx][1], level - 1, sub)
                        )
            frontier = next_frontier
        return results

    def nearest(self, x: float, y: float, k: int = 1) -> Generator:
        """Offloaded kNN: best-first branch-and-bound over one-sided reads.

        Inherently sequential (the next chunk to fetch depends on the
        heap top), so each expansion costs a round trip — kNN is the
        worst case for offloading and the best case for fast messaging,
        which the adaptive client will discover via its latencies.
        Traced and counted with full :meth:`search` parity.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.stats.offloaded_requests += 1
        return self._restarting("nearest", self._nearest_once, x, y, k)

    def _nearest_once(self, x: float, y: float, k: int) -> Generator:
        yield from self._read_meta()
        counter = itertools.count()
        heap = [(0.0, next(counter), "chunk",
                 (self._cached_root, self._cached_height - 1))]
        matches: List[Tuple[Rect, int]] = []
        while heap and len(matches) < k:
            _dist, _seq, kind, payload = heapq.heappop(heap)
            if kind == "entry":
                matches.append(payload)
                continue
            chunk_id, level = payload
            view = yield from self._read_valid(chunk_id, level)
            if view is None:
                return None
            yield self.sim.timeout(self.costs.client_node_check)
            dists = _batch.view_min_dist2(view, x, y)
            for (rect, ref), dist in zip(view.entries, dists):
                if view.is_leaf:
                    heapq.heappush(heap, (dist, next(counter),
                                          "entry", (rect, ref)))
                else:
                    heapq.heappush(heap, (dist, next(counter),
                                          "chunk", (ref, level - 1)))
        return matches

    def _search_single_issue(self, query: Rect) -> Generator:
        """Baseline traversal: one outstanding RDMA Read at a time.

        The sequential meta read synchronizes the high-water mark first,
        so a cache hit is exact as of search start."""
        yield from self._read_meta()
        matches: List[Tuple[Rect, int]] = []
        stack = [(self._cached_root, self._cached_height - 1)]
        while stack:
            chunk_id, level = stack.pop()
            view = yield from self._read_valid(chunk_id, level)
            if view is None:
                return None
            yield self.sim.timeout(self.costs.client_node_check)
            if view.is_leaf:
                matches.extend(view.intersecting_entries(query))
            else:
                for ref in view.intersecting_refs(query):
                    stack.append((ref, level - 1))
        return matches

    def _search_multi_issue(self, query: Rect) -> Generator:
        """Catfish traversal: fetch all intersecting children at once.

        The meta read flies together with the optimistic root read; if it
        reveals a root change the attempt is abandoned and restarted from
        the fresh root.  On the cold-start path (no cached root yet) the
        bootstrap meta read *is* the validation — issuing a second,
        concurrent meta fetch would pay an extra RTT for a value fetched
        one RTT ago, so it is skipped.

        With a cache attached the same meta read also validates every
        cache hit: if it reveals the mutation mark advanced after hits
        were already served (they described a pre-mutation tree), the
        attempt is abandoned exactly like a stale root.  Each expansion
        is one :meth:`_issue_wave`.
        """
        cold_start = self._cached_root is None
        if cold_start:
            yield from self._read_meta()

        matches: List[Tuple[Rect, int]] = []
        arrived = Mailbox(self.sim)
        inflight = 0
        failed = False
        hits = 0

        def landed(i: Optional[int], payload) -> None:
            arrived.put((i, payload))

        def meta_landed(event: Event) -> None:
            if event._ok:  # else the failed read surfaces from the run
                landed(None, event._value)

        def expand(pairs: List[Tuple[int, int]]) -> None:
            nonlocal inflight, hits
            inflight += len(pairs)
            hits += self._issue_wave(pairs, landed)

        if not cold_start:
            inflight += 1
            self._meta_then(meta_landed)
        expand([(self._cached_root, self._cached_height - 1)])
        while inflight:
            i, payload = yield arrived.get()
            inflight -= 1
            if i is None:  # the meta read
                failed = self._apply_meta(payload, hits) or failed
                continue
            view = payload
            if view is None:
                failed = True
                continue  # drain remaining in-flight reads
            if failed:
                continue
            yield self.sim.timeout(self.costs.client_node_check)
            if view.is_leaf:
                matches.extend(view.intersecting_entries(query))
            else:
                expand([(ref, view.level - 1)
                        for ref in view.intersecting_refs(query)])
        return None if failed else matches
