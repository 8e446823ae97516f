"""RDMA offloading: client-side R-tree traversal over one-sided reads.

The paper's second design (§III-B) plus the multi-issue enhancement
(§IV-C):

* the client fetches the root chunk with an RDMA Read, intersects the
  query against the node's MBRs, and recursively fetches every
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

from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..obs.registry import Counter
from ..obs.trace import NULL_SPAN, NULL_TRACER
from ..rtree import batch as _batch
from ..rtree.geometry import Rect
from ..rtree.serialize import NodeView, view_from_bytes
from ..rtree.versioning import validate_snapshot
from ..server.base import OffloadDescriptor, TreeMeta
from ..server.costs import CostModel
from ..sim.kernel import Event, Simulator
from ..sim.resources import Mailbox
from ..transport.rdma import QpEndpoint
from .base import OP_COUNT, OP_SEARCH, ClientStats, Request
from .node_cache import NodeCache
from .resilience import OFFLOAD_READ_RETRIES, OFFLOAD_SEARCH_RESTARTS

#: Bytes of a meta read (root pointer + height + mutation mark).
META_READ_SIZE = 16


class OffloadError(Exception):
    """A search could not complete after the configured restarts."""


class OffloadEngine:
    """One-sided tree traversal with retry/restart handling."""

    #: Counters summed over all clients into the ``offload.*`` metrics.
    counter_fields = ("meta_reads", "stale_root_detections",
                      "chunks_fetched")

    def __init__(
        self,
        sim: Simulator,
        qp: QpEndpoint,
        descriptor: OffloadDescriptor,
        costs: CostModel,
        stats: ClientStats,
        multi_issue: bool = True,
        max_read_retries: int = OFFLOAD_READ_RETRIES,
        max_search_restarts: int = OFFLOAD_SEARCH_RESTARTS,
        retry_backoff: float = 1e-6,
        tracer=None,
        cache: Optional[NodeCache] = None,
    ):
        self.sim = sim
        self.qp = qp
        self.desc = descriptor
        self.costs = costs
        self.stats = stats
        self.multi_issue = multi_issue
        self.max_read_retries = max_read_retries
        self.max_search_restarts = max_search_restarts
        self.retry_backoff = retry_backoff
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._cached_root: Optional[int] = None
        self._cached_height: Optional[int] = None
        self._span = NULL_SPAN
        self.meta_reads = Counter("offload.meta_reads")
        self.stale_root_detections = Counter("offload.stale_root_detections")
        self.chunks_fetched = Counter("offload.chunks_fetched")
        self.cache: Optional[NodeCache] = None
        #: Single-flight table: chunk id -> follower events sharing the
        #: leader's in-flight read.  Only allocated with a cache attached
        #: so the cache-less engine stays byte-identical to the seed.
        self._inflight_reads: Optional[Dict[int, List]] = None
        if cache is not None:
            self.attach_cache(cache)

    def attach_cache(self, cache: NodeCache) -> None:
        """Enable the client-side node cache (and read coalescing)."""
        self.cache = cache
        self._inflight_reads = {}

    # -- low-level reads -----------------------------------------------------

    def _chunk_address(self, chunk_id: int) -> int:
        return self.desc.tree_base + chunk_id * self.desc.chunk_bytes

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
        """:meth:`_meta_then` from a process; returns the meta."""
        return self._relayed(self._meta_then)

    def _apply_meta(self, meta: TreeMeta) -> bool:
        """Update the root cache; True if the cached root was stale."""
        stale = (
            meta.root_chunk != self._cached_root
            or meta.height != self._cached_height
        )
        if stale and self._cached_root is not None:
            self.stale_root_detections += 1
        self._cached_root = meta.root_chunk
        self._cached_height = meta.height
        return stale

    def _note_meta_hwm(self, meta: TreeMeta) -> bool:
        """Feed the meta read's mutation mark to the cache; True if it
        advanced (cached views fetched under an older mark were dropped).
        """
        if self.cache is None or meta.mut_seq < 0:
            return False
        return self.cache.note_server_hwm(meta.mut_seq)

    def _post_chunk_read(self, chunk_id: int):
        return self.qp.post_read(
            self.desc.tree_rkey,
            self._chunk_address(chunk_id),
            self.desc.chunk_bytes,
        )

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

    def _accept(self, chunk_id: int, expected_level: int, data, stamp,
                attempt: int) -> Optional[NodeView]:
        """Validate one fetched image: the view, or None (counted and
        annotated) when it must be re-read.

        The server serves either :class:`NodeView` snapshots (fast path)
        or raw chunk bytes (full-fidelity byte mode); the byte path runs
        the real decode + per-cache-line version comparison.
        """
        span = self._span
        if isinstance(data, (bytes, bytearray)):
            view = view_from_bytes(data, self.desc.max_entries)
            ok = view is not None
        else:
            view = data
            ok = validate_snapshot(view)
        if ok and view.level == expected_level:
            span.annotate("validate", chunk=chunk_id, ok=True)
            if self.cache is not None:
                self.cache.store(view, stamp=stamp)
            return view
        if ok:
            # Valid image at the wrong level: a recycled chunk or a stale
            # root, not a torn snapshot — keep the diagnosis streams
            # separate.
            self.stats.level_mismatch_retries += 1
        else:
            self.stats.torn_retries += 1
        span.annotate("retry", chunk=chunk_id, attempt=attempt, torn=not ok)
        return None

    def _stamp(self, chunk_id: int, expected_level: int, attempt: int):
        """Annotate a fetch attempt; the cache stamp it stores under.

        The stamp is captured before the fetch: if the high-water mark
        moves while the read is in flight, the store is skipped rather
        than mis-stamping pre-mutation content."""
        self._span.annotate("issue", chunk=chunk_id, level=expected_level,
                            attempt=attempt)
        return self.cache.server_hwm if self.cache is not None else None

    def _read_valid(
        self, chunk_id: int, expected_level: int, attempt: int = 0
    ) -> Generator:
        """Fetch one chunk, re-reading torn snapshots; None on failure."""
        while attempt < self.max_read_retries:
            stamp = self._stamp(chunk_id, expected_level, attempt)
            data = yield from self._relayed(
                lambda then: self._fetch_then(chunk_id, then))
            view = self._accept(chunk_id, expected_level, data, stamp,
                                attempt)
            if view is not None:
                return view
            attempt += 1
            if attempt < self.max_read_retries:
                # No backoff after the final attempt: the caller is about
                # to restart (or fail) anyway, and the largest backoff of
                # the schedule would be pure added latency.
                yield self.sim.timeout(self.retry_backoff * attempt)
        return None

    def _read_then(self, chunk_id: int, expected_level: int,
                   deliver: Callable[[Optional[NodeView]], None],
                   first_read: Optional[Event] = None) -> None:
        """:meth:`_read_valid` for a concurrent fetch: ``deliver(view)``
        (None on failure) runs in the step the read would have returned
        in, as the last thing that step does.  Attempt 0 is callbacks;
        only a re-read runs the generator."""
        stamp = self._stamp(chunk_id, expected_level, 0)

        def landed(event: Event) -> None:
            if not event._ok:
                return  # the failed read surfaces from the run
            view = self._accept(chunk_id, expected_level, event._value,
                                stamp, 0)
            if view is not None or self.max_read_retries <= 1:
                deliver(view)
            else:
                self.sim.start(self._reread(chunk_id, expected_level,
                                            deliver), name="offload-reread")

        self._fetch_then(chunk_id, landed, first_read)

    def _reread(self, chunk_id: int, expected_level: int,
                deliver: Callable[[Optional[NodeView]], None]) -> Generator:
        yield self.sim.timeout(self.retry_backoff * 1)
        deliver((yield from self._read_valid(chunk_id, expected_level,
                                             attempt=1)))

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
        span = self._span = self.tracer.span("offload", "search")
        ended = False
        error: Optional[str] = None
        try:
            for _restart in range(self.max_search_restarts):
                if self.multi_issue:
                    matches = yield from self._search_multi_issue(query)
                else:
                    matches = yield from self._search_single_issue(query)
                if matches is not None:
                    self.stats.results_received += len(matches)
                    span.end(restarts=_restart, results=len(matches))
                    ended = True
                    return matches
                # Stale root or persistent torn reads: retraverse.
                self.stats.search_restarts += 1
                span.annotate("restart", attempt=_restart + 1)
            error = "restarts-exhausted"
            raise OffloadError(
                f"search did not complete after {self.max_search_restarts} "
                f"restarts"
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
        n = len(queries)
        self.stats.offloaded_requests += n
        if n == 0:
            return []
        span = self._span = self.tracer.span("offload", "search_batch")
        ended = False
        error: Optional[str] = None
        try:
            for _restart in range(self.max_search_restarts):
                results = yield from self._batch_attempt(queries)
                if results is not None:
                    total = sum(len(r) for r in results)
                    self.stats.results_received += total
                    span.end(restarts=_restart, queries=n, results=total)
                    ended = True
                    return results
                self.stats.search_restarts += 1
                span.annotate("restart", attempt=_restart + 1)
            error = "restarts-exhausted"
            raise OffloadError(
                f"search_batch did not complete after "
                f"{self.max_search_restarts} restarts"
            )
        except BaseException as exc:
            if error is None:
                error = type(exc).__name__
            raise
        finally:
            self._span = NULL_SPAN
            if not ended:
                span.end(error=error if error is not None else "unknown")

    def _batch_attempt(self, queries: List[Rect]) -> Generator:
        """One batched traversal attempt; None => restart the batch.

        The meta read is sequential (as in the single-issue path), so
        the mutation high-water mark is synchronized before any cache
        hit is served — hits are exact as of batch start, no mid-flight
        stale-abort bookkeeping needed.
        """
        meta = yield from self._read_meta()
        self._apply_meta(meta)
        self._note_meta_hwm(meta)
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
                yield self.sim.timeout(self._check_cost())
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

    def _fetch_round(self, pairs: List[Tuple[int, int]]) -> Generator:
        """Fetch one frontier wave; list of views, or None on any failure.

        Cache hits are served locally, chunks already in flight join the
        leader single-flight, and the remaining misses are posted
        concurrently — through one doorbell when ≥2 and the single-
        flight table exists (cache attached), else as pipelined
        individual reads (multi-issue) or sequentially (single-issue).
        Chunk ids within a wave are distinct by construction: every tree
        node hangs off exactly one parent entry, and merged interest
        sets mean each parent was expanded once.
        """
        views: List[Optional[NodeView]] = [None] * len(pairs)
        span = self._span
        cache = self.cache
        if not self.multi_issue:
            for i, (chunk_id, level) in enumerate(pairs):
                view: Optional[NodeView] = None
                if cache is not None and level > 0:
                    view = cache.lookup(chunk_id)
                    if view is not None:
                        span.annotate("cache_hit", chunk=chunk_id,
                                      level=level)
                if view is None:
                    view = yield from self._read_valid(chunk_id, level)
                if view is None:
                    return None
                views[i] = view
            return views

        arrived = Mailbox(self.sim)
        inflight = 0

        def fetch(i: int, chunk_id: int, level: int,
                  first_read: Optional[Event] = None) -> None:
            nonlocal inflight
            inflight += 1
            self._read_then(chunk_id, level,
                            lambda view: arrived.put((i, view)), first_read)

        inflight_reads = self._inflight_reads
        to_post: List[Tuple[int, int, int]] = []
        for i, (chunk_id, level) in enumerate(pairs):
            view = None
            if cache is not None and level > 0:
                view = cache.lookup(chunk_id)
            if view is not None:
                span.annotate("cache_hit", chunk=chunk_id, level=level)
                views[i] = view
            elif inflight_reads is not None and chunk_id in inflight_reads:
                # Single-flight: the fetch joins the leader.
                fetch(i, chunk_id, level)
            else:
                to_post.append((i, chunk_id, level))
        if len(to_post) >= 2 and inflight_reads is not None:
            events = self.qp.post_read_batch([
                (self.desc.tree_rkey, self._chunk_address(chunk_id),
                 self.desc.chunk_bytes)
                for _i, chunk_id, _level in to_post
            ])
            for (i, chunk_id, level), event in zip(to_post, events):
                inflight_reads[chunk_id] = []
                self.chunks_fetched += 1
                fetch(i, chunk_id, level, first_read=event)
        else:
            for i, chunk_id, level in to_post:
                fetch(i, chunk_id, level)
        failed = False
        while inflight:
            i, view = yield arrived.get()
            inflight -= 1
            if view is None:
                failed = True
            else:
                views[i] = view
        return None if failed else views

    def nearest(self, x: float, y: float, k: int = 1) -> Generator:
        """Offloaded kNN: best-first branch-and-bound over one-sided reads.

        Inherently sequential (the next chunk to fetch depends on the
        heap top), so each expansion costs a round trip — kNN is the
        worst case for offloading and the best case for fast messaging,
        which the adaptive client will discover via its latencies.
        Traced and counted with full :meth:`search` parity.
        """
        import heapq
        import itertools as _it

        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.stats.offloaded_requests += 1
        span = self._span = self.tracer.span("offload", "nearest")
        ended = False
        error: Optional[str] = None
        try:
            for _restart in range(self.max_search_restarts):
                meta = yield from self._read_meta()
                self._apply_meta(meta)
                self._note_meta_hwm(meta)
                counter = _it.count()
                heap = [(0.0, next(counter), "chunk",
                         (self._cached_root, self._cached_height - 1))]
                matches: List[Tuple[Rect, int]] = []
                failed = False
                while heap and len(matches) < k:
                    _dist, _seq, kind, payload = heapq.heappop(heap)
                    if kind == "entry":
                        matches.append(payload)
                        continue
                    chunk_id, level = payload
                    view: Optional[NodeView] = None
                    if self.cache is not None and level > 0:
                        view = self.cache.lookup(chunk_id)
                        if view is not None:
                            span.annotate("cache_hit", chunk=chunk_id,
                                          level=level)
                    if view is None:
                        view = yield from self._read_valid(chunk_id, level)
                    if view is None:
                        failed = True
                        break
                    yield self.sim.timeout(self._check_cost())
                    dists = _batch.view_min_dist2(view, x, y)
                    for (rect, ref), dist in zip(view.entries, dists):
                        if view.is_leaf:
                            heapq.heappush(heap, (dist, next(counter),
                                                  "entry", (rect, ref)))
                        else:
                            heapq.heappush(heap, (dist, next(counter),
                                                  "chunk", (ref, level - 1)))
                if not failed:
                    self.stats.results_received += len(matches)
                    span.end(restarts=_restart, results=len(matches))
                    ended = True
                    return matches
                self.stats.search_restarts += 1
                span.annotate("restart", attempt=_restart + 1)
            error = "restarts-exhausted"
            raise OffloadError(
                f"nearest() did not complete after "
                f"{self.max_search_restarts} restarts"
            )
        except BaseException as exc:
            if error is None:
                error = type(exc).__name__
            raise
        finally:
            self._span = NULL_SPAN
            if not ended:
                span.end(error=error if error is not None else "unknown")

    def _check_cost(self) -> float:
        return self.costs.client_node_check

    def _search_single_issue(self, query: Rect) -> Generator:
        """Baseline traversal: one outstanding RDMA Read at a time."""
        meta = yield from self._read_meta()
        self._apply_meta(meta)
        self._note_meta_hwm(meta)
        matches: List[Tuple[Rect, int]] = []
        stack = [(self._cached_root, self._cached_height - 1)]
        while stack:
            chunk_id, level = stack.pop()
            view: Optional[NodeView] = None
            if self.cache is not None and level > 0:
                # The sequential meta read above already synchronized the
                # high-water mark, so a hit is exact as of search start.
                view = self.cache.lookup(chunk_id)
            if view is None:
                view = yield from self._read_valid(chunk_id, level)
            if view is None:
                return None
            yield self.sim.timeout(self._check_cost())
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
        attempt is abandoned exactly like a stale root.  Distinct missing
        chunks of one expansion round are posted through a single
        doorbell (``post_read_batch``).
        """
        cache = self.cache
        cold_start = self._cached_root is None
        if cold_start:
            meta = yield from self._read_meta()
            self._apply_meta(meta)
            self._note_meta_hwm(meta)

        matches: List[Tuple[Rect, int]] = []
        arrived = Mailbox(self.sim)
        inflight = 0
        failed = False
        cache_hits_used = 0

        def node_landed(view: Optional[NodeView]) -> None:
            arrived.put(("node", view))

        def meta_landed(event: Event) -> None:
            if event._ok:  # else the failed read surfaces from the run
                arrived.put(("meta", event._value))

        def issue(chunk_id: int, level: int,
                  first_read: Optional[Event] = None) -> None:
            nonlocal inflight
            inflight += 1
            self._read_then(chunk_id, level, node_landed, first_read)

        def issue_all(pairs: List[Tuple[int, int]]) -> None:
            """Expand one round: cache hits served locally, in-flight
            chunks coalesced, the remaining misses doorbell-batched."""
            nonlocal inflight, cache_hits_used
            inflight_reads = self._inflight_reads
            if cache is None or inflight_reads is None:
                for chunk_id, level in pairs:
                    issue(chunk_id, level)
                return
            to_post: List[Tuple[int, int]] = []
            for chunk_id, level in pairs:
                view = cache.lookup(chunk_id) if level > 0 else None
                if view is not None:
                    cache_hits_used += 1
                    inflight += 1
                    arrived.put(("node", view))
                elif chunk_id in inflight_reads:
                    # Single-flight: _fetch_chunk joins the leader.
                    issue(chunk_id, level)
                else:
                    to_post.append((chunk_id, level))
            if not to_post:
                return
            if len(to_post) == 1:
                issue(*to_post[0])
                return
            events = self.qp.post_read_batch([
                (self.desc.tree_rkey, self._chunk_address(chunk_id),
                 self.desc.chunk_bytes)
                for chunk_id, _level in to_post
            ])
            for (chunk_id, level), event in zip(to_post, events):
                inflight_reads[chunk_id] = []
                self.chunks_fetched += 1
                issue(chunk_id, level, first_read=event)

        if not cold_start:
            inflight += 1
            self._meta_then(meta_landed)
        issue_all([(self._cached_root, self._cached_height - 1)])
        while inflight:
            kind, payload = yield arrived.get()
            inflight -= 1
            if kind == "meta":
                stale_root = self._apply_meta(payload)
                hwm_advanced = self._note_meta_hwm(payload)
                if stale_root:
                    failed = True  # traversal began at a stale root
                elif hwm_advanced and cache_hits_used:
                    # Hits already served this attempt were stamped under
                    # an older mark than the tree this search observes.
                    failed = True
                continue
            view = payload
            if view is None:
                failed = True
                continue  # drain remaining in-flight reads
            if failed:
                continue
            yield self.sim.timeout(self._check_cost())
            if view.is_leaf:
                matches.extend(view.intersecting_entries(query))
            else:
                issue_all([(ref, view.level - 1)
                           for ref in view.intersecting_refs(query)])
        return None if failed else matches
