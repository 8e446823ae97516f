"""The scatter-gather spatial router: one client's view of K shards.

The router is the client-active half of the sharded design (RFP's
paradigm extended to a fleet): it consults the shard map, fans a read out
*only* to the owners of the tiles whose cover intersects the query, sends
a write to the shards that hold its tile, runs the per-shard
sub-queries concurrently (each through that shard's own adaptive Catfish
session, so every shard's heartbeat independently drives its own
Algorithm 1 back-off state), and merges the replies.  Reads travel in
groups (a lone read is a group of one) scattered in shared rounds: each
shard gets one sub-batch per round, so a shard session needs
``execute_search_batch`` only when groups of two or more are routed.

Partial failure is a result, not an exception: a shard that exhausts its
retry deadline, leaks an :class:`~repro.client.offload_client.OffloadError`,
or sits behind an open per-shard circuit breaker contributes a non-``ok``
status to the returned :class:`PartialResult` instead of failing the
whole query.  The merge is exactly-once: every (shard, reply) pair is
consumed at most once and duplicate data ids across replies are dropped
and counted, never double-reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..client.base import (
    OP_COUNT,
    OP_DELETE,
    OP_INSERT,
    OP_NEAREST,
    OP_SEARCH,
    OP_UPDATE,
    ClientStats,
    Request,
)
from ..client.offload_client import OffloadError
from ..client.resilience import (
    BreakerParams,
    CircuitBreaker,
    RequestTimeoutError,
)
from ..server.base import REFUSED
from ..sim.kernel import Simulator, all_of
from .partition import ShardMap

# Per-shard sub-query statuses.
OK = "ok"
TIMEOUT = "timeout"
OFFLOAD_ERROR = "offload-error"
SKIPPED = "skipped"          # per-shard breaker open: not even attempted
# And REFUSED: a write the shard still refused in the last send round.

#: Bound on scatter rounds per read and send rounds per write (a runaway
#: revision storm degrades to a best-effort answer instead of
#: livelocking).
MAX_RESCATTER_ROUNDS = 4


@dataclass
class PartialResult:
    """Outcome of one routed request, with per-shard attribution.

    ``results`` is the merged payload (matches for search/nearest, a
    total for count, an ok flag for writes).  ``statuses`` maps every
    *participating* shard to its outcome; shards the map pruned away do
    not appear.  ``complete`` is True iff every participating shard
    answered — a degraded-but-correct answer has ``complete=False`` plus
    the exact shards whose contribution is missing.
    """

    op: str
    results: object
    statuses: Dict[int, str] = field(default_factory=dict)
    #: Duplicate data ids dropped by the exactly-once merge.
    duplicates_dropped: int = 0

    @property
    def complete(self) -> bool:
        return all(status == OK for status in self.statuses.values())

    @property
    def failed_shards(self) -> List[int]:
        return sorted(shard_id for shard_id, status in self.statuses.items()
                      if status != OK)

    def __repr__(self) -> str:
        state = "complete" if self.complete else (
            f"degraded(failed={self.failed_shards})"
        )
        return f"<PartialResult {self.op} {state}>"


def merge_search_replies(
    replies: List[Tuple[int, List[Tuple[object, int]]]],
) -> Tuple[List[Tuple[object, int]], int]:
    """Exactly-once merge of per-shard search replies.

    ``replies`` is ``[(shard_id, matches), ...]``.  Partitioning assigns
    each item to exactly one shard, so data ids should never repeat
    across replies — but a duplicated reply (a shard enqueued twice, a
    retransmitted gather) must not double-report items.  Duplicates are
    dropped on data id, first occurrence wins, and the drop count is
    surfaced so the invariant is checkable.
    """
    merged: List[Tuple[object, int]] = []
    seen: set = set()
    duplicates = 0
    for _shard_id, matches in replies:
        for rect, data_id in matches:
            if data_id in seen:
                duplicates += 1
                continue
            seen.add(data_id)
            merged.append((rect, data_id))
    return merged, duplicates


@dataclass
class RouterStats:
    """Per-client router accounting (aggregated into cluster metrics)."""

    queries_routed: int = 0
    subqueries_issued: int = 0
    shards_pruned: int = 0
    partial_results: int = 0
    shard_timeouts: int = 0
    shard_offload_errors: int = 0
    shard_skips: int = 0
    duplicates_merged: int = 0
    #: Reads that detected an epoch bump between scatter and gather and
    #: went back to the map for newly-covering shards.
    epoch_rescatters: int = 0
    #: Extra sub-queries those re-scatters issued.
    rescattered_subqueries: int = 0

    #: The PR 4 counter set.  The shard-loss chaos fingerprint digests
    #: exactly these, so rebalance-era counters live in
    #: ``REBALANCE_FIELDS`` — extend that tuple, never this one.
    FIELDS = (
        "queries_routed", "subqueries_issued", "shards_pruned",
        "partial_results", "shard_timeouts", "shard_offload_errors",
        "shard_skips", "duplicates_merged",
    )
    REBALANCE_FIELDS = ("epoch_rescatters", "rescattered_subqueries")


class _ReadState:
    """One routed read: the request, what it sends each shard (COUNT
    runs as a search on a live map), the per-shard statuses and
    replies, the shards asked, the map epoch of its latest round, and
    how many of that round's sub-queries are still in flight."""

    __slots__ = ("request", "sub", "epoch", "statuses", "replies",
                 "queried", "pending")

    def __init__(self, request: Request, sub: Request):
        self.request = request
        self.sub = sub
        self.epoch: Optional[int] = None
        self.statuses: Dict[int, str] = {}
        self.replies: List[Tuple[int, object]] = []
        self.queried: set = set()
        self.pending = 0


class _Batch:
    """One :meth:`ScatterGatherRouter.execute_search_batch` call: its
    reads, the results settled so far, how many are still open, whether
    the round in flight is the last, and the per-request callback."""

    __slots__ = ("reads", "results", "open", "last", "on_done")

    def __init__(self, on_done: Optional[Callable]):
        self.reads: List[_ReadState] = []
        self.results: List[Optional[PartialResult]] = []
        self.open = 0
        self.last = False
        self.on_done = on_done


class ScatterGatherRouter:
    """Routes one client's requests across the shard sessions.

    ``sessions[k]`` must expose ``execute(request)`` (any of the client
    session types works; the sharded builder wires a full PolicySession
    per shard so each shard keeps the paper's adaptive machinery), and
    ``execute_search_batch(requests)`` if groups of two or more searches
    are routed.  The router presents the same ``execute`` generator
    protocol, so the standard cluster driver runs unchanged on top of it.
    """

    def __init__(
        self,
        sim: Simulator,
        shard_map: ShardMap,
        sessions: List,
        stats: ClientStats,
        router_stats: Optional[RouterStats] = None,
        breaker_params: Optional[BreakerParams] = None,
        record: bool = False,
        epoch_aware: bool = False,
    ):
        if len(sessions) != shard_map.n_shards:
            raise ValueError(
                f"{len(sessions)} sessions for {shard_map.n_shards} shards"
            )
        self.sim = sim
        self.shard_map = shard_map
        self.sessions = sessions
        self.stats = stats
        self.router_stats = router_stats or RouterStats()
        #: Per-shard breakers at the *router* level: a shard that keeps
        #: timing out is skipped (status ``skipped``) until its cooldown
        #: elapses, so one dead shard cannot tax every query with a full
        #: retry deadline.  None disables skipping — every query waits
        #: out the deadline of every failed shard.
        self.breakers: Optional[List[CircuitBreaker]] = (
            [CircuitBreaker(sim, breaker_params)
             for _ in range(shard_map.n_shards)]
            if breaker_params is not None else None
        )
        #: When set, every routed request's outcome is appended to
        #: ``self.log`` as ``(index, request, PartialResult, finish_time)``
        #: — the oracle-verification hook of ``repro shard`` and the
        #: shard-loss chaos scenario.
        self.record = record
        self.log: List[Tuple[int, Request, PartialResult, float]] = []
        self._index = 0
        #: Set on an elastic plane, where an item transiently lives in
        #: two trees: COUNT then runs as an id-deduplicated search.  Off
        #: on the static plane, whose pinned counts stay sums.
        self.epoch_aware = epoch_aware

    # -- scatter target selection ------------------------------------------

    def _read_targets(self, request: Request) -> List[int]:
        if request.op == OP_NEAREST:
            # kNN has no a-priori radius; every populated shard may hold
            # one of the k nearest.  (A two-phase radius refinement is a
            # possible optimization; correctness first.)
            return self.shard_map.nonempty_shards()
        return self.shard_map.read_targets(request.rect)

    # -- execution ---------------------------------------------------------

    def execute(self, request: Request) -> Generator:
        """Route one request; returns a :class:`PartialResult`.  A read
        is routed as a group of one."""
        if request.op in (OP_INSERT, OP_DELETE, OP_UPDATE):
            self.router_stats.queries_routed += 1
            result = yield from self._execute_write(request)
            self._account(request, result)
            return result
        results = yield from self.execute_search_batch((request,))
        return results[0]

    def execute_search_batch(
        self, requests: List[Request],
        on_done: Optional[Callable[[int, PartialResult], None]] = None,
    ) -> Generator:
        """Route a group of reads (searches, if there are two or more);
        returns one :class:`PartialResult` per request, in order.

        The group scatters in rounds.  In each round every request still
        open asks the shards that cover it now and that it has not asked
        yet.  Each shard gets that round's requests for it as one
        sub-batch, through its session's ``execute_search_batch`` (a
        sub-batch of one is a plain ``execute``), all shards
        concurrently.  A request finishes at the instant the last of its
        round's sub-queries lands: it is merged and accounted there, and
        ``on_done(i, result)`` fires for ``requests[i]``.  A request
        whose map epoch moved by then (a migration's cut-over hands a
        tile and its cover to a new owner mid-flight) stays open for the
        next round, which starts once the whole round has returned, so
        a shard session never carries two sub-batches of this call at
        once (a fast-messaging session has one request outstanding).  A
        request with no shard left to ask finishes at once, and after
        :data:`MAX_RESCATTER_ROUNDS` rounds one finishes with what it
        has.  The dedup merge keeps the union of all rounds
        exactly-once; a static map never bumps its epoch, so there a
        read is the one round.  A skipped or failed shard makes a
        request partial.  Counters keep their per-request meaning: one
        ``queries_routed`` per request, one ``subqueries_issued`` per
        (request, shard) pair.  The call returns once every request has
        finished.
        """
        stats = self.router_stats
        shard_map = self.shard_map
        batch = _Batch(on_done)
        reads, results = batch.reads, batch.results
        for request in requests:
            stats.queries_routed += 1
            # On a live map COUNT runs its sub-queries as searches:
            # during a migration's copy window an item transiently lives
            # in two trees, so only an id-level dedup count is exact.
            reads.append(_ReadState(request, (
                Request(OP_SEARCH, request.rect)
                if self.epoch_aware and request.op == OP_COUNT
                else request)))
            results.append(None)
        batch.open = len(reads)
        rounds = 0
        while batch.open:
            rounds += 1
            batch.last = rounds == MAX_RESCATTER_ROUNDS
            epoch = shard_map.epoch
            by_shard: Dict[int, List[int]] = {}
            for i, read in enumerate(reads):
                if results[i] is not None:
                    continue
                read.epoch = epoch
                queried = read.queried
                asked = 0
                for shard_id in self._read_targets(read.request):
                    if shard_id in queried:
                        continue
                    queried.add(shard_id)
                    asked += 1
                    if not self._allow(shard_id):
                        read.statuses[shard_id] = SKIPPED
                        stats.shard_skips += 1
                        continue
                    by_shard.setdefault(shard_id, []).append(i)
                    read.pending += 1
                if asked and rounds > 1:
                    stats.epoch_rescatters += 1
                    stats.rescattered_subqueries += asked
            for i, read in enumerate(reads):
                if not read.pending and results[i] is None:
                    # Nothing to wait for: every shard that covers it
                    # was pruned, skipped or asked already.
                    self._settle(batch, i)
            procs = []
            for shard_id, jobs in by_shard.items():
                procs.append(self.sim.start(
                    self._sub_batch(shard_id, jobs, batch),
                    name=f"scatter-s{shard_id}"))
            if procs:
                yield all_of(self.sim, procs)
        return results

    def _sub_batch(self, shard_id: int, jobs: List[int],
                   batch: _Batch) -> Generator:
        """One shard's sub-batch of a round, ``batch.reads[i]`` for ``i``
        in ``jobs``: each one's status and reply go to its read and feed
        the shard's breaker, and a timeout or offload error fails the
        whole sub-batch.  A read whose round this sub-batch ends settles
        here, unless its epoch moved and a round is left."""
        reads = batch.reads
        if len(jobs) == 1:
            status, reply = yield from self._sub_query(
                shard_id, reads[jobs[0]].sub)
            replies = (reply,)
        else:
            stats = self.router_stats
            stats.subqueries_issued += len(jobs)
            status = OK
            try:
                replies = yield from self.sessions[
                    shard_id].execute_search_batch(
                        [reads[i].sub for i in jobs])
            except RequestTimeoutError:
                stats.shard_timeouts += len(jobs)
                status, replies = TIMEOUT, [None] * len(jobs)
            except OffloadError:
                stats.shard_offload_errors += len(jobs)
                status, replies = OFFLOAD_ERROR, [None] * len(jobs)
        breaker = (None if self.breakers is None
                   else self.breakers[shard_id])
        for i, reply in zip(jobs, replies):
            read = reads[i]
            read.statuses[shard_id] = status
            if status == OK:
                read.replies.append((shard_id, reply))
                if breaker is not None:
                    breaker.record_success()
            elif breaker is not None:
                breaker.record_failure()
            read.pending -= 1
            if not read.pending and (
                    batch.last or self.shard_map.epoch == read.epoch):
                self._settle(batch, i)

    def _settle(self, batch: _Batch, i: int) -> None:
        """Merge ``batch.reads[i]``, account the result, hand it over."""
        read = batch.reads[i]
        request = read.request
        pruned = self.shard_map.n_shards - len(read.queried)
        if pruned > 0:
            self.router_stats.shards_pruned += pruned
        result = self._merge(request, read.statuses, read.replies)
        self._account(request, result)
        batch.results[i] = result
        batch.open -= 1
        if batch.on_done is not None:
            batch.on_done(i, result)

    def _account(self, request: Request, result: PartialResult) -> None:
        """Log (with ``record``) and count one routed request's result."""
        if self.record:
            self.log.append((self._index, request, result, self.sim.now))
        self._index += 1
        if result.duplicates_dropped:
            self.router_stats.duplicates_merged += result.duplicates_dropped
        if not result.complete:
            self.router_stats.partial_results += 1

    def _allow(self, shard_id: int) -> bool:
        """Whether the router-level breaker lets a sub-query reach
        ``shard_id`` (always, without breakers)."""
        return self.breakers is None or self.breakers[shard_id].allow()

    def _execute_write(self, request: Request) -> Generator:
        """Send a write to the shards that hold its tile, in order.

        An insert goes to the owner of its centre's tile; a delete or
        update to the owner and then the tile's second holder (see
        :meth:`ShardMap.holders`).  A shard that does not hold the tile
        any more refuses the write.  After each round the router re-reads
        the map: a refused insert goes to the current owner, and a delete
        or update to every current holder it has not reached, so a
        write that raced a migration still lands on each shard that
        holds the item.  An update whose centre would cross into another
        tile is rejected before it is sent.
        """
        shard_map = self.shard_map
        if request.op == OP_UPDATE and (
                shard_map.tile_index(request.rect)
                != shard_map.tile_index(request.new_rect)):
            raise ValueError(
                f"update of {request.data_id} moves its centre into "
                "another tile; route it as a delete and an insert")
        statuses: Dict[int, str] = {}
        applied: List[int] = []
        for _round in range(MAX_RESCATTER_ROUNDS):
            if request.op == OP_INSERT:
                # One copy: an insert is re-sent only while refused.
                targets = ([] if statuses
                           else [shard_map.owner_of(request.rect)])
            else:
                targets = [s for s in shard_map.holders(request.rect)
                           if s not in statuses]
            if not targets:
                break
            refused = []
            for shard_id in targets:
                status, reply = yield from self._sub_query(shard_id, request)
                if status == OK and reply is REFUSED:
                    refused.append(shard_id)
                    continue
                statuses[shard_id] = status
                if status == OK and reply:
                    applied.append(shard_id)
        else:
            for shard_id in refused:
                statuses.setdefault(shard_id, REFUSED)
        for shard_id in applied:
            if request.op == OP_INSERT:
                shard_map.note_insert(shard_id, request.rect)
            elif request.op == OP_DELETE:
                # Only a delete that found its item shrinks the count.
                shard_map.note_delete(shard_id)
            else:
                shard_map.note_update(request.new_rect)
        ok = any(status == OK for status in statuses.values())
        return PartialResult(
            op=request.op,
            results=(bool(applied) if ok else None),
            statuses=statuses,
        )

    def _sub_query(self, shard_id: int, request: Request) -> Generator:
        """One sub-query to ``shard_id``; returns (status, reply), a
        timeout or offload error being a status, not an exception."""
        self.router_stats.subqueries_issued += 1
        try:
            reply = yield from self.sessions[shard_id].execute(request)
        except RequestTimeoutError:
            self.router_stats.shard_timeouts += 1
            return TIMEOUT, None
        except OffloadError:
            self.router_stats.shard_offload_errors += 1
            return OFFLOAD_ERROR, None
        return OK, reply

    # -- merge --------------------------------------------------------------

    def _merge(self, request: Request, statuses: Dict[int, str],
               replies: List[Tuple[int, object]]) -> PartialResult:
        if request.op == OP_COUNT:
            if self.epoch_aware:
                # The sub-queries ran as searches: count distinct ids.
                merged, duplicates = merge_search_replies(replies)
                return PartialResult(op=request.op, results=len(merged),
                                     statuses=statuses,
                                     duplicates_dropped=duplicates)
            # Shard contents are disjoint: the global count is the sum.
            total = sum(reply for _shard, reply in replies)
            return PartialResult(op=request.op, results=total,
                                 statuses=statuses)
        if request.op == OP_NEAREST:
            merged, duplicates = merge_search_replies(replies)
            qx, qy = request.rect.center()
            merged.sort(
                key=lambda m: (m[0].min_dist2_point(qx, qy), m[1])
            )
            return PartialResult(
                op=request.op,
                results=merged[:request.k],
                statuses=statuses,
                duplicates_dropped=duplicates,
            )
        merged, duplicates = merge_search_replies(replies)
        return PartialResult(
            op=request.op, results=merged, statuses=statuses,
            duplicates_dropped=duplicates,
        )
