"""The scatter-gather spatial router: one client's view of K shards.

The router is the client-active half of the sharded design (RFP's
paradigm extended to a fleet): it consults the shard map, fans a read out
*only* to the owners of the tiles whose cover intersects the query, sends
a write to the shards that hold its tile, runs the per-shard
sub-queries concurrently (each through that shard's own adaptive Catfish
session, so every shard's heartbeat independently drives its own
Algorithm 1 back-off state), and merges the replies.

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
from typing import Dict, Generator, List, Optional, Tuple

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


class ScatterGatherRouter:
    """Routes one client's requests across the shard sessions.

    ``sessions[k]`` must expose ``execute(request)`` (any of the client
    session types works; the sharded builder wires a full PolicySession
    per shard so each shard keeps the paper's adaptive machinery).  The
    router presents the same ``execute`` generator protocol, so the
    standard cluster driver runs unchanged on top of it.
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
        """Route one request; returns a :class:`PartialResult`."""
        self.router_stats.queries_routed += 1
        if request.op in (OP_INSERT, OP_DELETE, OP_UPDATE):
            result = yield from self._execute_write(request)
        else:
            result = yield from self._execute_read(request)
        if self.record:
            self.log.append((self._index, request, result, self.sim.now))
        self._index += 1
        if result.duplicates_dropped:
            self.router_stats.duplicates_merged += result.duplicates_dropped
        if not result.complete:
            self.router_stats.partial_results += 1
        return result

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

    def _execute_read(self, request: Request) -> Generator:
        """Scatter-gather, across epoch cuts if the map has any.

        Capture the map epoch at scatter; after the gather barrier, if
        the epoch moved, re-read the map and query any shard that now
        covers the region and was not queried yet (a migration's
        cut-over hands a tile and its cover to a new owner
        mid-flight).  The dedup merge keeps the union of all
        rounds exactly-once.  A static map never bumps its epoch, so
        there a read is the one round.  On a live map COUNT runs its
        sub-queries as searches: during a migration's copy window an
        item transiently lives in two trees, so only an id-level dedup
        count is exact.
        """
        live_count = self.epoch_aware and request.op == OP_COUNT
        sub_request = (Request(OP_SEARCH, request.rect) if live_count
                       else request)
        statuses: Dict[int, str] = {}
        replies: List[Tuple[int, object]] = []
        queried: set = set()
        rounds = 0
        while rounds < MAX_RESCATTER_ROUNDS:
            epoch = self.shard_map.epoch
            targets = [s for s in self._read_targets(request)
                       if s not in queried]
            if not targets:
                break
            if rounds:
                self.router_stats.epoch_rescatters += 1
                self.router_stats.rescattered_subqueries += len(targets)
            procs = []
            skipped: List[int] = []
            for shard_id in targets:
                queried.add(shard_id)
                breaker = (self.breakers[shard_id]
                           if self.breakers is not None else None)
                if breaker is not None and not breaker.allow():
                    skipped.append(shard_id)
                    continue
                procs.append(self.sim.start(
                    self._gather(shard_id, sub_request, statuses, replies),
                    name=f"scatter-s{shard_id}",
                ))
            for shard_id in skipped:
                statuses[shard_id] = SKIPPED
                self.router_stats.shard_skips += 1
            if procs:
                yield all_of(self.sim, procs)
            rounds += 1
            if self.shard_map.epoch == epoch:
                break
        pruned = self.shard_map.n_shards - len(queried)
        if pruned > 0:
            self.router_stats.shards_pruned += pruned
        if not queried:
            empty = 0 if request.op == OP_COUNT else []
            return PartialResult(op=request.op, results=empty, statuses={})
        if live_count:
            merged, duplicates = merge_search_replies(replies)
            return PartialResult(
                op=request.op, results=len(merged), statuses=statuses,
                duplicates_dropped=duplicates,
            )
        return self._merge(request, statuses, replies)

    def _gather(self, shard_id: int, request: Request,
                statuses: Dict[int, str],
                replies: List[Tuple[int, object]]) -> Generator:
        """One shard's scattered sub-query: record its status and reply,
        and feed the shard's breaker."""
        status, reply = yield from self._sub_query(shard_id, request)
        statuses[shard_id] = status
        if status == OK:
            replies.append((shard_id, reply))
        if self.breakers is not None:
            breaker = self.breakers[shard_id]
            if status == OK:
                breaker.record_success()
            else:
                breaker.record_failure()

    # -- merge --------------------------------------------------------------

    def _merge(self, request: Request, statuses: Dict[int, str],
               replies: List[Tuple[int, object]]) -> PartialResult:
        if request.op == OP_COUNT:
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
