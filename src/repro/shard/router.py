"""The scatter-gather spatial router: one client's view of K shards.

The router is the client-active half of the sharded design (RFP's
paradigm extended to a fleet): it consults the shard map, fans a read out
*only* to the shards whose MBR intersects the query, runs the per-shard
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
from ..obs.registry import Counter, MetricsRegistry
from ..sim.kernel import Simulator, all_of
from .partition import ShardMap

# Per-shard sub-query statuses.
OK = "ok"
TIMEOUT = "timeout"
OFFLOAD_ERROR = "offload-error"
SKIPPED = "skipped"          # per-shard breaker open: not even attempted

#: Bound on scatter rounds per read (a runaway revision storm degrades to
#: a best-effort answer instead of livelocking).
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

    queries_routed: Counter = field(default_factory=Counter)
    subqueries_issued: Counter = field(default_factory=Counter)
    shards_pruned: Counter = field(default_factory=Counter)
    partial_results: Counter = field(default_factory=Counter)
    shard_timeouts: Counter = field(default_factory=Counter)
    shard_offload_errors: Counter = field(default_factory=Counter)
    shard_skips: Counter = field(default_factory=Counter)
    duplicates_merged: Counter = field(default_factory=Counter)
    #: Reads that detected an epoch bump between scatter and gather and
    #: went back to the map for newly-covering shards.
    epoch_rescatters: Counter = field(default_factory=Counter)
    #: Extra sub-queries those re-scatters issued.
    rescattered_subqueries: Counter = field(default_factory=Counter)

    #: The PR 4 counter set.  The shard-loss chaos fingerprint digests
    #: exactly these, so rebalance-era counters live in
    #: ``REBALANCE_FIELDS`` — extend that tuple, never this one.
    FIELDS = (
        "queries_routed", "subqueries_issued", "shards_pruned",
        "partial_results", "shard_timeouts", "shard_offload_errors",
        "shard_skips", "duplicates_merged",
    )
    REBALANCE_FIELDS = ("epoch_rescatters", "rescattered_subqueries")

    def register_into(self, registry: MetricsRegistry,
                      prefix: str = "router") -> None:
        for name in self.FIELDS + self.REBALANCE_FIELDS:
            registry.adopt(f"{prefix}.{name}", getattr(self, name))


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
        #: Routing across an epoch cut: when the shared live map's epoch
        #: bumps between a read's scatter and its gather, re-consult the
        #: map and query any shard that newly covers the region (the
        #: dedup merge keeps the union exactly-once).  Off by default —
        #: the static plane never bumps, and the fingerprint-pinned
        #: non-rebalance paths stay byte-identical.
        self.epoch_aware = epoch_aware

    # -- scatter target selection ------------------------------------------

    def _read_targets(self, request: Request) -> List[int]:
        if request.op == OP_NEAREST:
            # kNN has no a-priori radius; every populated shard may hold
            # one of the k nearest.  (A two-phase radius refinement is a
            # possible optimization; correctness first.)
            return self.shard_map.nonempty_shards()
        if self.epoch_aware:
            # Tile-granular scatter: once migrations hand a shard
            # disjoint regions, its shard-level MBR is a uselessly fat
            # box; per-tile content MBRs plus the stray covers keep the
            # fan-out tight (see ShardMap.read_targets).
            return self.shard_map.read_targets(request.rect)
        return self.shard_map.shards_for(request.rect)

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
        """Writes go to exactly one shard: the tile owning the rect center.

        Epoch-aware deletes are the exception — they broadcast to every
        shard whose MBR covers the rect, because during a migration's
        copy window the item transiently lives in two trees (and a write
        that raced an earlier cut-over may have left it overhanging its
        owner tile); deleting it everywhere is what keeps a copy from
        resurrecting it.
        """
        if self.epoch_aware and request.op == OP_DELETE:
            return (yield from self._execute_delete_broadcast(request))
        owner = self.shard_map.owner_of(request.rect)
        status, reply = yield from self._sub_query(owner, request)
        if status == OK:
            if request.op == OP_INSERT:
                self.shard_map.note_insert(owner, request.rect)
            elif request.op == OP_DELETE:
                # Only a delete that found its item shrinks the count.
                if reply:
                    self.shard_map.note_delete(owner)
            elif request.op == OP_UPDATE and request.new_rect is not None:
                self.shard_map.note_update(owner, request.new_rect)
        return PartialResult(
            op=request.op,
            results=(reply if status == OK else None),
            statuses={owner: status},
        )

    def _execute_delete_broadcast(self, request: Request) -> Generator:
        """Delete from every shard that may hold the item (see above)."""
        owner = self.shard_map.owner_of(request.rect)
        targets = self.shard_map.shards_for(request.rect)
        if owner not in targets:
            targets.append(owner)
        statuses: Dict[int, str] = {}
        found_on = []
        for shard_id in targets:
            status, reply = yield from self._sub_query(shard_id, request)
            statuses[shard_id] = status
            if status == OK and reply:
                found_on.append(shard_id)
        for shard_id in found_on:
            self.shard_map.note_delete(shard_id)
        ok = any(statuses[s] == OK for s in targets)
        return PartialResult(
            op=request.op,
            results=(bool(found_on) if ok else None),
            statuses=statuses,
        )

    def _sub_query(self, shard_id: int, request: Request) -> Generator:
        """One direct sub-query (the write path); returns (status, reply)."""
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
        cut-over hands a tile — and the moved items' MBR cover — to a
        new owner mid-flight).  The dedup merge keeps the union of all
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
        """One shard's sub-query; outcomes are data, not exceptions."""
        self.router_stats.subqueries_issued += 1
        session = self.sessions[shard_id]
        breaker = (self.breakers[shard_id]
                   if self.breakers is not None else None)
        try:
            reply = yield from session.execute(request)
        except RequestTimeoutError:
            statuses[shard_id] = TIMEOUT
            self.router_stats.shard_timeouts += 1
            if breaker is not None:
                breaker.record_failure()
            return
        except OffloadError:
            statuses[shard_id] = OFFLOAD_ERROR
            self.router_stats.shard_offload_errors += 1
            if breaker is not None:
                breaker.record_failure()
            return
        statuses[shard_id] = OK
        replies.append((shard_id, reply))
        if breaker is not None:
            breaker.record_success()

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
