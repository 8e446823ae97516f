"""Batching under load: the mux harvest, the router's shared scatter,
the batched fast-messaging request and its server plan.

A shared session that finds searches queued behind its job carries
them as one batch: one sub-batch per shard, one ring message per
sub-batch, one shared ``(Q x E)`` traversal per message.  Every answer
must equal what the same requests get one at a time, and each request
of a routed batch finishes when its own shards have answered.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.client import ClientStats, FmSession
from repro.client.base import OP_INSERT, OP_SEARCH, READ_OPS, Request
from repro.client.offload_client import OffloadError
from repro.client.resilience import (
    BreakerParams,
    CircuitBreaker,
    RequestTimeoutError,
)
from repro.cluster.config import ExperimentConfig
from repro.hw import Host
from repro.msg.codec import (
    MAX_SEGMENT_PAYLOAD,
    SearchBatchRequest,
    message_size,
    query_count,
    segment_batch_results,
    split_batch_results,
)
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.rtree import batch as batch_mod
from repro.rtree.bulk import bulk_load
from repro.runtime.policy import Algorithm1Policy
from repro.runtime.session import PolicySession
from repro.server import EVENT, FastMessagingServer, RTreeServer
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.partition import ShardInfo, ShardMap
from repro.shard.rebalance import RebalanceConfig
from repro.shard.router import (
    MAX_RESCATTER_ROUNDS,
    OK as SHARD_OK,
    SKIPPED,
    TIMEOUT,
    RouterStats,
    ScatterGatherRouter,
)
from repro.shard.verify import verify_routed_results
from repro.sim import Simulator
from repro.sim.monitor import LatencyRecorder
from repro.traffic import TrafficConfig
from repro.traffic.aggregate import AggregateClient
from repro.traffic.harness import TrafficRunner
from repro.traffic.mux import MAX_BATCH, OK, ConnectionMux, TrafficJob
from repro.workloads import uniform_dataset

from .test_shard_router import two_shard_map

INF = float("inf")
KERNELS = [False] + ([True] if batch_mod.HAVE_NUMPY else [])


def _drive(sim, gen):
    box = {}

    def runner():
        box["value"] = yield from gen

    sim.process(runner())
    sim.run()
    return box["value"]


# -- the codec ----------------------------------------------------------------

def test_batch_request_counts_its_queries():
    rects = tuple(Rect(0.1 * i, 0.1, 0.1 * i + 0.05, 0.2) for i in range(3))
    message = SearchBatchRequest(7, rects)
    assert query_count(message) == 3
    assert message_size(message) == 8 + 8 + 4 + 3 * 32


def test_batch_response_splits_back_per_query():
    per_query = [[(Rect(0, 0, 0, 0), i) for i in range(n)]
                 for n in (0, 3, 500, 0, 1)]
    segments = segment_batch_results(9, per_query)
    assert len(segments) > 1          # 504 results overflow one segment
    assert all(message_size(s) <= MAX_SEGMENT_PAYLOAD + 8 for s in segments)
    assert [s.last for s in segments] == [False] * (len(segments) - 1) + [True]
    assert segments[-1].splits == (0, 3, 500, 0, 1)
    results = [m for s in segments for m in s.results]
    assert split_batch_results(results, segments[-1].splits) == per_query
    with pytest.raises(ValueError):
        split_batch_results(results, (1,))


# -- the server plan -----------------------------------------------------------

_SERVER = {}


def _server() -> RTreeServer:
    """One read-only server shared by the property test's examples."""
    if not _SERVER:
        sim = Simulator()
        host = Host(sim, "server", IB_100G, cores=2)
        _SERVER["s"] = RTreeServer(sim, host, uniform_dataset(2000, seed=11),
                                   max_entries=16)
    return _SERVER["s"]


_rects = st.builds(
    lambda x, y, w, h: Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0),
    st.floats(0.0, 0.3), st.floats(0.0, 0.3))


@pytest.mark.parametrize("use_numpy", KERNELS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(rects=st.lists(_rects, min_size=1, max_size=MAX_BATCH))
def test_plan_search_batch_equals_per_query_plans(use_numpy, rects):
    server = _server()
    costs = server.costs
    saved = batch_mod._np_batch
    batch_mod._np_batch = use_numpy
    try:
        batch = server.plan_search_batch(rects)
    finally:
        batch_mod._np_batch = saved
    singles = [server.plan_search(rect) for rect in rects]
    # Same matches in the same order, query by query.
    assert batch.result == [plan.result for plan in singles]
    union = set()
    for plan in singles:
        union.update(plan.chunks)
    assert set(batch.chunks) == union
    # The batch cost rule: a parse per query, a visit per distinct node,
    # the copy per match.
    assert batch.cost == pytest.approx(
        len(rects) * costs.request_parse + len(union) * costs.node_visit
        + sum(len(plan.result) for plan in singles) * costs.per_result,
        rel=1e-12)
    if len(rects) == 1:
        assert batch.cost == singles[0].cost      # a lone query, exactly
    assert batch.counter == "searches_served"
    assert batch.queries == tuple(rects)


# -- the batched fast-messaging request ----------------------------------------

def _fm(max_queue_depth=None, n_items=1500):
    sim = Simulator()
    net = Network(sim, IB_100G)
    host = Host(sim, "server", IB_100G, cores=2)
    net.attach_server(host)
    server = RTreeServer(sim, host, uniform_dataset(n_items, seed=5),
                         max_entries=16)
    fm = FastMessagingServer(sim, server, net, mode=EVENT,
                             max_queue_depth=max_queue_depth)
    conn = fm.open_connection(Host(sim, "client", IB_100G, cores=2))
    stats = ClientStats()
    return sim, server, fm, conn, FmSession(sim, conn, 0, stats), stats


def test_fm_search_batch_is_one_request_with_per_query_answers():
    sim, server, fm, conn, session, stats = _fm()
    rects = [Rect(0.1, 0.1, 0.3, 0.3), Rect(0.8, 0.8, 0.81, 0.81),
             Rect(0.0, 0.0, 1.0, 1.0), Rect(0.25, 0.25, 0.5, 0.5)]
    answers = _drive(sim, session.search_batch(rects))
    assert answers == [server.tree.search(rect).matches for rect in rects]
    assert fm.requests_handled == 1
    assert conn.request_ring.messages_received == 1
    assert server.searches_served == len(rects)
    assert stats.fast_messaging_requests == len(rects)
    assert stats.results_received == sum(len(a) for a in answers)


def test_server_guard_counts_queued_queries_and_sheds_a_batch_whole():
    # Two batches of three land while the worker is down; on restart the
    # first one finds three queries queued behind it, which reaches
    # max_queue_depth=3, so it is shed and counted as three requests.
    sim, server, fm, conn, _session, _stats = _fm(max_queue_depth=3)
    rects = tuple(Rect(0.1 * i, 0.1, 0.1 * i + 0.05, 0.2) for i in range(3))

    def client():
        fm.crash_worker(conn)
        for req_id in (1, 2):
            wire = SearchBatchRequest(req_id, rects)
            yield from conn.request_ring.reserve(wire)
            yield conn.client_post_request(wire)
        fm.restart_worker(conn)

    sim.process(client())
    sim.run()
    assert fm.requests_shed == 3
    assert fm.requests_handled == 1
    assert server.searches_served == 3


# -- the policy session ---------------------------------------------------------

class _FailingEngine:
    def __init__(self, sim):
        self.sim = sim

    def search_batch(self, rects):
        yield self.sim.timeout(1e-6)
        raise OffloadError("torn-read storm")


class _BatchFm:
    read_ops = READ_OPS

    def __init__(self, sim):
        self.sim = sim
        self.batches = []

    def search_batch(self, rects):
        self.batches.append(len(rects))
        yield self.sim.timeout(1e-6)
        return [[] for _ in rects]


class _Mailbox:
    def consume_fresh(self, last_seq):
        return None


def test_batch_failover_is_counted_once_per_request():
    sim = Simulator()
    policy = Algorithm1Policy(sim, _Mailbox())
    policy.r_off = 10                      # inside an offload window
    fm = _BatchFm(sim)
    session = PolicySession(sim, fm, _FailingEngine(sim), ClientStats(),
                            policy, breaker=CircuitBreaker(sim,
                                                           BreakerParams()))
    requests = [Request(OP_SEARCH, Rect(0.1, 0.1, 0.2, 0.2))] * 3
    answers = _drive(sim, session.execute_search_batch(requests))
    assert answers == [[], [], []]
    assert policy.decisions_offload == 3
    assert policy.offload_failovers == 3
    assert fm.batches == [3]               # one batched failover message


# -- the router's shared scatter -------------------------------------------------

LEFT = Rect(0.1, 0.1, 0.2, 0.2)        # shard 0 only
RIGHT = Rect(0.7, 0.7, 0.8, 0.8)       # shard 1 only
BOTH = Rect(0.3, 0.3, 0.7, 0.7)        # both


class _Shard:
    """A shard session answering every search with its own item id
    after ``delay``, one call per request or per sub-batch;
    ``on_batch`` runs inside a sub-batch, ``fail`` fails every call."""

    def __init__(self, sim, shard_id, fail=None, on_batch=None,
                 delay=1e-6):
        self.sim = sim
        self.shard_id = shard_id
        self.fail = fail
        self.on_batch = on_batch
        self.delay = delay
        self.calls = []

    def execute(self, request):
        self.calls.append(1)
        yield self.sim.timeout(self.delay)
        if self.fail is not None:
            raise self.fail
        return [(request.rect, self.shard_id)]

    def execute_search_batch(self, requests):
        self.calls.append(len(requests))
        yield self.sim.timeout(self.delay)
        if self.on_batch is not None:
            self.on_batch()
        if self.fail is not None:
            raise self.fail
        return [[(request.rect, self.shard_id)] for request in requests]


def _router(sim, sessions, **kwargs):
    return ScatterGatherRouter(sim, two_shard_map(), sessions,
                               stats=ClientStats(),
                               router_stats=RouterStats(), **kwargs)


def _searches(*rects):
    return [Request(OP_SEARCH, rect) for rect in rects]


def _routed(requests, batched, **shard_kwargs):
    sim = Simulator()
    shards = [_Shard(sim, k, **shard_kwargs.get(k, {})) for k in (0, 1)]
    router = _router(sim, shards, record=True)
    if batched:
        results = _drive(sim, router.execute_search_batch(requests))
    else:
        results = [_drive(sim, router.execute(r)) for r in requests]
    return router, shards, results


def test_router_batch_sends_one_sub_batch_per_shard():
    requests = _searches(LEFT, RIGHT, BOTH, LEFT)
    router, shards, results = _routed(requests, batched=True)
    assert [s.calls for s in shards] == [[3], [2]]
    stats = router.router_stats
    assert stats.queries_routed == 4
    assert stats.subqueries_issued == 5
    assert stats.shards_pruned == 3
    _, _, alone = _routed(requests, batched=False)
    assert [(r.statuses, sorted(r.results, key=lambda m: m[1]))
            for r in results] == [
        (r.statuses, sorted(r.results, key=lambda m: m[1])) for r in alone]
    assert [entry[0] for entry in router.log] == [0, 1, 2, 3]


def test_router_batch_failed_shard_makes_its_requests_partial():
    breaker = BreakerParams(failure_threshold=100)
    sim = Simulator()
    shards = [_Shard(sim, 0), _Shard(sim, 1, fail=RequestTimeoutError())]
    router = _router(sim, shards, breaker_params=breaker)
    results = _drive(sim, router.execute_search_batch(
        _searches(LEFT, RIGHT, BOTH)))
    assert [r.statuses for r in results] == [
        {0: SHARD_OK}, {1: TIMEOUT}, {0: SHARD_OK, 1: TIMEOUT}]
    assert [r.complete for r in results] == [True, False, False]
    assert results[2].results == [(BOTH, 0)]
    assert router.router_stats.shard_timeouts == 2
    assert router.router_stats.partial_results == 2
    assert router.breakers[1]._failures == 2


def test_router_batch_skips_a_shard_behind_an_open_breaker():
    sim = Simulator()
    shards = [_Shard(sim, 0), _Shard(sim, 1)]
    router = _router(sim, shards, breaker_params=BreakerParams())
    router.breakers[1]._open()
    results = _drive(sim, router.execute_search_batch(
        _searches(BOTH, RIGHT)))
    assert [r.statuses for r in results] == [
        {0: SHARD_OK, 1: SKIPPED}, {1: SKIPPED}]
    assert shards[1].calls == []
    assert router.router_stats.shard_skips == 2


def test_router_batch_rescatters_per_request_after_an_epoch_move():
    # Shard 0's tile moves to shard 1 while the sub-batch is in flight:
    # only LEFT has a new shard to ask, so only it re-scatters, in the
    # second round; RIGHT and BOTH settle at that round's start.
    sim = Simulator()
    shards = [_Shard(sim, 0), _Shard(sim, 1)]
    router = _router(sim, shards)
    shards[0].on_batch = lambda: router.shard_map.reassign_tile(0, 1)
    results = _drive(sim, router.execute_search_batch(
        _searches(LEFT, RIGHT, BOTH)))
    assert [sorted(r.statuses) for r in results] == [[0, 1], [1], [0, 1]]
    stats = router.router_stats
    assert stats.epoch_rescatters == 1
    assert stats.rescattered_subqueries == 1
    assert shards[1].calls == [2, 1]        # the sub-batch, then LEFT alone
    assert sorted(d for _r, d in results[0].results) == [0, 1]


def _by_id(result):
    return (result.statuses, sorted(result.results, key=lambda m: m[1]),
            result.duplicates_dropped)


def test_router_batch_finishes_each_request_when_its_own_shards_answer():
    # Shard 0 answers at 1 us, shard 1 at 5 us: LEFT needs only shard 0,
    # so it finishes at 1 us; RIGHT and BOTH wait for shard 1.
    sim = Simulator()
    shards = [_Shard(sim, 0, delay=1e-6), _Shard(sim, 1, delay=5e-6)]
    router = _router(sim, shards, record=True)
    requests = _searches(LEFT, RIGHT, BOTH, LEFT)
    seen = []
    box = {}

    def run():
        box["results"] = yield from router.execute_search_batch(
            requests, lambda i, result: seen.append((i, sim.now, result)))
        box["returned"] = sim.now

    sim.process(run())
    sim.run()
    assert [(i, t) for i, t, _ in seen] == [
        (0, 1e-6), (3, 1e-6), (1, 5e-6), (2, 5e-6)]
    assert box["returned"] == 5e-6         # the batch waits for the last
    results = box["results"]
    assert [result for _i, _t, result in sorted(seen)] == results
    assert [t for *_rest, t in router.log] == [1e-6, 1e-6, 5e-6, 5e-6]
    assert [shard.calls for shard in shards] == [[3], [2]]
    # The same answers as when every shard lands at one instant, and as
    # when each request is routed alone.
    _, _, at_once = _routed(requests, batched=True)
    _, _, alone = _routed(requests, batched=False)
    assert [_by_id(r) for r in results] == [_by_id(r) for r in at_once]
    assert [_by_id(r) for r in results] == [_by_id(r) for r in alone]
    assert router.router_stats.queries_routed == 4
    assert router.router_stats.subqueries_issued == 5


def test_router_batch_finishes_a_request_with_no_shard_to_ask_at_once():
    sim = Simulator()
    shards = [_Shard(sim, 0), _Shard(sim, 1)]
    router = _router(sim, shards, breaker_params=BreakerParams())
    router.breakers[1]._open()
    seen = []
    _drive(sim, router.execute_search_batch(
        _searches(RIGHT, LEFT), lambda i, result: seen.append((i, sim.now))))
    assert seen == [(0, 0.0), (1, 1e-6)]


def test_mux_completes_each_batched_job_at_its_own_instant():
    sim = Simulator()
    router = _router(sim, [_Shard(sim, 0, delay=1e-6),
                           _Shard(sim, 1, delay=5e-6)])
    mux = ConnectionMux(sim, [router], watermark=100, record=True)
    aggregate = AggregateClient(
        sim, 0, n_users=4, window=8, generator=None, users_rng=None,
        workload_rng=None, scale_gen=None, mux=mux,
        sojourn=LatencyRecorder())
    jobs = [TrafficJob(0, i, i, "default", request, 0.0,
                       on_done=aggregate._done)
            for i, request in enumerate(_searches(RIGHT, LEFT, BOTH))]
    for job in jobs:
        assert mux.offer(job)
        aggregate.in_flight += 1
    mux.close()
    probe = []

    def watch():
        yield sim.timeout(2e-6)
        probe.append((aggregate.in_flight, mux.completed,
                      [job.status for job in jobs]))

    sim.process(watch())
    sim.run()
    assert mux.batches == 1 and mux.batched_jobs == 3
    assert [job.t_start for job in jobs] == [0.0, 0.0, 0.0]
    assert [job.t_done for job in jobs] == [5e-6, 1e-6, 5e-6]
    # LEFT's window slot and completion count are released at 1 us.
    assert probe == [(2, 1, ["", OK, ""])]
    assert aggregate.in_flight == 0 and mux.completed == 3
    assert sorted(aggregate.sojourn.samples) == [1e-6, 5e-6, 5e-6]
    assert [job.seq for job in mux.finished_jobs] == [1, 0, 2]
    assert [sorted(d for _r, d in job.results.results)
            for job in jobs] == [[1], [0], [0, 1]]


class _OneOutstanding:
    """A shard session over its own items that, like a fast-messaging
    session, has one request outstanding: a call issued while another
    is in flight makes the earlier call's reply stale, and the earlier
    call never returns."""

    def __init__(self, sim, items, delay):
        self.sim = sim
        self.items = items
        self.delay = delay
        self.current = None
        self.overlaps = 0

    def execute(self, request):
        replies = yield from self.execute_search_batch([request])
        return replies[0]

    def execute_search_batch(self, requests):
        token = object()
        if self.current is not None:
            self.overlaps += 1
        self.current = token
        yield self.sim.timeout(self.delay)
        if self.current is not token:
            yield self.sim.event()          # stale: never answered
        self.current = None
        return [[(rect, data_id)
                 for data_id, rect in sorted(self.items.items())
                 if rect.intersects(request.rect)]
                for request in requests]


def test_router_batch_rescatters_after_the_round_and_settles_the_rest():
    # LEFT's tile moves to shard 1 (its item copied there first) while
    # shard 1 still carries RIGHT's sub-batch.  LEFT re-scatters to
    # shard 1 only once that sub-batch is back; sent at once, it would
    # make RIGHT's reply stale and wedge the batch.  RIGHT's epoch moved
    # too, but it has no new shard to ask: it settles when the round
    # returns, at 5 us, not behind LEFT's re-scatter.
    left_item, right_item = Rect(0.12, 0.12, 0.13, 0.13), Rect(
        0.72, 0.72, 0.73, 0.73)
    dataset = {10: left_item, 11: right_item}
    sim = Simulator()
    shards = [_OneOutstanding(sim, {10: left_item}, delay=1e-6),
              _OneOutstanding(sim, {11: right_item}, delay=5e-6)]
    router = _router(sim, shards)

    def migrate():
        yield sim.timeout(0.5e-6)
        shards[1].items[10] = left_item
        router.shard_map.reassign_tile(0, 1)

    sim.process(migrate())
    requests = _searches(LEFT, RIGHT)
    seen = []
    box = {}

    def run():
        box["results"] = yield from router.execute_search_batch(
            requests, lambda i, result: seen.append((i, sim.now)))

    done = sim.process(run())
    sim.run_until_triggered(done, limit=1e-3)
    assert [shard.overlaps for shard in shards] == [0, 0]
    assert seen == [(1, 5e-6), (0, 10e-6)]
    for request, result in zip(requests, box["results"]):
        assert result.complete
        assert sorted(d for _r, d in result.results) == sorted(
            d for d, rect in dataset.items()
            if rect.intersects(request.rect))
    assert box["results"][0].duplicates_dropped == 1
    assert router.router_stats.epoch_rescatters == 1


def _strips(n_shards):
    """``n_shards`` shards, shard k owning the k-th vertical strip of the
    unit square, its cover the whole strip."""
    infos = []
    for k in range(n_shards):
        lo, hi = k / n_shards, (k + 1) / n_shards
        tile = Rect(-INF if k == 0 else lo, -INF,
                    INF if k == n_shards - 1 else hi, INF)
        infos.append(ShardInfo(k, tile, Rect(lo, 0.0, hi, 1.0), 10))
    return ShardMap(infos)


def _strip_items(n_shards, per_shard=6):
    """Small items lying wholly inside their strip, ids dense from 0."""
    items = {}
    for k in range(n_shards):
        for j in range(per_shard):
            x = (k + 0.1 + 0.8 * j / per_shard) / n_shards
            y = 0.1 + 0.8 * j / per_shard
            items[len(items)] = Rect(x, y, x + 0.02, y + 0.02)
    return items


def _strip_router(shard_map, items, delays):
    """A router over one-outstanding shards with ``delays``, each
    holding the ``items`` whose tile it owns."""
    sim = Simulator()
    shards = [_OneOutstanding(sim, {}, delay) for delay in delays]
    for data_id, rect in items.items():
        shards[shard_map.owner_of(rect)].items[data_id] = rect
    return ScatterGatherRouter(sim, shard_map, shards, stats=ClientStats(),
                               router_stats=RouterStats()), shards


def _route_group(shard_map, items, delays, requests, moves=()):
    """Route ``requests`` as one group, applying each ``(at, tile,
    step)`` move as a cut-over: the tile's items are copied to the new
    owner, the map moves, and the old owner drops its copies, so a
    sub-query in flight across the move misses them.  Returns the
    router, the shards, the results, the callbacks and the call's
    return instant."""
    router, shards = _strip_router(shard_map, items, delays)
    sim = router.sim

    def mover():
        now = 0.0
        for at, tile, step in sorted(moves):
            yield sim.timeout(at - now)
            now = at
            moved = {data_id: rect for data_id, rect in items.items()
                     if shard_map.tile_index(rect) == tile}
            old_owner = shard_map.tiles[tile].owner
            new_owner = (old_owner + step) % shard_map.n_shards
            shards[new_owner].items.update(moved)
            shard_map.reassign_tile(tile, new_owner)
            for data_id in moved:
                del shards[old_owner].items[data_id]

    seen = []
    box = {}

    def run():
        box["results"] = yield from router.execute_search_batch(
            requests, lambda i, result: seen.append((i, sim.now, result)))
        box["returned"] = sim.now

    sim.process(mover())
    done = sim.process(run())
    sim.run_until_triggered(done, limit=1e-3)      # no wedge
    return router, shards, box["results"], seen, box["returned"]


_delays = st.sampled_from([1e-6, 2e-6, 3e-6, 5e-6])
_moves = st.lists(st.tuples(st.floats(0.0, 12e-6), st.integers(0, 3),
                            st.integers(1, 3)), min_size=1, max_size=2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rects=st.lists(_rects, min_size=2, max_size=MAX_BATCH),
       delays=st.lists(_delays, min_size=4, max_size=4), moves=_moves)
def test_router_group_rounds_match_the_oracle_and_routing_alone(
        rects, delays, moves):
    items = _strip_items(4)
    requests = _searches(*rects)
    for shard_map, planned in ((_strips(4), ()), (_strips(4), moves)):
        router, shards, results, seen, returned = _route_group(
            shard_map, items, delays, requests, planned)
        assert [shard.overlaps for shard in shards] == [0] * 4
        # Exactly one callback per request, with its result, no later
        # than the call's return.
        assert sorted(i for i, _t, _r in seen) == list(range(len(rects)))
        assert all(t <= returned for _i, t, _r in seen)
        assert [r for _i, _t, r in sorted(seen, key=lambda s: s[0])] == (
            results)
        for request, result in zip(requests, results):
            assert result.complete
            assert sorted(d for _r, d in result.results) == sorted(
                d for d, rect in items.items()
                if rect.intersects(request.rect))
        if planned:
            continue
        # On a static map the group routes exactly as its requests do
        # one at a time.
        alone_router, _ = _strip_router(_strips(4), items, delays)
        alone = [_drive(alone_router.sim, alone_router.execute(request))
                 for request in requests]
        assert [_by_id(r) for r in results] == [_by_id(r) for r in alone]
        fields = ("queries_routed", "subqueries_issued", "shards_pruned")
        assert [getattr(router.router_stats, f) for f in fields] == [
            getattr(alone_router.router_stats, f) for f in fields]


class _Mover:
    """A shard session that answers after 1 us and hands tile 0 on to
    the next shard during every call, so each sub-query finds the map
    moved to a shard its request has not asked."""

    def __init__(self, sim, shard_map):
        self.sim = sim
        self.shard_map = shard_map
        self.calls = []

    def execute(self, request):
        replies = yield from self.execute_search_batch([request])
        self.calls[-1] = "single"
        return replies[0]

    def execute_search_batch(self, requests):
        self.calls.append(len(requests))
        yield self.sim.timeout(1e-6)
        shard_map = self.shard_map
        shard_map.reassign_tile(0, (shard_map.tiles[0].owner + 1)
                                % shard_map.n_shards)
        return [[] for _ in requests]


@pytest.mark.parametrize("group", [1, 3])
def test_router_stops_rescattering_after_max_rounds(group):
    # Five shards, and every call hands tile 0 on to the next one: after
    # the fourth round the tile sits on shard 4, never asked, and the
    # round bound settles each request with the four shards it has.
    sim = Simulator()
    shard_map = _strips(5)
    shards = [_Mover(sim, shard_map) for _ in range(5)]
    router = ScatterGatherRouter(sim, shard_map, shards, stats=ClientStats(),
                                 router_stats=RouterStats())
    requests = _searches(*[Rect(0.05, 0.05 * j, 0.1, 0.05 * j + 0.1)
                           for j in range(group)])
    seen = []
    box = {}

    def run():
        if group == 1:
            box["results"] = [(yield from router.execute(requests[0]))]
            seen.append((0, sim.now))
        else:
            box["results"] = yield from router.execute_search_batch(
                requests, lambda i, result: seen.append((i, sim.now)))
        box["returned"] = sim.now

    done = sim.process(run())
    sim.run_until_triggered(done, limit=1e-3)
    assert MAX_RESCATTER_ROUNDS == 4
    # Four rounds of 1 us each, one shard per round.
    assert box["returned"] == pytest.approx(4e-6)
    assert shard_map.epoch == 4 and shard_map.tiles[0].owner == 4
    call = ["single"] if group == 1 else [group]
    assert [shard.calls for shard in shards] == [call] * 4 + [[]]
    assert sorted(seen) == [(i, pytest.approx(4e-6)) for i in range(group)]
    for result in box["results"]:
        assert result.statuses == {k: SHARD_OK for k in range(4)}
    stats = router.router_stats
    assert stats.queries_routed == group
    assert stats.subqueries_issued == 4 * group
    assert stats.epoch_rescatters == 3 * group
    assert stats.rescattered_subqueries == 3 * group


# -- the mux harvest -------------------------------------------------------------

class _Recorder:
    """A session that records the groups it carries."""

    def __init__(self, sim, batching=True):
        self.sim = sim
        self.groups = []
        if batching:
            self.execute_search_batch = self._batch

    def execute(self, request):
        self.groups.append(1)
        yield self.sim.timeout(1e-6)
        return request.op

    def _batch(self, requests, on_done=None):
        self.groups.append(len(requests))
        yield self.sim.timeout(1e-6)
        results = [request.op for request in requests]
        if on_done is not None:
            for i, result in enumerate(results):
                on_done(i, result)
        return results


def _jobs(ops):
    rect = Rect(0.1, 0.1, 0.2, 0.2)
    return [TrafficJob(0, i, i, "default",
                       Request(op, rect, data_id=i) if op == OP_INSERT
                       else Request(op, rect), 0.0)
            for i, op in enumerate(ops)]


@pytest.mark.parametrize("batching", [True, False])
def test_mux_harvests_queued_searches_in_fifo_runs(batching):
    sim = Simulator()
    session = _Recorder(sim, batching)
    mux = ConnectionMux(sim, [session], watermark=100, record=True)
    ops = [OP_SEARCH] * 11 + [OP_INSERT] + [OP_SEARCH] * 2
    jobs = _jobs(ops)
    for job in jobs:
        mux.offer(job)
    mux.close()
    sim.run()
    # Every job is queued before the lone session first asks: it takes
    # each job with the searches queued behind it, up to MAX_BATCH, never
    # past a write.
    expected = ([MAX_BATCH, 3, 1, 2] if batching else [1] * len(ops))
    assert session.groups == expected
    assert mux.completed == len(ops)
    assert [j.status for j in jobs] == [OK] * len(ops)
    assert [j.results for j in jobs] == ops
    assert mux.batches == (3 if batching else 0)
    assert mux.batched_jobs == (MAX_BATCH + 3 + 2 if batching else 0)
    assert [j.seq for j in mux.finished_jobs] == list(range(len(ops)))


# -- end to end: K=4 catfish past its knee ----------------------------------------

def test_sharded_open_loop_past_the_knee_batches_and_matches_the_oracle():
    traffic = TrafficConfig(
        kind="poisson", rate=400_000.0, duration_s=1e-3, n_aggregates=2,
        users_per_aggregate=64, sessions=2, queue_watermark=64, window=64)
    config = ExperimentConfig(
        scheme="catfish", fabric="ib-100g", dataset_size=2000,
        server_cores=1, n_shards=4, seed=3, scale="0.001",
        heartbeat_interval=0.1e-3, traffic=traffic)
    runner = TrafficRunner(config, record=True)
    result = runner.run()
    mux = runner.mux
    assert mux.batches > 0 and mux.batched_jobs > mux.batches
    assert (result.completed + result.failed
            + result.shed_client_total) == result.arrivals
    trees = [stack.server.tree for stack in runner.stacks]
    ok_jobs = [job for job in mux.finished_jobs if job.status == OK]
    assert len(ok_jobs) == result.completed > 0
    for job in ok_jobs:
        answer = job.results
        assert answer.complete, answer
        expected = sorted(data_id for tree in trees
                          for data_id in tree.search(job.request.rect)
                          .data_ids)
        assert sorted(d for _r, d in answer.results) == expected
    routed = sum(router.router_stats.queries_routed
                 for router in runner.sessions)
    assert routed == len(mux.finished_jobs)


@pytest.mark.chaos
def test_batched_open_loop_under_live_rebalance_matches_the_oracle():
    # Hotspot arrivals past the knee of a K=4 deployment whose elastic
    # plane splits and migrates tiles while batches are in flight: every
    # completed job must equal the single-tree oracle, and every arrival
    # must be accounted for.
    rescatters = 0
    for seed in range(4):
        traffic = TrafficConfig(
            kind="poisson", rate=400_000.0, duration_s=2e-3,
            n_aggregates=4, users_per_aggregate=1000, sessions=4,
            queue_watermark=64, window=256, hotspot_skew=True)
        config = ExperimentConfig(
            scheme="catfish", fabric="ib-100g", dataset_size=2000,
            max_entries=16, server_cores=1, n_shards=4, seed=seed,
            scale="0.001", heartbeat_interval=0.1e-3,
            rebalance=RebalanceConfig(interval=0.1e-3, split_ratio=1.5,
                                      min_split_items=16, drain_s=0.05e-3),
            traffic=traffic)
        runner = TrafficRunner(config, record=True)
        result = runner.run()
        mux = runner.mux
        assert mux.batches > 0, seed
        assert runner.rebalance_stats.migrations_completed > 0, seed
        assert (result.completed + result.failed
                + result.shed_client_total) == result.arrivals, seed
        assert mux.offered == (mux.completed + mux.failed
                               + mux.shed_watermark + mux.shed_admission)
        oracle = bulk_load(runner.deployment.dataset, max_entries=16)
        ok_jobs = [job for job in mux.finished_jobs if job.status == OK]
        assert len(ok_jobs) == result.completed > 0, seed
        for job in ok_jobs:
            answer = job.results
            assert answer.complete, (seed, answer)
            assert sorted(d for _r, d in answer.results) == sorted(
                oracle.search(job.request.rect).data_ids), (seed, job.seq)
        rescatters += sum(router.router_stats.epoch_rescatters
                          for router in runner.sessions)
    assert rescatters > 0


# -- the closed-loop driver's batch_queries through the router ------------------

def test_closed_loop_batch_queries_reach_the_shards_as_sub_batches():
    config = ExperimentConfig(
        scheme="catfish", fabric="ib-100g", n_shards=4, n_clients=4,
        requests_per_client=40, dataset_size=2000, server_cores=2,
        scale="0.02", batch_queries=8, seed=1)
    runner = ShardedExperimentRunner(config, record_results=True)
    runner.run()
    summary = verify_routed_results(runner)
    assert summary.ok and summary.checked == 160, summary.describe()
    assert sum(s.queries_routed for s in runner.router_stats) == 160
    stacks = runner.deployment.stacks
    served = sum(stack.server.searches_served for stack in stacks)
    messages = sum(stack.fm_server.requests_handled
                   for stack in stacks)
    assert messages < served      # fast messaging carried sub-batches
