"""Client-side node cache: unit behaviour, coalescing, hints, exactness.

Covers the cache's consistency model (high-water-mark stamping), the
single-flight/doorbell read paths, the heartbeat invalidation-hint
plumbing (including wire-format backward compatibility and the
``consume_fresh`` edge cases), and end-to-end exactness of cache-served
searches against the server tree — including under a write-storm fault
scenario.
"""

import pytest

from repro.btree import BTreeOffloadEngine, BTreeService
from repro.client import ClientStats, OffloadEngine, offload_client
from repro.client.node_cache import HWM_UNKNOWN, NodeCache, NodeCacheConfig
from repro.hw import Host
from repro.msg.codec import Heartbeat, message_size
from repro.net import IB_100G, Network
from repro.obs.trace import Tracer
from repro.rtree import Rect
from repro.rtree.serialize import NodeView
from repro.server import RTreeServer
from repro.server.heartbeat import HeartbeatMailbox
from repro.sim import Simulator
from repro.transport import connect
from repro.transport.rdma import _Read
from repro.workloads import uniform_dataset


def make_view(chunk_id=7, level=1, torn=False):
    return NodeView(
        level=level, chunk_id=chunk_id,
        entries=((Rect(0, 0, 1, 1), 3),), version=2, torn=torn,
    )


def make_offload(n_items=1500, max_entries=16, cache=None, multi_issue=True,
                 tracer=None, seed=7):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(n_items, seed=seed)
    server = RTreeServer(sim, server_host, items, max_entries=max_entries)
    client_host = Host(sim, "client", IB_100G, cores=2)
    client_qp, _server_qp = connect(sim, net, client_host, server_host)
    stats = ClientStats()
    engine = OffloadEngine(
        sim, client_qp, server.offload_descriptor(), server.costs, stats,
        multi_issue=multi_issue, tracer=tracer,
    )
    if cache is not None:
        engine.attach_cache(cache)
    return sim, server, engine, stats, client_qp


# -- NodeCache unit behaviour ------------------------------------------------

def test_cache_config_validation():
    with pytest.raises(ValueError):
        NodeCacheConfig(max_nodes=0)
    assert NodeCacheConfig().max_nodes == 512


def test_cache_refuses_stores_before_first_hwm():
    cache = NodeCache()
    assert cache.server_hwm == HWM_UNKNOWN
    assert not cache.store(make_view())
    assert len(cache) == 0


def test_cache_refuses_leaves_and_torn_views():
    cache = NodeCache()
    cache.note_server_hwm(0)
    assert not cache.store(make_view(level=0))
    assert not cache.store(make_view(torn=True))
    assert cache.store(make_view(level=1))
    assert len(cache) == 1


def test_cache_hit_then_invalidation_on_hwm_advance():
    cache = NodeCache()
    cache.note_server_hwm(3)
    view = make_view(chunk_id=9)
    assert cache.store(view)
    assert cache.lookup(9) is view
    assert int(cache.hits) == 1
    # A mutation advanced the mark: the entry may describe a stale tree.
    assert cache.note_server_hwm(4)
    assert cache.lookup(9) is None
    assert int(cache.invalidations) == 1
    assert int(cache.misses) == 1
    # A regressed / equal mark is ignored (marks are monotone).
    assert not cache.note_server_hwm(4)
    assert not cache.note_server_hwm(2)


def test_cache_store_refuses_stale_stamp():
    # The fetcher captured the mark before posting its read; the mark
    # moved while the read was in flight -> the view may be pre-mutation
    # content and must not be stamped as current.
    cache = NodeCache()
    cache.note_server_hwm(5)
    assert not cache.store(make_view(), stamp=4)
    assert len(cache) == 0


def test_cache_lru_eviction_bound():
    cache = NodeCache(NodeCacheConfig(max_nodes=2))
    cache.note_server_hwm(0)
    for cid in (1, 2, 3):
        assert cache.store(make_view(chunk_id=cid))
    assert len(cache) == 2
    assert int(cache.evictions) == 1
    assert cache.lookup(1) is None  # oldest evicted
    assert cache.lookup(3) is not None


def test_cache_metrics_registration():
    """A deployment sums every client's cache counts into ``cache.*``."""
    from repro import ExperimentConfig, run_experiment
    result = run_experiment(ExperimentConfig(
        scheme="rdma-offloading-multi", n_clients=2,
        requests_per_client=30, dataset_size=2_000,
        node_cache=NodeCacheConfig(),
    ))
    metrics = result.metrics["metrics"]
    for field in NodeCache.COUNTER_FIELDS:
        assert metrics[f"cache.{field}"]["type"] == "gauge"
    assert metrics["cache.stores"]["value"] > 0
    assert metrics["cache.hits"]["value"] > 0
    assert 0 < metrics["cache.resident_nodes"]["value"] \
        <= metrics["cache.stores"]["value"]


# -- heartbeat hint plumbing + wire compatibility ----------------------------

def test_heartbeat_payload_size_backward_compatible():
    legacy = Heartbeat(utilization=0.5, seq=3)
    hinted = Heartbeat(utilization=0.5, seq=3, mut_seq=17)
    assert legacy.mut_seq is None
    assert legacy.payload_size() == 12  # unchanged legacy wire format
    assert hinted.payload_size() == 20  # +u64 hint extension
    assert message_size(hinted) == message_size(legacy) + 8


def test_mailbox_applies_hints_and_legacy_beats_do_not():
    mailbox = HeartbeatMailbox()
    seen = []
    mailbox.attach_hint_sink(seen.append)
    mailbox.deliver(Heartbeat(utilization=0.1, seq=1))
    assert mailbox.mut_hint is None and seen == []
    mailbox.deliver(Heartbeat(utilization=0.2, seq=2, mut_seq=11))
    assert mailbox.mut_hint == 11 and seen == [11]


def test_hint_sink_flushes_cache_on_delivery():
    mailbox = HeartbeatMailbox()
    cache = NodeCache()
    mailbox.attach_hint_sink(cache.apply_hint)
    mailbox.deliver(Heartbeat(utilization=0.0, seq=1, mut_seq=0))
    cache.store(make_view())
    assert len(cache) == 1
    mailbox.deliver(Heartbeat(utilization=0.0, seq=2, mut_seq=5))
    assert len(cache) == 0
    assert cache.server_hwm == 5
    assert int(cache.hint_flushes) == 2


def test_consume_fresh_empty_mailbox_and_equal_seq():
    mailbox = HeartbeatMailbox()
    # Nothing ever delivered: missing, whatever last_seq the caller has.
    assert mailbox.consume_fresh(-1) is None
    assert mailbox.consume_fresh(-5) is None
    mailbox.deliver(Heartbeat(utilization=0.4, seq=7))
    assert mailbox.consume_fresh(7) is None  # already consumed seq
    assert mailbox.consume_fresh(6) == (7, 0.4)


def test_consume_fresh_genuine_zero_utilization_beat():
    # A 0.0-utilization beat is *fresh*, not missing — distinguishable
    # only via the sequence number.
    mailbox = HeartbeatMailbox()
    mailbox.deliver(Heartbeat(utilization=0.0, seq=1))
    assert mailbox.consume_fresh(-1) == (1, 0.0)
    assert mailbox.consume_fresh(1) is None


def test_consume_fresh_regressed_seq_after_server_restart():
    mailbox = HeartbeatMailbox()
    mailbox.deliver(Heartbeat(utilization=0.9, seq=40))
    assert mailbox.consume_fresh(-1) == (40, 0.9)
    # Server restarted; its counter reset.  The first post-restart beat
    # must be consumed as fresh, not read as missing for 40 ticks.
    mailbox.deliver(Heartbeat(utilization=0.3, seq=1))
    assert mailbox.consume_fresh(40) == (1, 0.3)
    assert mailbox.consume_fresh(1) is None


# -- engine integration: exactness, savings, coalescing ----------------------

@pytest.mark.parametrize("multi_issue", [False, True])
@pytest.mark.parametrize("query", [
    Rect(0, 0, 1, 1),
    Rect(0.25, 0.25, 0.5, 0.5),
    Rect(0.9, 0.9, 0.90001, 0.90001),
])
def test_cached_search_matches_server_search(multi_issue, query):
    sim, server, engine, stats, _qp = make_offload(
        cache=NodeCache(), multi_issue=multi_issue,
    )

    def client():
        first = yield from engine.search(query)
        second = yield from engine.search(query)
        return first, second

    p = sim.process(client())
    sim.run()
    expected = sorted(server.tree.search(query).data_ids)
    first, second = p.value
    assert sorted(i for _r, i in first) == expected
    assert sorted(i for _r, i in second) == expected
    # Upper levels of the repeat traversal came from the cache.
    assert int(engine.cache.hits) > 0


def test_cache_saves_chunk_fetches_on_repeat_searches():
    # Narrow query: the traversal is mostly upper levels (root +
    # internals + one or two leaves), the regime the cache targets.
    query = Rect(0.2, 0.2, 0.23, 0.23)

    def fetches(cache):
        sim, server, engine, stats, _qp = make_offload(cache=cache)

        def client():
            for _ in range(10):
                yield from engine.search(query)

        sim.process(client())
        sim.run()
        return int(engine.chunks_fetched)

    without = fetches(None)
    with_cache = fetches(NodeCache())
    # Repeat traversals serve the upper levels locally: >= 30% fewer
    # one-sided reads (the acceptance floor; in practice much more).
    assert with_cache <= without * 0.7, (with_cache, without)


def test_cached_search_exact_after_inserts():
    sim, server, engine, stats, _qp = make_offload(cache=NodeCache())
    query = Rect(0.3, 0.3, 0.7, 0.7)

    def client():
        warm = yield from engine.search(query)
        # Mutate the tree between searches (bumps mut_hwm); the next
        # search's meta read must flush the now-stale upper levels.
        for i in range(40):
            x = 0.3 + (i % 20) * 0.02
            server.tree.insert(Rect(x, x, x + 0.001, x + 0.001), 90_000 + i)
        after = yield from engine.search(query)
        return warm, after

    p = sim.process(client())
    sim.run()
    _warm, after = p.value
    expected = sorted(server.tree.search(query).data_ids)
    assert sorted(i for _r, i in after) == expected
    assert int(engine.cache.invalidations) > 0


def test_nearest_uses_cache_and_matches_oracle():
    sim, server, engine, stats, _qp = make_offload(cache=NodeCache())

    def client():
        first = yield from engine.nearest(0.5, 0.5, k=5)
        second = yield from engine.nearest(0.5, 0.5, k=5)
        return first, second

    p = sim.process(client())
    sim.run()
    first, second = p.value
    expected = sorted(server.tree.nearest(0.5, 0.5, k=5).data_ids)
    assert sorted(i for _r, i in first) == expected
    assert sorted(i for _r, i in second) == expected
    assert int(engine.cache.hits) > 0


def test_concurrent_same_chunk_fetches_coalesce():
    sim, server, engine, stats, _qp = make_offload(cache=NodeCache())
    query = Rect(0.4, 0.4, 0.42, 0.42)

    def client():
        yield from engine.search(query)

    # Two concurrent searches race for the same (uncached) chunks: the
    # single-flight table must share the in-flight reads.
    sim.process(client())
    sim.process(client())
    sim.run()
    assert int(engine.cache.coalesced_reads) > 0
    # Both searches completed and were counted.
    assert int(stats.offloaded_requests) == 2


def test_cache_disabled_engine_has_no_single_flight_table():
    _sim, _server, engine, _stats, _qp = make_offload(cache=None)
    assert engine.cache is None
    assert engine._inflight_reads is None


# -- doorbell batching -------------------------------------------------------

def _spy_doorbells(monkeypatch):
    """Count each read's post: its doorbell (``_Read.post``, which pays
    the post overhead) or its claim as a chained WQE (``_Read.claim``)."""
    posts = {"doorbell": 0, "chained": 0}
    for name, kind in (("post", "doorbell"), ("claim", "chained")):
        method = getattr(_Read, name)

        def spy(self, *args, _method=method, _kind=kind, **kwargs):
            posts[_kind] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(_Read, name, spy)
    return posts


def test_post_read_batch_counts_and_completes(monkeypatch):
    sim, server, engine, stats, qp = make_offload()
    posts = _spy_doorbells(monkeypatch)
    desc = engine.desc
    reads = [
        (desc.tree_rkey, desc.tree_base + cid * desc.chunk_bytes,
         desc.chunk_bytes)
        for cid in (0, 1, 2)
    ]

    def client():
        events = qp.post_read_batch(reads)
        assert len(events) == 3
        results = []
        for event in events:
            data = yield event
            results.append(data)
        return results

    p = sim.process(client())
    sim.run()
    assert len(p.value) == 3
    assert posts == {"doorbell": 1, "chained": 2}


def test_post_read_batch_rejects_bad_length_and_empty(monkeypatch):
    sim, server, engine, stats, qp = make_offload()
    posts = _spy_doorbells(monkeypatch)
    with pytest.raises(ValueError):
        qp.post_read_batch([(1, 0, 0)])
    assert qp.post_read_batch([]) == []
    assert posts == {"doorbell": 0, "chained": 0}


def test_batched_reads_charge_one_post_overhead():
    # WQE i>0 of a batch skips the per-post software overhead, so the
    # batch's last completion lands earlier than individually-posted
    # concurrent reads of the same chunks.
    def last_completion(batched):
        sim, server, engine, stats, qp = make_offload()
        desc = engine.desc
        reads = [
            (desc.tree_rkey, desc.tree_base + cid * desc.chunk_bytes,
             desc.chunk_bytes)
            for cid in (0, 1, 2)
        ]

        def client():
            if batched:
                events = qp.post_read_batch(reads)
            else:
                events = [qp.post_read(*r) for r in reads]
            for event in events:
                yield event
            return sim.now

        p = sim.process(client())
        sim.run()
        return p.value

    assert last_completion(True) < last_completion(False)


# -- satellite fixes: retry split, backoff, span hygiene ---------------------

def test_level_mismatch_counted_separately_from_torn():
    sim, server, engine, stats, _qp = make_offload()
    root = server.tree.root

    def client():
        # Ask for the root chunk at a deliberately wrong level: every
        # attempt returns a valid (untorn) view at the wrong level.
        view = yield from engine._read_valid(root.chunk_id, root.level + 1)
        return view

    p = sim.process(client())
    sim.run()
    assert p.value is None
    assert int(stats.level_mismatch_retries) == engine.max_read_retries
    assert int(stats.torn_retries) == 0


def _rtree_rejected_read():
    """An R-tree engine and a read every attempt of which is rejected:
    the root asked for at the wrong level."""
    sim, server, engine, _stats, _qp = make_offload()
    root = server.tree.root
    return sim, engine, (root.chunk_id, root.level + 1)


def _btree_rejected_read():
    """A B+tree engine and a read every attempt of which is rejected:
    the root of a multi-level tree asked for as a leaf."""
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    service = BTreeService(sim, server_host,
                           [(k, k + 1) for k in range(2000)], max_entries=16)
    assert service.tree.height > 1
    client_host = Host(sim, "client", IB_100G, cores=2)
    qp, _server_qp = connect(sim, net, client_host, server_host)
    engine = BTreeOffloadEngine(sim, qp, service.offload_descriptor(),
                                service.costs, ClientStats())
    return sim, engine, (service.tree.root.chunk_id, True)


@pytest.mark.parametrize("rejected_read",
                         [_rtree_rejected_read, _btree_rejected_read],
                         ids=["rtree", "btree"])
def test_read_valid_skips_backoff_after_final_attempt(rejected_read,
                                                      monkeypatch):
    # Reads are deterministic, so the elapsed-time difference between a
    # backoff of B and a backoff of 0 isolates the total backoff slept.
    def elapsed(backoff):
        monkeypatch.setattr(offload_client, "OFFLOAD_RETRY_BACKOFF", backoff)
        sim, engine, (chunk_id, expected) = rejected_read()

        def timed():
            t0 = sim.now
            view = yield from engine._read_valid(chunk_id, expected)
            assert view is None
            return sim.now - t0

        p = sim.process(timed())
        sim.run()
        return p.value

    backoff = 1e-6
    slept = elapsed(backoff) - elapsed(0.0)
    n = 8  # the engines' default max_read_retries
    # Attempts 0..n-2 sleep backoff*(attempt+1); the final attempt must
    # not sleep (the caller restarts or fails immediately).
    expected = backoff * sum(range(1, n))
    with_final = backoff * sum(range(1, n + 1))
    assert abs(slept - expected) < backoff * 0.5, (slept, expected)
    assert slept < with_final


def test_search_span_ended_when_exception_escapes():
    sim, server, engine, stats, _qp = make_offload()
    tracer = Tracer(sim)
    engine.tracer = tracer

    def boom(query):
        raise RuntimeError("injected")
        yield  # pragma: no cover - makes this a generator

    engine._search_multi_issue = boom

    def client():
        try:
            yield from engine.search(Rect(0, 0, 1, 1))
        except RuntimeError:
            return "raised"

    p = sim.process(client())
    sim.run()
    assert p.value == "raised"
    spans = tracer.spans()
    assert spans, "no spans recorded"
    for events in spans.values():
        names = [e.name for e in events]
        assert "end" in names, f"span leaked: {names}"
    (end_event,) = [e for events in spans.values() for e in events
                    if e.name == "end"]
    assert end_event.attrs["error"] == "RuntimeError"


def test_nearest_span_parity_with_search():
    sim, server, engine, stats, _qp = make_offload()
    tracer = Tracer(sim)
    engine.tracer = tracer

    def client():
        yield from engine.nearest(0.5, 0.5, k=3)

    sim.process(client())
    sim.run()
    spans = tracer.spans()
    begin = [e for events in spans.values() for e in events
             if e.name == "begin"]
    assert any(e.attrs.get("op") == "nearest" for e in begin)
    ends = [e for events in spans.values() for e in events
            if e.name == "end"]
    assert ends and all("error" not in (e.attrs or {}) for e in ends)


# -- chaos: exactness under a write storm ------------------------------------

def test_write_storm_scenario_exact_with_cache_enabled():
    from repro.chaos import run_scenario

    # A cached root is not re-read, so whether the storm trips a breaker
    # is luck of the back-off draw (of these seeds only 3 does): the
    # scenario must be green on what it can guarantee — the storm
    # fired, every answer exact, nothing lost — at every seed.
    for seed in range(4):
        report = run_scenario(
            "write-storm", seed=seed, n_clients=2, requests_per_client=100,
            dataset_size=1000, node_cache=NodeCacheConfig(),
        )
        assert report.mismatches == 0, seed
        assert report.completed == report.issued, seed
        assert report.counters["write-storms"] > 0, seed
        assert report.ok, (seed, report.failures)
