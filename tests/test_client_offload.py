"""Tests for the RDMA-offloading client: correctness, retries, restarts."""

import pytest

from repro.client import ClientStats, OffloadEngine, Request
from repro.client.base import OP_INSERT, OP_SEARCH
from repro.client.fm_client import FmSession
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.runtime import AlwaysOffloadPolicy, PolicySession
from repro.server import EVENT, FastMessagingServer, RTreeServer
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.transport import connect
from repro.workloads import uniform_dataset


def make_offload(n_items=1500, max_entries=16, cores=4, multi_issue=True):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=cores)
    net.attach_server(server_host)
    items = uniform_dataset(n_items, seed=7)
    server = RTreeServer(sim, server_host, items, max_entries=max_entries)
    client_host = Host(sim, "client", IB_100G, cores=2)
    client_qp, _server_qp = connect(sim, net, client_host, server_host)
    stats = ClientStats()
    engine = OffloadEngine(
        sim,
        client_qp,
        server.offload_descriptor(),
        server.costs,
        stats,
        multi_issue=multi_issue,
    )
    return sim, net, server_host, server, engine, stats, items


@pytest.mark.parametrize("multi_issue", [False, True])
@pytest.mark.parametrize(
    "query",
    [
        Rect(0, 0, 1, 1),
        Rect(0.25, 0.25, 0.5, 0.5),
        Rect(0.9, 0.9, 0.90001, 0.90001),
    ],
)
def test_offload_search_matches_server_search(multi_issue, query):
    sim, net, server_host, server, engine, stats, items = make_offload(
        multi_issue=multi_issue
    )

    def client():
        matches = yield from engine.search(query)
        return matches

    p = sim.process(client())
    sim.run()
    expected = sorted(server.tree.search(query).data_ids)
    assert sorted(i for _r, i in p.value) == expected


def test_offload_consumes_zero_server_cpu():
    sim, net, server_host, server, engine, stats, items = make_offload()

    def client():
        for _ in range(20):
            yield from engine.search(Rect(0.1, 0.1, 0.4, 0.4))

    sim.process(client())
    sim.run()
    assert server_host.cpu.total_work_seconds == 0.0
    assert stats.offloaded_requests == 20


def test_multi_issue_is_faster_on_wide_queries():
    """The paper's Fig 8: multi-issue pipelines sibling fetches."""
    query = Rect(0.2, 0.2, 0.7, 0.7)  # wide: many children per level

    def timed(multi_issue):
        sim, net, sh, server, engine, stats, items = make_offload(
            multi_issue=multi_issue
        )

        def client():
            t0 = sim.now
            yield from engine.search(query)
            return sim.now - t0

        p = sim.process(client())
        sim.run()
        return p.value

    assert timed(True) < timed(False) * 0.7


def test_single_and_multi_issue_fetch_same_chunk_count():
    query = Rect(0.3, 0.3, 0.6, 0.6)
    counts = []
    for multi_issue in (False, True):
        sim, net, sh, server, engine, stats, items = make_offload(
            multi_issue=multi_issue
        )

        def client():
            yield from engine.search(query)

        sim.process(client())
        sim.run()
        counts.append(engine.chunks_fetched)
    assert counts[0] == counts[1]


def test_meta_is_validated_every_search():
    sim, net, sh, server, engine, stats, items = make_offload()

    def client():
        for _ in range(5):
            yield from engine.search(Rect(0.4, 0.4, 0.45, 0.45))

    sim.process(client())
    sim.run()
    # first search: bootstrap meta read; warm searches: one in-flight
    # validation read each
    assert engine.meta_reads >= 5
    assert engine.stale_root_detections == 0


def test_cold_start_does_single_meta_read():
    """Regression: the first multi-issue search used to do a blocking
    bootstrap meta read AND immediately issue a second concurrent
    fetch_meta — paying an extra RTT and double-counting meta_reads."""
    sim, net, sh, server, engine, stats, items = make_offload(
        multi_issue=True
    )

    def client():
        yield from engine.search(Rect(0.4, 0.4, 0.45, 0.45))

    sim.process(client())
    sim.run()
    assert engine.meta_reads == 1

    # The warm path still validates concurrently: exactly one more read.
    def client2():
        yield from engine.search(Rect(0.4, 0.4, 0.45, 0.45))

    sim.process(client2())
    sim.run()
    assert engine.meta_reads == 2


def test_torn_read_is_retried_during_concurrent_insert():
    sim, net, server_host, server, engine, stats, items = make_offload()

    def writer():
        # Stream inserts so write windows stay open a lot of the time.
        for i in range(200):
            yield from execute_plan(server, server.plan_insert(
                Rect(0.5, 0.5, 0.5001, 0.5001), 10_000_000 + i
            ))

    def reader():
        for _ in range(50):
            yield from engine.search(Rect(0.49, 0.49, 0.52, 0.52))

    sim.process(writer())
    p = sim.process(reader())
    sim.run()
    assert p.value is None  # reader generator returns None at the end
    assert stats.torn_retries > 0


def test_root_split_triggers_meta_refresh_and_restart():
    sim, net, server_host, server, engine, stats, items = make_offload(
        n_items=15, max_entries=4
    )
    query = Rect(0, 0, 1, 1)
    old_root = server.tree.root.chunk_id
    old_height = server.tree.height

    def client():
        # Prime the engine's root cache.
        first = yield from engine.search(query)
        # Grow the tree until the root splits (height increases).
        i = 0
        while server.tree.height == old_height:
            yield from execute_plan(server, server.plan_insert(
                Rect(0.001 * i, 0.001 * i, 0.001 * i + 0.0001,
                     0.001 * i + 0.0001),
                20_000_000 + i,
            ))
            i += 1
        # The cached root is now stale; the search must still be correct.
        second = yield from engine.search(query)
        return len(first), len(second)

    p = sim.process(client())
    sim.run()
    n_first, n_second = p.value
    assert server.tree.root.chunk_id != old_root
    assert n_second == server.tree.size
    assert engine.stale_root_detections >= 1
    assert stats.search_restarts >= 1


def split_at_first_leaf_read(server):
    """Make the server's next read of a leaf chunk first grow that leaf
    until it loses entries (a split or forced reinsert), as a concurrent
    insert landing between a traversal's parent read and child read."""
    tree = server.tree
    fired = []

    def before(chunk_id):
        node = tree.nodes.get(chunk_id)
        if fired or node is None or not node.is_leaf:
            return
        fired.append(chunk_id)
        anchor = node.entries[0].rect
        for i in range(64):
            held = node.count
            tree.insert(anchor, 30_000_000 + i)
            if node.count <= held:
                return
        raise AssertionError("the leaf never lost an entry")

    target = server.chunk_reads
    read = target.rdma_read

    def hooked_read(address, length, now):
        before(server.allocator.chunk_of(address))
        return read(address, length, now)

    target.rdma_read = hooked_read
    return fired


@pytest.mark.parametrize("byte_mode", [False, True])
@pytest.mark.parametrize("multi_issue", [False, True])
def test_split_between_parent_and_child_read_restarts(multi_issue,
                                                      byte_mode):
    """A leaf that loses entries after its parent was read hides them
    from the traversal; the entry-loss stamp, newer than the meta read,
    makes it restart, and every item held throughout is found."""
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(40, seed=7)  # a root over six leaves
    server = RTreeServer(sim, server_host, items, max_entries=8,
                         byte_mode=byte_mode)
    root = server.tree.root
    client_host = Host(sim, "client", IB_100G, cores=2)
    client_qp, _server_qp = connect(sim, net, client_host, server_host)
    stats = ClientStats()
    engine = OffloadEngine(sim, client_qp, server.offload_descriptor(),
                           server.costs, stats, multi_issue=multi_issue)
    query = Rect(0, 0, 1, 1)

    def client():
        yield from engine.search(query)  # warm the cached root
        fired = split_at_first_leaf_read(server)
        matches = yield from engine.search(query)
        return fired, matches

    p = sim.process(client())
    sim.run()
    fired, matches = p.value
    assert fired
    assert server.tree.root is root  # the meta read cannot tell
    found = {data_id for _rect, data_id in matches}
    assert {data_id for _rect, data_id in items} <= found
    assert engine.moved_entry_restarts == 1
    assert stats.search_restarts == 1


def unlink_at_first_leaf_read(server):
    """Make the server's next read of a leaf chunk first unlink another
    whole leaf of the same parent, one the traversal has not read yet (a
    migration cleanup landing between a traversal's parent read and its
    child reads)."""
    tree = server.tree
    unlinked = []

    def before(chunk_id):
        node = tree.nodes.get(chunk_id)
        if unlinked or node is None or not node.is_leaf:
            return
        victim = next(entry.child for entry in node.parent.entries
                      if entry.child is not node)
        run = [(entry.rect, entry.data_id) for entry in victim.entries]
        assert server.plan_delete_group(run, victim.chunk_id).result == len(
            run)
        assert victim.chunk_id not in tree.nodes  # unlinked, not per item
        unlinked.extend(run)

    target = server.chunk_reads
    read = target.rdma_read

    def hooked_read(address, length, now):
        before(server.allocator.chunk_of(address))
        return read(address, length, now)

    target.rdma_read = hooked_read
    return unlinked


@pytest.mark.parametrize("byte_mode", [False, True])
@pytest.mark.parametrize("multi_issue", [False, True])
def test_unlink_between_parent_and_child_read_misses_nothing(multi_issue,
                                                             byte_mode):
    """A traversal whose parent image predates a whole-leaf unlink
    follows the entry to a freed chunk: it restarts, and every item held
    throughout is found, none of the unlinked ones invented."""
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(40, seed=7)  # a root over six leaves
    server = RTreeServer(sim, server_host, items, max_entries=8,
                         byte_mode=byte_mode)
    client_host = Host(sim, "client", IB_100G, cores=2)
    client_qp, _server_qp = connect(sim, net, client_host, server_host)
    stats = ClientStats()
    engine = OffloadEngine(sim, client_qp, server.offload_descriptor(),
                           server.costs, stats, multi_issue=multi_issue)
    query = Rect(0, 0, 1, 1)

    def client():
        yield from engine.search(query)  # warm the cached root
        unlinked = unlink_at_first_leaf_read(server)
        matches = yield from engine.search(query)
        return unlinked, matches

    p = sim.process(client())
    sim.run()
    unlinked, matches = p.value
    assert unlinked
    found = {data_id for _rect, data_id in matches}
    gone = {data_id for _rect, data_id in unlinked}
    assert {data_id for _rect, data_id in items} - gone <= found
    assert not found & gone
    assert stats.search_restarts >= 1


def test_offload_session_routes_writes_to_fast_messaging():
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(500, seed=9)
    server = RTreeServer(sim, server_host, items, max_entries=16)
    fm_server = FastMessagingServer(sim, server, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = FmSession(sim, conn, 0, stats)
    engine = OffloadEngine(
        sim, conn.client_end, server.offload_descriptor(), server.costs,
        stats,
    )
    session = PolicySession(sim, fm, engine, stats, AlwaysOffloadPolicy())
    rect = Rect(0.8, 0.8, 0.80001, 0.80001)

    def client():
        yield from session.execute(Request(OP_INSERT, rect, data_id=424242))
        matches = yield from session.execute(Request(OP_SEARCH, rect))
        return matches

    p = sim.process(client())
    sim.run()
    assert 424242 in [i for _r, i in p.value]
    # The insert went through the server; the search did not.
    assert server.inserts_served == 1
    assert server.searches_served == 0
    assert stats.offloaded_requests == 1
    assert stats.fast_messaging_requests == 1
