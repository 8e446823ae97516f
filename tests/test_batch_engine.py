"""Batched search: kernel selection, the engine, offload and wiring."""

import pytest

from repro.client import ClientStats, OffloadEngine
from repro.client.base import OP_INSERT, OP_SEARCH, Request
from repro.cluster.builder import run_experiment
from repro.cluster.config import ExperimentConfig
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import (
    BatchSearchEngine,
    RStarTree,
    Rect,
    bulk_load,
    kernel_name,
)
from repro.rtree import batch as batch_mod
from repro.server import RTreeServer
from repro.sim import Simulator
from repro.transport import connect
from repro.workloads import uniform_dataset
from repro.workloads.mixes import batch_runs

from .rstar_reference import search_via_rects


# -- kernel selection ---------------------------------------------------------


def test_kernel_selection_roundtrip():
    # One kernel per platform: the batch kernels are numpy broadcasts
    # iff numpy imports; the private flag flips and restores cleanly.
    expected = "numpy" if batch_mod.HAVE_NUMPY else "python"
    assert kernel_name() == expected
    saved = batch_mod._np_batch
    try:
        batch_mod._np_batch = False
        assert kernel_name() == "python"
        batch_mod._np_batch = saved
        assert kernel_name() == expected
    finally:
        batch_mod._np_batch = saved
    assert kernel_name() == expected


def test_unknown_kernel_rejected():
    # No runtime kernel switch is left to reject a name: the package
    # exports only the read-only ``kernel_name``, and the kernel module
    # reads no environment variable.
    import repro.rtree as rtree

    assert {n for n in rtree.__all__ if "kernel" in n} == {"kernel_name"}
    public = {n for n in dir(batch_mod)
              if "kernel" in n and not n.startswith("_")}
    assert public == {"kernel_name"}
    with open(batch_mod.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert "environ" not in source and "getenv" not in source


@pytest.mark.skipif(batch_mod.HAVE_NUMPY, reason="numpy is installed")
def test_numpy_kernel_without_numpy_raises():
    # Without numpy the platform kernel is the Python one, and the batch
    # engine still equals the sequential oracle.
    assert kernel_name() == "python"
    tree, _items = _grid_tree()
    queries = [Rect(0.1, 0.1, 0.4, 0.4), Rect(0.3, 0.0, 0.35, 1.0)]
    for query, got in zip(queries, BatchSearchEngine(tree).search_batch(
            queries)):
        oracle = search_via_rects(tree, query)
        assert got.matches == oracle.matches
        assert got.visited_chunks == oracle.visited_chunks


# -- the batch engine ---------------------------------------------------------


def _grid_tree(n_side=20):
    items = []
    for i in range(n_side):
        for j in range(n_side):
            x, y = i / n_side, j / n_side
            items.append((Rect(x, y, x + 0.5 / n_side, y + 0.5 / n_side),
                          i * n_side + j))
    return bulk_load(items, max_entries=8), items


def test_engine_counters_and_amortization():
    tree, _items = _grid_tree()
    queries = [Rect(0.1, 0.1, 0.4, 0.4)] * 16  # fully overlapping group
    engine = BatchSearchEngine(tree)
    results = engine.search_batch(queries)
    assert engine.batches_served == 1
    assert engine.queries_served == 16
    total_visits = sum(r.nodes_visited for r in results)
    # Identical windows collapse onto one shared frontier: the engine
    # pops each node once for the whole group.
    assert engine.shared_visits == results[0].nodes_visited
    assert total_visits == 16 * results[0].nodes_visited


def test_engine_empty_batch():
    tree, _items = _grid_tree(6)
    engine = BatchSearchEngine(tree)
    assert engine.search_batch([]) == []
    assert engine.batches_served == 1
    assert engine.queries_served == 0


def test_engine_tracks_tree_mutation():
    """Numpy mirrors and leaf payloads are keyed on mut_seq: results
    stay oracle-identical after inserts invalidate them."""
    tree = RStarTree(max_entries=8)
    for i in range(120):
        x, y = (i % 11) / 11, (i // 11) / 11
        tree.insert(Rect(x, y, x + 0.05, y + 0.05), i)
    queries = [Rect(0.2, 0.2, 0.6, 0.6), Rect(0.0, 0.0, 0.1, 0.1)]
    engine = BatchSearchEngine(tree)
    first = engine.search_batch(queries)  # builds the mirrors
    for q, got in zip(queries, first):
        assert got.matches == search_via_rects(tree, q).matches
    for i in range(120, 200):
        x, y = (i % 13) / 13, (i // 13) / 13
        tree.insert(Rect(x, y, x + 0.03, y + 0.03), i)
    second = engine.search_batch(queries)
    for q, got in zip(queries, second):
        oracle = search_via_rects(tree, q)
        assert got.matches == oracle.matches
        assert got.visited_chunks == oracle.visited_chunks


# -- offloaded batched search -------------------------------------------------


def _make_offload(n_items=1500, multi_issue=True):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=4)
    net.attach_server(server_host)
    items = uniform_dataset(n_items, seed=7)
    server = RTreeServer(sim, server_host, items, max_entries=16)
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
    return sim, server, engine, stats


@pytest.mark.parametrize("multi_issue", [False, True])
def test_offload_search_batch_matches_server_search(multi_issue):
    sim, server, engine, stats = _make_offload(multi_issue=multi_issue)
    queries = [
        Rect(0.1, 0.1, 0.3, 0.3),
        Rect(0.25, 0.25, 0.5, 0.5),   # overlaps the first
        Rect(0.8, 0.8, 0.80001, 0.80001),
        Rect(0.1, 0.1, 0.3, 0.3),     # duplicate window
    ]

    def client():
        groups = yield from engine.search_batch(queries)
        return groups

    p = sim.process(client())
    sim.run()
    assert len(p.value) == len(queries)
    for query, got in zip(queries, p.value):
        expected = sorted(server.tree.search(query).data_ids)
        assert sorted(i for _r, i in got) == expected
    assert stats.offloaded_requests == len(queries)


def test_offload_batch_amortizes_chunk_fetches():
    """One shared traversal reads each frontier chunk once for the
    whole group, so a batch costs fewer fetches than per-query reads."""
    queries = [Rect(0.2, 0.2, 0.45, 0.45)] * 8

    def fetches(batched):
        sim, server, engine, _stats = _make_offload()

        def client():
            if batched:
                yield from engine.search_batch(queries)
            else:
                for q in queries:
                    yield from engine.search(q)

        sim.process(client())
        sim.run()
        return engine.chunks_fetched

    assert fetches(batched=True) < fetches(batched=False)


# -- workload grouping --------------------------------------------------------


def _req(i, op=OP_SEARCH):
    return Request(op=op, rect=Rect(0, 0, 1, 1), data_id=i)


def test_batch_runs_groups_searches_only():
    requests = [_req(0), _req(1), _req(2, OP_INSERT), _req(3), _req(4),
                _req(5), _req(6)]
    groups = list(batch_runs(requests, 3))
    assert [[r.data_id for r in g] for g in groups] == [
        [0, 1], [2], [3, 4, 5], [6]
    ]
    # batch_size < 2 means no batching at all.
    assert all(len(g) == 1 for g in batch_runs(requests, 1))


def test_config_rejects_negative_batch_queries():
    with pytest.raises(ValueError):
        ExperimentConfig(batch_queries=-1)


# -- end-to-end wiring --------------------------------------------------------


def _run(scheme, batch_queries, **kw):
    config = ExperimentConfig(
        scheme=scheme,
        n_clients=4,
        requests_per_client=32,
        workload_kind="search",
        dataset_size=4000,
        batch_queries=batch_queries,
        **kw,
    )
    return run_experiment(config)


def test_e2e_offload_batching_serves_all_and_speeds_up():
    sequential = _run("rdma-offloading-multi", 0)
    batched = _run("rdma-offloading-multi", 8)
    assert batched.total_requests == sequential.total_requests
    # The simulation is deterministic, so the RTT savings of the shared
    # traversal show up as a strictly better simulated wall clock.
    assert batched.throughput_kops > sequential.throughput_kops


def test_e2e_fm_scheme_degrades_gracefully_with_batching():
    """Schemes whose sessions route to fast messaging still complete
    with batching requested (groups fall back to per-request sends)."""
    result = _run("catfish", 4)
    assert result.total_requests == 4 * 32
    assert result.throughput_kops > 0
