"""Tests for the scheme-independent R-tree server and the cost model."""

import pytest

from repro.btree import BTreeService
from repro.cuckoo import CuckooService
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.rtree.rstar import MutationResult, SearchResult
from repro.server import CostModel, RTreeServer
from repro.server.base import TreeMeta
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.workloads import uniform_dataset


KEYS = [(k, k + 1) for k in range(200)]
TREE_REGIONS = ("tree_region", "meta_region")

#: Every index service, in both chunk-image modes where it has two: a
#: builder and the names of the regions it registers.
SERVICES = {
    "rtree": (lambda sim, host: RTreeServer(
        sim, host, uniform_dataset(200, seed=3), max_entries=16),
        TREE_REGIONS),
    "rtree-bytes": (lambda sim, host: RTreeServer(
        sim, host, uniform_dataset(200, seed=3), max_entries=16,
        byte_mode=True), TREE_REGIONS),
    "btree": (lambda sim, host: BTreeService(sim, host, KEYS,
                                             max_entries=16), TREE_REGIONS),
    "btree-bytes": (lambda sim, host: BTreeService(
        sim, host, KEYS, max_entries=16, byte_mode=True), TREE_REGIONS),
    "cuckoo": (lambda sim, host: CuckooService(sim, host, KEYS,
                                               n_buckets=128), ("region",)),
}


def make_server(n_items=2000, max_entries=16, cores=4):
    sim = Simulator()
    net = Network(sim, IB_100G)
    host = Host(sim, "server", IB_100G, cores=cores)
    net.attach_server(host)
    items = uniform_dataset(n_items, seed=3)
    server = RTreeServer(sim, host, items, max_entries=max_entries)
    return sim, net, host, server, items


class TestCostModel:
    def test_search_cost_composition(self):
        costs = CostModel()
        result = SearchResult(matches=[(Rect(0, 0, 1, 1), 1)] * 10,
                              nodes_visited=5)
        expected = (costs.request_parse + 5 * costs.node_visit
                    + 10 * costs.per_result)
        assert costs.search_cost(result) == pytest.approx(expected)

    def test_mutation_cost_composition(self):
        costs = CostModel()
        result = MutationResult(nodes_visited=3, splits=2,
                                reinserted_entries=4)
        expected = (costs.request_parse + 3 * costs.node_visit
                    + costs.insert_write + 2 * costs.split
                    + 4 * costs.reinsert_entry)
        assert costs.mutation_cost(result) == pytest.approx(expected)

    def test_response_cost(self):
        costs = CostModel()
        assert costs.response_cost(3) == pytest.approx(
            3 * costs.response_segment
        )


class TestServerSetup:
    def test_tree_is_loaded(self):
        sim, net, host, server, items = make_server(n_items=1000)
        assert server.tree.size == 1000
        server.tree.validate()

    def test_region_registered_once_and_covers_tree(self):
        sim, net, host, server, items = make_server()
        region = server.tree_region
        for chunk_id in server.tree.nodes:
            addr = server.chunk_address(chunk_id)
            assert region.contains(addr, server.chunk_bytes)

    def test_offload_descriptor_contents(self):
        sim, net, host, server, items = make_server()
        desc = server.offload_descriptor()
        assert desc.tree_rkey == server.tree_region.rkey
        assert desc.tree_base == server.tree_region.base
        assert desc.chunk_bytes == server.chunk_bytes
        assert desc.max_entries == server.max_entries

    def test_meta_target_reports_root(self):
        sim, net, host, server, items = make_server()
        target = host.memory.target_of(server.meta_region.rkey)
        meta = target.rdma_read(server.meta_region.base, 16, 0.0)
        assert isinstance(meta, TreeMeta)
        assert meta.root_chunk == server.tree.root.chunk_id
        assert meta.height == server.tree.height

    def test_tree_chunk_target_reads_nodes(self):
        sim, net, host, server, items = make_server()
        target = host.memory.target_of(server.tree_region.rkey)
        root_addr = server.chunk_address(server.tree.root.chunk_id)
        view = target.rdma_read(root_addr, server.chunk_bytes, 0.0)
        assert view.chunk_id == server.tree.root.chunk_id
        assert not view.torn

    def test_tree_region_rejects_remote_writes(self):
        sim, net, host, server, items = make_server()
        target = host.memory.target_of(server.tree_region.rkey)
        with pytest.raises(PermissionError):
            target.rdma_write(server.tree_region.base, 8, b"x", 0.0)

    def test_meta_region_rejects_remote_writes(self):
        sim, net, host, server, items = make_server()
        target = host.memory.target_of(server.meta_region.rkey)
        with pytest.raises(PermissionError):
            target.rdma_write(server.meta_region.base, 8, b"x", 0.0)

    @pytest.mark.parametrize("index", sorted(SERVICES))
    def test_regions_reject_remote_writes(self, index):
        build, regions = SERVICES[index]
        sim = Simulator()
        host = Host(sim, "server", IB_100G, cores=2)
        service = build(sim, host)
        for name in regions:
            region = getattr(service, name)
            target = host.memory.target_of(region.rkey)
            with pytest.raises(PermissionError):
                target.rdma_write(region.base, 8, b"x", 0.0)


class TestExecution:
    def test_search_returns_matches_and_charges_cpu(self):
        sim, net, host, server, items = make_server(n_items=500)
        query = Rect(0, 0, 1, 1)

        def proc():
            matches = yield from execute_plan(server,
                                              server.plan_search(query))
            return matches

        p = sim.process(proc())
        sim.run()
        assert len(p.value) == 500
        assert host.cpu.total_work_seconds > 0
        assert server.searches_served == 1

    def test_search_results_match_direct_tree_search(self):
        sim, net, host, server, items = make_server(n_items=800)
        query = Rect(0.2, 0.2, 0.4, 0.4)

        def proc():
            matches = yield from execute_plan(server,
                                              server.plan_search(query))
            return matches

        p = sim.process(proc())
        sim.run()
        direct = server.tree.search(query)
        assert sorted(i for _r, i in p.value) == sorted(direct.data_ids)

    def test_insert_then_search_finds_it(self):
        sim, net, host, server, items = make_server(n_items=100)
        rect = Rect(0.5, 0.5, 0.50001, 0.50001)

        def proc():
            yield from execute_plan(server, server.plan_insert(rect, 999_999))
            matches = yield from execute_plan(server, server.plan_search(rect))
            return matches

        p = sim.process(proc())
        sim.run()
        assert 999_999 in [i for _r, i in p.value]
        assert server.inserts_served == 1

    def test_delete_removes(self):
        sim, net, host, server, items = make_server(n_items=100)
        rect, data_id = items[0]

        def proc():
            ok = yield from execute_plan(server,
                                         server.plan_delete(rect, data_id))
            matches = yield from execute_plan(server, server.plan_search(rect))
            return ok, matches

        p = sim.process(proc())
        sim.run()
        ok, matches = p.value
        assert ok
        assert data_id not in [i for _r, i in matches]
        assert server.deletes_served == 1

    def test_delete_missing_reports_false(self):
        sim, net, host, server, items = make_server(n_items=50)

        def proc():
            ok = yield from execute_plan(
                server, server.plan_delete(Rect(0, 0, 0.1, 0.1), 12345678))
            return ok

        p = sim.process(proc())
        sim.run()
        assert p.value is False

    def test_insert_opens_write_window(self):
        """During an insert's CPU charge, the touched nodes read as torn."""
        sim, net, host, server, items = make_server(n_items=500)
        rect = Rect(0.3, 0.3, 0.3001, 0.3001)
        observations = []

        def writer():
            yield from execute_plan(server, server.plan_insert(rect, 77777))

        def prober():
            # The window opens during the trailing store burst; sample
            # frequently across the whole insert to catch it.
            for _ in range(400):
                yield sim.timeout(0.1e-6)
                if any(node.active_writers > 0
                       for node in server.tree.nodes.values()):
                    observations.append(True)
                    return

        sim.process(writer())
        sim.process(prober())
        sim.run()
        assert observations == [True]
        assert server.write_tracker.total_writes == 1

    def test_service_inflation_multiplies_cost(self):
        sim, net, host, server, items = make_server(n_items=500)
        query = Rect(0, 0, 0.01, 0.01)

        def proc():
            yield from execute_plan(server, server.plan_search(query))

        sim.process(proc())
        sim.run()
        base_work = host.cpu.total_work_seconds

        sim2, net2, host2, server2, _ = make_server(n_items=500)
        server2.service_inflation = 2.0

        def proc2():
            yield from execute_plan(server2, server2.plan_search(query))

        sim2.process(proc2())
        sim2.run()
        assert host2.cpu.total_work_seconds == pytest.approx(2 * base_work)

    def test_concurrent_searches_share_cores(self):
        sim, net, host, server, items = make_server(n_items=2000, cores=2)

        def proc():
            yield from execute_plan(server,
                                    server.plan_search(Rect(0, 0, 1, 1)))

        for _ in range(4):
            sim.process(proc())
        sim.run()
        assert server.searches_served == 4
        # With 2 cores and 4 equal jobs, elapsed ~ 2x single-job time.
        assert host.cpu.utilization() > 0.9
