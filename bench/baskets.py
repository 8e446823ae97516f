"""Isolated layer baskets: one fixed, seed-deterministic basket per layer.

Each basket times only calls into public functions of one ``repro``
package (plus, unavoidably, the layers beneath it) and reports a host
rate — operations per second of ``time.process_time()``, best of
:data:`REPEATS`.  Every result is consumed inside the timed region:
generators are driven to completion through a ``Simulator``, lists are
summed.  The baskets are diagnostics: they say which layer got cheaper
or dearer to *simulate*, never what the modelled cluster does, and no
bound is attached to them.

Deliberately independent of ``repro.perfbench`` so a later simplicity
issue can retire that module and ``BENCH_perf.json``.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Tuple

from repro.client.base import OP_SEARCH, ClientStats, Request
from repro.client.node_cache import NodeCacheConfig
from repro.cluster.builder import ExperimentRunner
from repro.cluster.config import ExperimentConfig
from repro.hw.host import Host
from repro.msg.codec import (
    SearchRequest,
    message_size,
    reassemble,
    segment_results,
)
from repro.msg.ringbuffer import RingBuffer
from repro.net.fabric import Network, profile_by_name
from repro.obs.registry import Counter, MetricsRegistry
from repro.rtree.batch import BatchSearchEngine
from repro.rtree.bulk import bulk_load
from repro.rtree.geometry import Rect
from repro.rtree.rstar import RStarTree
from repro.rtree.serialize import pack_node, snapshot_node, unpack_node
from repro.shard.partition import ShardMap, partition_str
from repro.shard.router import ScatterGatherRouter
from repro.sim.kernel import Simulator
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RngRegistry
from repro.traffic.arrivals import aggregate_generator
from repro.traffic.config import TrafficConfig
from repro.traffic.mux import ConnectionMux, TrafficJob
from repro.transport.rdma import connect
from repro.workloads.datasets import uniform_dataset
from repro.workloads.mixes import make_workload

REPEATS = 3

#: Basket name -> unit of the rate it reports.
BASKET_UNITS = {
    "basket.sim.events_per_s": "1/s",
    "basket.sim.resource_ops_per_s": "1/s",
    "basket.rtree.search_visits_per_s": "1/s",
    "basket.rtree.batch_visits_per_s": "1/s",
    "basket.rtree.insert_per_s": "1/s",
    "basket.rtree.bulk_load_items_per_s": "1/s",
    "basket.rtree.pack_mb_per_s": "MB/s",
    "basket.rtree.snapshot_per_s": "1/s",
    "basket.msg.codec_msgs_per_s": "1/s",
    "basket.msg.ring_ops_per_s": "1/s",
    "basket.transport.rdma_ops_per_s": "1/s",
    "basket.server.fm_req_per_s": "1/s",
    "basket.client.offload_cold_per_s": "1/s",
    "basket.client.offload_warm_per_s": "1/s",
    "basket.shard.read_targets_per_s": "1/s",
    "basket.shard.partition_items_per_s": "1/s",
    "basket.shard.router_req_per_s": "1/s",
    "basket.traffic.arrivals_per_s": "1/s",
    "basket.traffic.mux_jobs_per_s": "1/s",
    "basket.obs.counter_incs_per_s": "1/s",
    "basket.workloads.requests_per_s": "1/s",
}


def _best_rate(make: Callable[[], Callable[[], float]]) -> float:
    """Best-of-:data:`REPEATS` rate.

    ``make()`` does the untimed set-up and returns the timed body; the
    body returns how many operations it performed.
    """
    best = 0.0
    for _ in range(REPEATS):
        body = make()
        start = time.process_time()
        ops = body()
        elapsed = time.process_time() - start
        best = max(best, ops / max(elapsed, 1e-9))
    return best


def _queries(rng: random.Random, n: int, side: float) -> List[Rect]:
    out = []
    for _ in range(n):
        cx = rng.uniform(side, 1.0 - side)
        cy = rng.uniform(side, 1.0 - side)
        out.append(Rect(cx - side / 2, cy - side / 2,
                        cx + side / 2, cy + side / 2))
    return out


def _drive(sim: Simulator, generator) -> None:
    """Run one generator to completion inside ``sim``."""
    sim.run_until_triggered(sim.process(generator))


# -- sim ---------------------------------------------------------------------

def _sim_events() -> float:
    loops = 4_000

    def make():
        sim = Simulator()

        def worker():
            for _ in range(loops):
                yield sim.timeout(1.0)
                event = sim.event()
                event.succeed(None)
                yield event
                yield sim.timeout(0.5)

        for _ in range(4):
            sim.process(worker())

        def body():
            sim.run()
            return 4 * loops * 3
        return body
    return _best_rate(make)


def _sim_resources() -> float:
    loops = 2_000

    def make():
        sim = Simulator()
        slots = Resource(sim, capacity=2)
        store = Store(sim)
        tank = Container(sim, capacity=1000.0, init=1000.0)

        def worker():
            for i in range(loops):
                with slots.request() as claim:
                    yield claim
                    yield sim.timeout(1e-6)
                store.put_discard(i)
                yield store.get()
                yield tank.get(10.0)
                yield tank.put(10.0)

        for _ in range(4):
            sim.process(worker())

        def body():
            sim.run()
            return 4 * loops * 5
        return body
    return _best_rate(make)


# -- rtree -------------------------------------------------------------------

def _rtree(items, rng: random.Random) -> Dict[str, float]:
    tree = bulk_load(items)
    queries = _queries(rng, 1_500, 0.02)
    out = {}
    sequential: List[Tuple[int, ...]] = []

    def make_search():
        def body():
            visits = 0
            sequential.clear()
            for query in queries:
                result = tree.search(query)
                visits += result.nodes_visited
                sequential.append(tuple(result.data_ids))
            return visits
        return body
    out["basket.rtree.search_visits_per_s"] = _best_rate(make_search)

    batched: List[Tuple[int, ...]] = []

    def make_batch():
        engine = BatchSearchEngine(tree)

        def body():
            visits = 0
            batched.clear()
            for result in engine.search_batch(queries):
                visits += result.nodes_visited
                batched.append(tuple(result.data_ids))
            return visits
        return body
    out["basket.rtree.batch_visits_per_s"] = _best_rate(make_batch)
    if batched != sequential:
        raise AssertionError(
            "batched search returned different matches than sequential")

    inserts = items[:1_200]

    def make_insert():
        fresh = RStarTree()

        def body():
            for rect, data_id in inserts:
                fresh.insert(rect, data_id)
            return fresh.size
        return body
    out["basket.rtree.insert_per_s"] = _best_rate(make_insert)

    def make_bulk():
        def body():
            return bulk_load(items).size
        return body
    out["basket.rtree.bulk_load_items_per_s"] = _best_rate(make_bulk)

    nodes = list(tree.nodes.values())[:150]

    def make_pack():
        def body():
            moved = 0
            for node in nodes:
                data = pack_node(node)
                moved += len(data) + len(unpack_node(data).entries)
            return moved / 1e6
        return body
    out["basket.rtree.pack_mb_per_s"] = _best_rate(make_pack)

    probe = queries[:100]

    def make_snapshot():
        def body():
            refs = 0
            for node in nodes:
                view = snapshot_node(node)
                for query in probe:
                    refs += len(view.intersecting_refs(query))
            return len(nodes) * (1 + len(probe))
        return body
    out["basket.rtree.snapshot_per_s"] = _best_rate(make_snapshot)
    return out


# -- msg ---------------------------------------------------------------------

def _msg_codec(items) -> float:
    result_sets = [items[i:i + n] for i, n in
                   zip(range(0, 9_000, 15), [0, 1, 4, 30, 200, 900] * 100)]

    def make():
        def body():
            messages = 0
            for req_id, results in enumerate(result_sets):
                segments = segment_results(req_id, results)
                size = sum(message_size(seg) for seg in segments)
                if len(reassemble(segments)) != len(results) or size <= 0:
                    raise AssertionError("codec round trip lost results")
                messages += len(segments)
            return messages
        return body
    return _best_rate(make)


def _msg_ring() -> float:
    loops = 3_000

    def make():
        sim = Simulator()
        ring = RingBuffer(sim, capacity=4096)
        message = SearchRequest(req_id=1, rect=Rect(0.1, 0.1, 0.2, 0.2))

        def sender():
            for _ in range(loops):
                yield from ring.reserve(message)
                ring.deposit(message)

        def receiver():
            for _ in range(loops):
                yield ring.consume()

        sim.process(sender())
        done = sim.process(receiver())

        def body():
            sim.run_until_triggered(done)
            return 3 * loops
        return body
    return _best_rate(make)


# -- transport ---------------------------------------------------------------

class _Target:
    """Minimal one-sided access target (the RDMA target protocol)."""

    def __init__(self):
        self.writes = 0

    def rdma_write(self, address, length, payload, now):
        self.writes += 1

    def rdma_read(self, address, length, now):
        return length


def _transport_rdma() -> float:
    loops = 400

    def make():
        sim = Simulator()
        profile = profile_by_name("ib-100g")
        network = Network(sim, profile)
        server = Host(sim, "server", profile)
        client = Host(sim, "client", profile, cores=2)
        network.attach_server(server)
        region = server.memory.register(1 << 20, name="basket")
        target = _Target()
        server.memory.bind(region.rkey, target)
        end, _peer = connect(sim, network, client, server, name="basket")

        def worker():
            got = 0
            for _ in range(loops):
                yield end.post_write(region.rkey, region.base, None, 64)
                got += yield end.post_read(region.rkey, region.base, 1024)
                for event in end.post_read_batch(
                        [(region.rkey, region.base, 1024)] * 4):
                    got += yield event
            if got != loops * 5 * 1024 or target.writes != loops:
                raise AssertionError("RDMA basket lost an operation")

        def body():
            _drive(sim, worker())
            return loops * 6
        return body
    return _best_rate(make)


# -- server / client (through the public single-server builder) --------------

def _session_rate(scheme: str, items, requests: List[Request],
                  node_cache=None, warm: bool = False) -> float:
    """Requests/s of one session's path against a one-client deployment."""

    def make():
        runner = ExperimentRunner(ExperimentConfig(
            scheme=scheme, n_clients=1, requests_per_client=1,
            dataset=items, dataset_size=len(items), node_cache=node_cache,
        ))
        runner.run()
        session = runner.sessions[0]
        sim = runner.sim

        def issue():
            results = 0
            for request in requests:
                if session.engine is not None:
                    matches = yield from session.engine.search(request.rect)
                else:
                    matches = yield from session.fm.execute(request)
                results += len(matches)
            return results

        if warm:
            _drive(sim, issue())

        def body():
            _drive(sim, issue())
            return len(requests)
        return body
    return _best_rate(make)


# -- shard -------------------------------------------------------------------

class _StubSession:
    """A session that answers at once (isolates the router / the mux)."""

    def __init__(self, sim: Simulator, matches):
        self.sim = sim
        self.matches = matches

    def execute(self, request):
        yield self.sim.timeout(1e-6)
        return self.matches


def _shard(items, rng: random.Random) -> Dict[str, float]:
    out = {}

    def make_partition():
        def body():
            return sum(partition_str(items, 4).shard_map.counts())
        return body
    out["basket.shard.partition_items_per_s"] = _best_rate(make_partition)

    partition = partition_str(items, 4)
    queries = _queries(rng, 4_000, 0.05)

    def make_targets():
        shard_map = partition.shard_map.copy()

        def body():
            fanout = 0
            for query in queries:
                fanout += len(shard_map.read_targets(query))
                fanout += len(shard_map.shards_for(query))
            return 2 * len(queries)
        return body
    out["basket.shard.read_targets_per_s"] = _best_rate(make_targets)

    requests = [Request(OP_SEARCH, q) for q in queries[:1_500]]

    def make_router():
        sim = Simulator()
        router = ScatterGatherRouter(
            sim, ShardMap(list(partition.shard_map)),
            [_StubSession(sim, [(items[k][0], items[k][1])])
             for k in range(4)],
            ClientStats(),
        )

        def issue():
            merged = 0
            for request in requests:
                result = yield from router.execute(request)
                merged += len(result.results)
            return merged

        def body():
            _drive(sim, issue())
            return len(requests)
        return body
    out["basket.shard.router_req_per_s"] = _best_rate(make_router)
    return out


# -- traffic -----------------------------------------------------------------

def _traffic(seed: int) -> Dict[str, float]:
    out = {}
    config = TrafficConfig(rate=2_000_000.0, duration_s=5e-3, n_aggregates=1)

    def make_arrivals():
        generator = aggregate_generator(
            config, RngRegistry(seed).fork("aggregate-0"))

        def body():
            return sum(1 for _ in generator.arrivals(config.duration_s))
        return body
    out["basket.traffic.arrivals_per_s"] = _best_rate(make_arrivals)

    jobs = 3_000
    request = Request(OP_SEARCH, Rect(0.1, 0.1, 0.2, 0.2))

    def make_mux():
        sim = Simulator()
        mux = ConnectionMux(
            sim, [_StubSession(sim, []) for _ in range(4)], watermark=jobs)
        done = []

        def body():
            for seq in range(jobs):
                mux.offer(TrafficJob(0, seq, seq, "default", request,
                                     sim.now, on_done=done.append))
            mux.close()
            sim.run()
            if len(done) != jobs:
                raise AssertionError("mux basket lost a job")
            return jobs
        return body
    out["basket.traffic.mux_jobs_per_s"] = _best_rate(make_mux)
    return out


# -- obs / workloads ---------------------------------------------------------

def _obs_counters() -> float:
    incs = 60_000

    def make():
        registry = MetricsRegistry()
        counter = Counter("basket.counter")
        registry.adopt("basket.counter", counter)

        def body():
            hits = counter
            for _ in range(incs):
                hits += 1
            if registry.snapshot()["basket.counter"]["value"] != incs:
                raise AssertionError("counter lost increments")
            return incs
        return body
    return _best_rate(make)


def _workload_requests(seed: int) -> float:
    per_client = 1_000

    def make():
        search = make_workload("search", scale_spec="powerlaw",
                               n_requests=per_client)
        hybrid = make_workload("hybrid", scale_spec="powerlaw",
                               n_requests=per_client)
        rngs = RngRegistry(seed)

        def body():
            made = 0
            for client_id in range(4):
                rng = rngs.fork(f"client-{client_id}").stream("workload")
                made += len(search(client_id, rng))
                made += len(hybrid(client_id, rng))
            return made
        return body
    return _best_rate(make)


def run_baskets(seed: int = 0) -> Dict[str, float]:
    """Every basket once; ``{metric name: host rate}``."""
    rng = random.Random(seed)
    items = uniform_dataset(10_000, seed=seed)
    requests = [Request(OP_SEARCH, q) for q in _queries(rng, 250, 0.02)]
    out = {
        "basket.sim.events_per_s": _sim_events(),
        "basket.sim.resource_ops_per_s": _sim_resources(),
        "basket.msg.codec_msgs_per_s": _msg_codec(items),
        "basket.msg.ring_ops_per_s": _msg_ring(),
        "basket.transport.rdma_ops_per_s": _transport_rdma(),
        "basket.server.fm_req_per_s": _session_rate(
            "fast-messaging-event", items, requests),
        "basket.client.offload_cold_per_s": _session_rate(
            "rdma-offloading-multi", items, requests),
        "basket.client.offload_warm_per_s": _session_rate(
            "rdma-offloading-multi", items, requests,
            node_cache=NodeCacheConfig(), warm=True),
        "basket.obs.counter_incs_per_s": _obs_counters(),
        "basket.workloads.requests_per_s": _workload_requests(seed),
    }
    out.update(_rtree(items, rng))
    out.update(_shard(items, rng))
    out.update(_traffic(seed))
    if set(out) != set(BASKET_UNITS):
        raise AssertionError("basket names drifted from BASKET_UNITS")
    return out

