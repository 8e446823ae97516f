"""Framework generality (paper §VI) — B+tree and cuckoo over Catfish.

Not a paper figure: the paper *claims* the framework generalizes to other
link-based structures; this bench demonstrates it quantitatively.

1. Offload profile per structure (reads per op, one-sided latency).
2. A miniature Fig-10-style comparison for the B+tree: fast messaging vs
   always-offload vs the adaptive client, under a CPU-saturating GET
   storm.
"""

import random

from conftest import print_figure

from repro.btree import BTreeOffloadEngine, BTreeService
from repro.client import ClientStats
from repro.cluster import KvExperimentConfig, run_kv_experiment
from repro.cuckoo import CuckooOffloadEngine, CuckooService
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.server import EVENT, FastMessagingServer
from repro.sim import Simulator


def _offload_profile(structure, n_items=20_000, n_ops=200):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=8)
    net.attach_server(server_host)
    rng = random.Random(1)
    keys = rng.sample(range(10**6), n_items)
    items = [(k, k + 1) for k in keys]

    if structure == "b+tree":
        service = BTreeService(sim, server_host, items)
        fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
        conn = fm_server.open_connection(Host(sim, "c", IB_100G, cores=2))
        stats = ClientStats()
        engine = BTreeOffloadEngine(sim, conn.client_end,
                                    service.offload_descriptor(),
                                    service.costs, stats)
        reads = lambda: engine.chunks_fetched + engine.meta_reads
    else:
        service = CuckooService(sim, server_host, items, n_buckets=16_384)
        fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
        conn = fm_server.open_connection(Host(sim, "c", IB_100G, cores=2))
        stats = ClientStats()
        engine = CuckooOffloadEngine(sim, conn.client_end,
                                     service.offload_descriptor(),
                                     service.costs, stats)
        reads = lambda: engine.buckets_fetched

    def client():
        t0 = sim.now
        for _ in range(n_ops):
            yield from engine.get(rng.choice(keys))
        return (sim.now - t0) / n_ops

    p = sim.process(client())
    sim.run_until_triggered(p)
    return {
        "latency_us": p.value * 1e6,
        "reads_per_op": reads() / n_ops,
        "server_cpu": server_host.cpu.total_work_seconds,
    }


def test_offload_profiles(benchmark):
    def run():
        return {s: _offload_profile(s) for s in ("b+tree", "cuckoo")}

    profiles = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name,
         f"{p['latency_us']:.2f}",
         f"{p['reads_per_op']:.2f}",
         f"{p['server_cpu']:.6f}"]
        for name, p in profiles.items()
    ]
    print_figure(
        "Ext  one-sided access profile per structure (1 client)",
        ["structure", "mean_us", "reads/op", "server_cpu_s"],
        rows,
    )
    # Cuckoo is a single round trip: 2 reads, well under the tree latency.
    assert profiles["cuckoo"]["reads_per_op"] == 2.0
    assert profiles["cuckoo"]["latency_us"] < profiles["b+tree"]["latency_us"]
    # Offloading never touches the server CPU, whatever the structure.
    assert all(p["server_cpu"] == 0.0 for p in profiles.values())


def _btree_cluster(scheme, n_clients=24, n_ops=120, n_items=20_000):
    result = run_kv_experiment(KvExperimentConfig(
        index="btree", scheme=scheme, get_fraction=1.0, zipf_s=0.0,
        n_clients=n_clients, requests_per_client=n_ops, n_keys=n_items,
        server_cores=4, heartbeat_interval=0.2e-3, seed=2,
    ))
    return {"kops": result.throughput_kops,
            "mean_us": result.mean_latency_us,
            "offload": result.offload_fraction}


def test_btree_catfish_beats_baselines(benchmark):
    def run():
        return {s: _btree_cluster(s)
                for s in ("fast-messaging", "rdma-offloading", "catfish")}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, f"{r['kops']:.1f}", f"{r['mean_us']:.1f}",
         f"{r['offload'] * 100:.1f}%"]
        for name, r in results.items()
    ]
    print_figure(
        "Ext  B+tree GETs, 24 clients on a 4-core server",
        ["scheme", "kops", "mean_us", "offload"],
        rows,
    )
    assert results["catfish"]["kops"] > results["fast-messaging"]["kops"]
    assert 0.0 < results["catfish"]["offload"] < 1.0
