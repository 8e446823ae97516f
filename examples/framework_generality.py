#!/usr/bin/env python3
"""Catfish as a framework (paper §VI): R-tree, B+tree and cuckoo hashing.

"Catfish is a framework for accessing link-based data structures over
RDMA, such as B+tree and Cuckoo hashing, and R-tree."  This example runs
all three behind the *same* ring buffers, verbs layer and client session
(one ``PolicySession``; each index brings only its wire codec and its
offload engine), and contrasts their offloading profiles:

* R-tree search   — a few RTTs, wide fan-out (multi-issue shines);
* B+tree get      — height RTTs down one path; scans go level-wise;
* cuckoo get      — exactly one RTT (both candidate buckets in parallel).
"""

import random

from repro.btree import (
    BTreeOffloadEngine,
    BTreeService,
    KvFmSession,
    KvRequest,
    OP_GET,
)
from repro.client import ClientStats, FmSession, OffloadEngine, Request
from repro.cuckoo import CuckooOffloadEngine, CuckooService
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.runtime import AlwaysOffloadPolicy, PolicySession
from repro.server import EVENT, FastMessagingServer, RTreeServer
from repro.sim import Simulator
from repro.workloads import uniform_dataset


def run_structure(name):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=8)
    net.attach_server(server_host)
    rng = random.Random(1)
    keys = rng.sample(range(10**6), 20_000)

    if name == "r-tree":
        service = RTreeServer(sim, server_host,
                              uniform_dataset(20_000, seed=1))
    elif name == "b+tree":
        service = BTreeService(sim, server_host,
                               [(k, k + 1) for k in keys])
    else:
        service = CuckooService(sim, server_host,
                                [(k, k + 1) for k in keys],
                                n_buckets=16_384)

    fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()

    if name == "r-tree":
        fm = FmSession(sim, conn, 0, stats)
        engine = OffloadEngine(sim, conn.client_end,
                               service.offload_descriptor(),
                               service.costs, stats)

        def next_request():
            x = rng.random() * 0.99
            return Request("search", Rect(x, x, min(x + 0.002, 1.0),
                                          min(x + 0.002, 1.0)))
        reads_done = lambda: engine.chunks_fetched + engine.meta_reads
    elif name == "b+tree":
        fm = KvFmSession(sim, conn, 0, stats)
        engine = BTreeOffloadEngine(sim, conn.client_end,
                                    service.offload_descriptor(),
                                    service.costs, stats)
        next_request = lambda: KvRequest(OP_GET, key=rng.choice(keys))
        reads_done = lambda: engine.chunks_fetched + engine.meta_reads
    else:
        fm = KvFmSession(sim, conn, 0, stats)
        engine = CuckooOffloadEngine(sim, conn.client_end,
                                     service.offload_descriptor(),
                                     service.costs, stats)
        next_request = lambda: KvRequest(OP_GET, key=rng.choice(keys))
        reads_done = lambda: engine.buckets_fetched

    # The same session class for all three: only fm and engine differ.
    session = PolicySession(sim, fm, engine, stats, AlwaysOffloadPolicy())
    n_ops = 300

    def client():
        t0 = sim.now
        for _ in range(n_ops):
            yield from session.execute(next_request())
        return (sim.now - t0) / n_ops

    p = sim.process(client())
    sim.run_until_triggered(p)
    mean_latency_us = p.value * 1e6
    reads_per_op = reads_done() / n_ops
    server_cpu = server_host.cpu.total_work_seconds
    return mean_latency_us, reads_per_op, server_cpu


def main():
    print("One client, 20k items each, all reads offloaded one-sidedly:\n")
    print(f"{'structure':>10} {'mean_us':>9} {'reads/op':>9} "
          f"{'server_cpu_s':>13}")
    for name in ("r-tree", "b+tree", "cuckoo"):
        latency, reads, cpu = run_structure(name)
        print(f"{name:>10} {latency:>9.2f} {reads:>9.2f} {cpu:>13.6f}")
    print("\nSame framework, three structures: the cuckoo GET needs a "
          "single round trip\n(both candidate buckets fetched "
          "concurrently), the trees pay one wave per level —\nand none "
          "of them consume a single server CPU cycle.")


if __name__ == "__main__":
    main()
