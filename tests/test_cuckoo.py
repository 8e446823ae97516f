"""Cuckoo hash table correctness + its Catfish framework integration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree import KvFmSession, KvRequest, OP_GET, OP_PUT
from repro.client import AdaptiveParams, ClientStats
from repro.cuckoo import (
    CuckooFullError,
    CuckooHashTable,
    CuckooOffloadEngine,
    CuckooService,
)
from repro.hw import Host
from repro.msg import Heartbeat
from repro.net import IB_100G, Network
from repro.runtime import Algorithm1Policy, PolicySession
from repro.server import EVENT, FastMessagingServer
from repro.server.plan import execute_plan
from repro.sim import Simulator
from repro.transport import connect

from .kv_invariants import validate_cuckoo


class TestTable:
    def test_put_get(self):
        table = CuckooHashTable(64)
        table.put(1, 10)
        assert table.get(1).items == [(1, 10)]
        assert table.get(2).items == []

    def test_overwrite(self):
        table = CuckooHashTable(64)
        table.put(1, 10)
        table.put(1, 20)
        assert table.size == 1
        assert table.get(1).items == [(1, 20)]

    def test_validation_args(self):
        with pytest.raises(ValueError):
            CuckooHashTable(1)
        with pytest.raises(ValueError):
            CuckooHashTable(8, slots_per_bucket=0)

    def test_candidates_deterministic(self):
        a = CuckooHashTable(128, seed=5)
        b = CuckooHashTable(128, seed=5)
        for key in range(100):
            assert a.bucket_indices(key) == b.bucket_indices(key)
        c = CuckooHashTable(128, seed=6)
        assert any(
            a.bucket_indices(k) != c.bucket_indices(k) for k in range(100)
        )

    def test_fill_to_high_load(self):
        table = CuckooHashTable(256, slots_per_bucket=4, seed=1)
        n = int(table.capacity * 0.9)
        for k in range(n):
            table.put(k, k)
        validate_cuckoo(table)
        assert table.load_factor == pytest.approx(0.9, abs=0.01)
        for k in random.Random(2).sample(range(n), 100):
            assert table.get(k).items == [(k, k)]

    def test_kicks_happen_under_load(self):
        table = CuckooHashTable(128, slots_per_bucket=4, seed=3)
        for k in range(int(table.capacity * 0.85)):
            table.put(k, k)
        assert table.total_kicks > 0

    def test_full_table_raises(self):
        table = CuckooHashTable(4, slots_per_bucket=1, seed=4, max_kicks=50)
        inserted = 0
        with pytest.raises(CuckooFullError):
            for k in range(100):
                table.put(k, k)
                inserted += 1
        assert inserted >= 2  # some fit before the failure

    def test_mutated_buckets_reported(self):
        table = CuckooHashTable(64)
        result = table.put(7, 7)
        assert len(result.mutated_nodes) == 1
        h1, h2 = table.bucket_indices(7)
        assert result.mutated_nodes[0].chunk_id in (h1, h2)

    def test_churn_against_oracle(self):
        table = CuckooHashTable(512, seed=6)
        oracle = {}
        rng = random.Random(7)
        for step in range(3000):
            key = rng.randrange(1200)
            if rng.random() < 0.6:
                # Overwrites a held key or inserts a new one.
                table.put(key, step)
                oracle[key] = step
            else:
                expected = ([(key, oracle[key])]
                            if key in oracle else [])
                assert table.get(key).items == expected
        validate_cuckoo(table)
        assert table.size == len(oracle)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 10**9), max_size=150))
    def test_hypothesis_oracle(self, keys):
        table = CuckooHashTable(256, seed=8)
        oracle = {}
        for k in keys:
            table.put(k, k ^ 0xFF)
            oracle[k] = k ^ 0xFF
        validate_cuckoo(table)
        for k in oracle:
            assert table.get(k).items == [(k, oracle[k])]


def make_cuckoo(n=2000, cores=4, n_buckets=2048, seed=2):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=cores)
    net.attach_server(server_host)
    rng = random.Random(seed)
    keys = rng.sample(range(10**6), n)
    items = [(k, k + 1) for k in keys]
    service = CuckooService(sim, server_host, items, n_buckets=n_buckets,
                            seed=seed)
    fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = KvFmSession(sim, conn, 0, stats)
    engine = CuckooOffloadEngine(
        sim, conn.client_end, service.offload_descriptor(), service.costs, stats
    )
    return sim, server_host, service, fm, engine, stats, keys


class TestService:
    def test_fm_get_round_trip(self):
        sim, sh, service, fm, engine, stats, keys = make_cuckoo()
        k = keys[0]

        def client():
            items = yield from fm.execute(KvRequest(OP_GET, key=k))
            return items

        p = sim.process(client())
        sim.run()
        assert p.value == [(k, k + 1)]
        assert service.gets_served == 1

    def test_fm_put_round_trip(self):
        sim, sh, service, fm, engine, stats, keys = make_cuckoo()

        def client():
            yield from fm.execute(KvRequest(OP_PUT, key=99, value=1))
            got = yield from fm.execute(KvRequest(OP_GET, key=99))
            yield from fm.execute(KvRequest(OP_PUT, key=99, value=2))
            overwritten = yield from fm.execute(KvRequest(OP_GET, key=99))
            return got, overwritten

        p = sim.process(client())
        sim.run()
        got, overwritten = p.value
        assert got == [(99, 1)]
        assert overwritten == [(99, 2)]
        assert service.puts_served == 2
        assert service.items_held() == len(keys) + 1

    def test_offload_get_correct(self):
        sim, sh, service, fm, engine, stats, keys = make_cuckoo()
        sample = random.Random(3).sample(keys, 30)

        def client():
            out = []
            for k in sample:
                items = yield from engine.get(k)
                out.append(items)
            missing = yield from engine.get(10**9 + 7)
            out.append(missing)
            return out

        p = sim.process(client())
        sim.run()
        for k, items in zip(sample, p.value):
            assert items == [(k, k + 1)]
        assert p.value[-1] == []

    def test_offload_zero_server_cpu(self):
        sim, sh, service, fm, engine, stats, keys = make_cuckoo()

        def client():
            for k in keys[:50]:
                yield from engine.get(k)

        sim.process(client())
        sim.run()
        assert sh.cpu.total_work_seconds == 0.0
        assert service.chunk_reads.reads >= 50

    def test_offload_is_single_round_trip(self):
        """Both bucket reads overlap: latency ~= one read RTT."""
        sim, sh, service, fm, engine, stats, keys = make_cuckoo()

        def client():
            t0 = sim.now
            yield from engine.get(keys[0])
            return sim.now - t0

        p = sim.process(client())
        sim.run()
        # one read RTT ~3 us + check; two sequential would be > 6 us
        assert p.value < 6e-6

    def test_torn_retry_under_concurrent_kicks(self):
        # Small, highly loaded table: displacement walks touch many
        # buckets, so write windows cover a real fraction of the table.
        sim, sh, service, fm, engine, stats, keys = make_cuckoo(
            n=850, n_buckets=256  # ~83% load
        )
        rng = random.Random(11)

        def writer():
            for i in range(120):
                yield from execute_plan(service,
                                        service.plan_put(10**7 + i, i))

        def reader():
            for _ in range(800):
                yield from engine.get(rng.choice(keys))
                yield sim.timeout(rng.uniform(0, 2e-6))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        # kicks touch many buckets; some reads must have collided
        assert stats.torn_retries > 0

    def test_catfish_session_offloads_when_busy(self):
        sim, sh, service, fm, engine, stats, keys = make_cuckoo(cores=2)
        session = PolicySession(
            sim, fm, engine, stats,
            Algorithm1Policy(
                sim, fm.mailbox,
                params=AdaptiveParams(N=8, T=0.9, Inv=0.2e-3),
                rng=random.Random(5),
            ),
        )

        def feeder():
            while sim.now < 20e-3:
                fm.mailbox.deliver(
                    Heartbeat(1.0, seq=fm.mailbox.seq + 1))
                yield sim.timeout(0.2e-3)

        def client():
            for k in keys[:150]:
                yield from session.execute(KvRequest(OP_GET, key=k))
                yield sim.timeout(50e-6)

        sim.process(feeder())
        done = sim.process(client())
        sim.run_until_triggered(done)
        assert stats.offloaded_requests > 0
        assert stats.fast_messaging_requests > 0

    def test_full_put_reports_failure(self):
        sim = Simulator()
        net = Network(sim, IB_100G)
        server_host = Host(sim, "server", IB_100G, cores=2)
        net.attach_server(server_host)
        service = CuckooService(sim, server_host, n_buckets=4,
                                seed=4)
        service.table.max_kicks = 20

        def client():
            failures = 0
            for k in range(60):
                ok = yield from execute_plan(service, service.plan_put(k, k))
                if not ok:
                    failures += 1
            return failures

        p = sim.process(client())
        sim.run()
        assert p.value > 0
        assert service.failed_puts == p.value
