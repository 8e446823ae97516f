"""B+tree over the Catfish framework: service, offloading, adaptive."""

import random

import pytest

from repro.btree import (
    BTreeOffloadEngine,
    BTreeService,
    KvFmSession,
    KvRequest,
    OP_GET,
    OP_PUT,
    OP_SCAN,
)
from repro.client import AdaptiveParams, ClientStats
from repro.hw import Host
from repro.msg import Heartbeat
from repro.net import IB_100G, Network
from repro.runtime import (
    Algorithm1Policy,
    AlwaysOffloadPolicy,
    PolicySession,
)
from repro.server import EVENT, FastMessagingServer
from repro.server.plan import execute_plan
from repro.sim import Simulator


def make_kv(n=2000, capacity=16, cores=4, multi_issue=True, seed=1):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=cores)
    net.attach_server(server_host)
    rng = random.Random(seed)
    keys = rng.sample(range(n * 10), n)
    items = [(k, k * 2) for k in keys]
    service = BTreeService(sim, server_host, items, max_entries=capacity)
    fm_server = FastMessagingServer(sim, service, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = KvFmSession(sim, conn, 0, stats)
    engine = BTreeOffloadEngine(
        sim, conn.client_end, service.offload_descriptor(), service.costs,
        stats, multi_issue=multi_issue,
    )
    return sim, server_host, service, fm, engine, stats, sorted(keys)


class TestFastMessagingPath:
    def test_get_round_trip(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()
        k = keys[10]

        def client():
            items = yield from fm.execute(KvRequest(OP_GET, key=k))
            return items

        p = sim.process(client())
        sim.run()
        assert p.value == [(k, k * 2)]
        assert service.gets_served == 1

    def test_put_then_get(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()

        def client():
            yield from fm.execute(KvRequest(OP_PUT, key=999_999, value=7))
            items = yield from fm.execute(KvRequest(OP_GET, key=999_999))
            return items

        p = sim.process(client())
        sim.run()
        assert p.value == [(999_999, 7)]
        assert service.puts_served == 1

    def test_scan_round_trip(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()
        lo, hi = keys[100], keys[200]

        def client():
            items = yield from fm.execute(
                KvRequest(OP_SCAN, lo=lo, hi=hi))
            return items

        p = sim.process(client())
        sim.run()
        expected = [(k, k * 2) for k in keys if lo <= k <= hi]
        assert p.value == expected
        assert service.scans_served == 1


class TestOffloadPath:
    @pytest.mark.parametrize("multi_issue", [False, True])
    def test_offload_get_correct(self, multi_issue):
        sim, sh, service, fm, engine, stats, keys = make_kv(
            multi_issue=multi_issue
        )
        sample = random.Random(3).sample(keys, 20)

        def client():
            out = []
            for k in sample:
                items = yield from engine.get(k)
                out.append(items)
            missing = yield from engine.get(10**9 - 1)
            out.append(missing)
            return out

        p = sim.process(client())
        sim.run()
        for k, items in zip(sample, p.value):
            assert items == [(k, k * 2)]
        assert p.value[-1] == []

    @pytest.mark.parametrize("multi_issue", [False, True])
    def test_offload_scan_correct(self, multi_issue):
        sim, sh, service, fm, engine, stats, keys = make_kv(
            multi_issue=multi_issue
        )
        lo, hi = keys[40], keys[400]

        def client():
            items = yield from engine.scan(lo, hi)
            return items

        p = sim.process(client())
        sim.run()
        expected = [(k, k * 2) for k in keys if lo <= k <= hi]
        assert p.value == expected

    def test_offload_scan_max_results(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()

        def client():
            items = yield from engine.scan(keys[0], keys[-1],
                                           max_results=25)
            return items

        p = sim.process(client())
        sim.run()
        assert len(p.value) == 25
        assert [k for k, _v in p.value] == keys[:25]

    def test_offload_consumes_zero_server_cpu(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()

        def client():
            for k in keys[:30]:
                yield from engine.get(k)
            yield from engine.scan(keys[0], keys[60])

        sim.process(client())
        sim.run()
        assert sh.cpu.total_work_seconds == 0.0

    def test_multi_issue_scan_is_faster(self):
        def timed(multi_issue):
            sim, sh, service, fm, engine, stats, keys = make_kv(
                n=4000, capacity=8, multi_issue=multi_issue
            )
            lo, hi = keys[0], keys[2000]

            def client():
                t0 = sim.now
                yield from engine.scan(lo, hi)
                return sim.now - t0

            p = sim.process(client())
            sim.run()
            return p.value

        assert timed(True) < timed(False) * 0.8

    def test_torn_reads_during_concurrent_puts(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()
        rng = random.Random(9)

        def writer():
            for i in range(600):
                # fresh keys near a hot spot: splits touch several nodes
                yield from execute_plan(
                    service, service.plan_put(keys[50] * 10 + i, i))
                yield sim.timeout(rng.uniform(0, 3e-6))

        def reader():
            for _ in range(300):
                yield from engine.get(keys[50])
                # jitter so the read instants don't phase-lock with the
                # writer's deterministic put period
                yield sim.timeout(rng.uniform(0, 5e-6))

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert stats.torn_retries > 0

    def test_root_split_detected_via_meta(self):
        sim, sh, service, fm, engine, stats, keys = make_kv(
            n=10, capacity=4
        )
        old_height = service.tree.height

        def client():
            first = yield from engine.get(keys[0])
            i = 0
            while service.tree.height == old_height:
                yield from execute_plan(service,
                                        service.plan_put(10**6 + i, i))
                i += 1
            second = yield from engine.get(10**6)
            return first, second

        p = sim.process(client())
        sim.run()
        first, second = p.value
        assert first == [(keys[0], keys[0] * 2)]
        assert second == [(10**6, 0)]


class TestAdaptiveKv:
    def test_catfish_session_offloads_under_load(self):
        sim, sh, service, fm, engine, stats, keys = make_kv(cores=2)
        session = PolicySession(
            sim, fm, engine, stats,
            Algorithm1Policy(
                sim, fm.mailbox,
                params=AdaptiveParams(N=8, T=0.9, Inv=0.2e-3),
                rng=random.Random(5),
            ),
        )

        def feeder():
            # emulate heartbeats reporting a saturated server
            while sim.now < 30e-3:
                fm.mailbox.deliver(
                    Heartbeat(1.0, seq=fm.mailbox.seq + 1))
                yield sim.timeout(0.2e-3)

        def client():
            for k in keys[:200]:
                yield from session.execute(KvRequest(OP_GET, key=k))
                yield sim.timeout(50e-6)

        sim.process(feeder())
        done = sim.process(client())
        sim.run_until_triggered(done)
        assert stats.offloaded_requests > 0
        assert stats.fast_messaging_requests > 0

    def test_puts_never_offloaded(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()
        session = PolicySession(
            sim, fm, engine, stats,
            Algorithm1Policy(
                sim, fm.mailbox,
                params=AdaptiveParams(N=8, T=0.9, Inv=0.2e-3),
            ),
        )
        fm.mailbox.deliver(Heartbeat(1.0, seq=fm.mailbox.seq + 1))

        def client():
            for i in range(10):
                yield from session.execute(
                    KvRequest(OP_PUT, key=10**7 + i, value=i))

        done = sim.process(client())
        sim.run_until_triggered(done)
        assert stats.offloaded_requests == 0
        assert service.puts_served == 10

    def test_offload_session_baseline(self):
        sim, sh, service, fm, engine, stats, keys = make_kv()
        session = PolicySession(sim, fm, engine, stats,
                                AlwaysOffloadPolicy())

        def client():
            items = yield from session.execute(
                KvRequest(OP_GET, key=keys[3]))
            yield from session.execute(
                KvRequest(OP_PUT, key=10**7, value=5))
            return items

        p = sim.process(client())
        sim.run()
        assert p.value == [(keys[3], keys[3] * 2)]
        assert stats.offloaded_requests == 1
        assert service.puts_served == 1


class TestKvRequestValidation:
    def test_bad_op(self):
        with pytest.raises(ValueError):
            KvRequest("mget", key=1)

    def test_get_needs_key(self):
        with pytest.raises(ValueError):
            KvRequest(OP_GET)

    def test_put_needs_value(self):
        with pytest.raises(ValueError):
            KvRequest(OP_PUT, key=1)

    def test_scan_needs_bounds(self):
        with pytest.raises(ValueError):
            KvRequest(OP_SCAN, lo=1)
