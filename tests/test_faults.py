"""Units for the fault plan / injector layer (repro.faults)."""

import random

import pytest

from repro.client import ClientStats
from repro.client.fm_client import FmSession
from repro.cluster import ExperimentConfig
from repro.cluster.builder import build_runner
from repro.faults import (
    ClientStall,
    FaultInjector,
    FaultPlan,
    FaultWindow,
    HeartbeatBlackout,
    LinkFault,
    NicReadStall,
    ShardLoss,
    WorkerCrash,
    WriteStorm,
)
from repro.faults.plan import EMPTY_PLAN, RX, TX
from repro.hw import Host
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.server import EVENT, FastMessagingServer, RTreeServer
from repro.sim import Simulator
from repro.workloads import uniform_dataset


class TestPlan:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            FaultWindow(1.0, 1.0)       # empty
        with pytest.raises(ValueError):
            FaultWindow(2.0, 1.0)       # inverted
        with pytest.raises(ValueError):
            FaultWindow(-0.1, 1.0)      # negative start

    def test_window_active_is_half_open(self):
        w = FaultWindow(1.0, 2.0)
        assert not w.active(0.999)
        assert w.active(1.0)
        assert w.active(1.999)
        assert not w.active(2.0)
        assert w.duration == 1.0

    def test_link_fault_validation(self):
        with pytest.raises(ValueError):
            LinkFault(0.0, 1.0, direction="sideways")
        with pytest.raises(ValueError):
            LinkFault(0.0, 1.0, loss_prob=1.0)  # certain loss never ends
        with pytest.raises(ValueError):
            LinkFault(0.0, 1.0, extra_latency_s=-1e-6)

    def test_other_fault_validation(self):
        with pytest.raises(ValueError):
            NicReadStall(0.0, 1.0, stall_s=0.0)
        with pytest.raises(ValueError):
            WriteStorm(0.0, 1.0, hold_s=0.0)
        with pytest.raises(ValueError):
            ClientStall(0.0, 1.0, stall_s=0.0)

    def test_plan_rejects_non_faults(self):
        with pytest.raises(TypeError):
            FaultPlan((42,))

    def test_plan_introspection(self):
        crash = WorkerCrash(0.5, 1.5)
        loss = LinkFault(0.0, 1.0, loss_prob=0.1)
        plan = FaultPlan((crash, loss))
        assert bool(plan) and len(plan) == 2
        assert plan.of_type(WorkerCrash) == [crash]
        assert plan.of_type(HeartbeatBlackout) == []
        assert plan.horizon == 1.5
        lines = plan.describe()
        assert len(lines) == 2
        assert "LinkFault" in lines[0]      # sorted by start time
        assert "WorkerCrash" in lines[1]

    def test_empty_plan(self):
        assert not EMPTY_PLAN
        assert EMPTY_PLAN.horizon == 0.0


class TestPassiveHooks:
    def test_link_penalty_is_seeded_and_quantized(self):
        plan = FaultPlan((
            LinkFault(0.0, 1.0, loss_prob=0.5, retransmit_delay_s=10e-6),
        ))

        def penalties(seed):
            inj = FaultInjector(Simulator(), plan,
                                rng=random.Random(seed))
            return [inj.link_penalty("tx") for _ in range(200)]

        first = penalties(42)
        assert any(p > 0 for p in first)
        # Every penalty is a whole number of retransmit delays.
        for p in first:
            assert abs(p / 10e-6 - round(p / 10e-6)) < 1e-9
        assert first == penalties(42)
        assert first != penalties(43)

    def test_link_penalty_outside_window_is_free(self):
        plan = FaultPlan((LinkFault(0.5, 1.0, extra_latency_s=5e-6),))
        sim = Simulator()
        inj = FaultInjector(sim, plan)
        assert inj.link_penalty("tx") == 0.0
        sim.now = 0.7
        assert inj.link_penalty("tx") == 5e-6
        sim.now = 1.0
        assert inj.link_penalty("tx") == 0.0

    def test_link_penalty_respects_direction(self):
        plan = FaultPlan((LinkFault(0.0, 1.0, direction=TX,
                                    extra_latency_s=5e-6),))
        inj = FaultInjector(Simulator(), plan)
        assert inj.link_penalty(TX) == 5e-6
        assert inj.link_penalty(RX) == 0.0

    def test_nic_stall_window(self):
        plan = FaultPlan((NicReadStall(0.5, 1.0, stall_s=3e-6),))
        sim = Simulator()
        inj = FaultInjector(sim, plan)
        assert inj.nic_read_stall() == 0.0
        sim.now = 0.7
        assert inj.nic_read_stall() == 3e-6
        assert int(inj.nic_stalls_injected) == 1

    def test_heartbeat_suppression_window(self):
        plan = FaultPlan((HeartbeatBlackout(0.2, 0.4),))
        sim = Simulator()
        inj = FaultInjector(sim, plan)
        assert not inj.heartbeat_suppressed(0)
        sim.now = 0.3
        assert inj.heartbeat_suppressed(0)
        assert inj.heartbeat_suppressed(1)  # a blackout silences every shard
        assert int(inj.beats_blacked_out) == 2
        sim.now = 0.4
        assert not inj.heartbeat_suppressed(0)

    def test_shard_loss_silences_only_its_shards(self):
        plan = FaultPlan((ShardLoss(0.2, 0.4, shard_ids=(1,)),))
        sim = Simulator()
        inj = FaultInjector(sim, plan)
        sim.now = 0.3
        assert inj.heartbeat_suppressed(1)
        assert not inj.heartbeat_suppressed(0)
        assert int(inj.beats_blacked_out) == 1

    def test_client_stall_filters_by_id(self):
        plan = FaultPlan((ClientStall(0.0, 1.0, client_ids=(2,),
                                      stall_s=1e-3),))
        inj = FaultInjector(Simulator(), plan)
        assert inj.client_stall(2) == 1e-3
        assert inj.client_stall(0) == 0.0

    def test_empty_plan_hooks_are_free(self):
        inj = FaultInjector(Simulator(), EMPTY_PLAN)
        assert inj.link_penalty("tx") == 0.0
        assert inj.nic_read_stall() == 0.0
        assert not inj.heartbeat_suppressed(0)
        assert inj.client_stall(0) == 0.0


class TestActiveDrivers:
    def test_start_twice_rejected(self):
        inj = FaultInjector(Simulator(), EMPTY_PLAN)
        inj.start([], list)
        with pytest.raises(RuntimeError):
            inj.start([], list)


def _fm_stack(n_items=500):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=2)
    net.attach_server(server_host)
    server = RTreeServer(sim, server_host, uniform_dataset(n_items, seed=3),
                         max_entries=16)
    fm_server = FastMessagingServer(sim, server, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = FmSession(sim, conn, 0, stats)
    return sim, server, fm_server, conn, fm, stats


class TestWorkerCrashRestart:
    def test_crash_is_idempotent_and_restart_drains(self):
        sim, server, fm_server, conn, fm, stats = _fm_stack()
        fm_server.crash_worker(conn)
        fm_server.crash_worker(conn)  # no double-crash accounting
        assert int(fm_server.workers_crashed) == 1
        assert conn.worker_down

        results = []

        def client():
            matches = yield from fm.search(Rect(0, 0, 1, 1))
            results.append(matches)

        proc = sim.process(client())
        sim.run(until=1e-3)
        assert not results  # the worker is down; the request queues

        fm_server.restart_worker(conn)
        fm_server.restart_worker(conn)  # no-op when already up
        assert int(fm_server.workers_restarted) == 1
        sim.run_until_triggered(proc, limit=1.0)
        assert len(results) == 1
        assert len(results[0]) == 500  # whole-space search

    def test_crash_window_via_injector(self):
        sim, server, fm_server, conn, fm, stats = _fm_stack()
        plan = FaultPlan((WorkerCrash(0.1e-3, 0.4e-3),))
        inj = FaultInjector(sim, plan)
        inj.start([fm_server], list)

        done = []

        def client():
            for _ in range(20):
                yield from fm.search(Rect(0.4, 0.4, 0.6, 0.6))
                done.append(sim.now)

        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)
        assert len(done) == 20
        assert int(fm_server.workers_crashed) == 1
        assert int(fm_server.workers_restarted) == 1
        # Crash delivery is at a request boundary: at most the one
        # request in flight at crash time may complete inside the
        # window; everything else waits for the restart.
        inside = [t for t in done if 0.1e-3 <= t < 0.4e-3]
        assert len(inside) <= 1
        # The outage is visible as a gap spanning the rest of the window.
        last_before = max(t for t in done if t < 0.4e-3)
        first_after = min(t for t in done if t >= 0.4e-3)
        assert first_after - last_before > 0.2e-3


#: One fault per row: (scheme, fault, the injector counter it advances).
#: The NIC stall runs an always-offload scheme so reads reach a server NIC.
_WINDOW = (20e-6, 200e-6)
SHAPE_MATRIX = {
    "WorkerCrash": ("catfish", WorkerCrash(*_WINDOW), "workers_crashed"),
    "ShardLoss": ("catfish", ShardLoss(*_WINDOW), "shards_lost"),
    "NicReadStall": ("rdma-offloading-multi", NicReadStall(*_WINDOW),
                     "nic_stalls_injected"),
    "HeartbeatBlackout": ("catfish", HeartbeatBlackout(*_WINDOW),
                          "beats_blacked_out"),
    "LinkFault": ("catfish", LinkFault(*_WINDOW, extra_latency_s=1e-6),
                  "latency_injections"),
}


@pytest.mark.parametrize("n_shards", [1, 2], ids=["plain", "routed"])
@pytest.mark.parametrize("scheme,fault,counter", SHAPE_MATRIX.values(),
                         ids=list(SHAPE_MATRIX))
def test_every_fault_fires_on_every_shape(scheme, fault, counter, n_shards):
    """A fault names servers by shard, so it means the same thing on a
    plain (K=1) and a routed (K=2) deployment."""
    runner = build_runner(ExperimentConfig(
        scheme=scheme, n_shards=n_shards, n_clients=2,
        requests_per_client=10, dataset_size=200, server_cores=2,
        heartbeat_interval=20e-6, seed=0, fault_plan=FaultPlan((fault,)),
    ))
    assert runner.deployment.n_shards == n_shards
    runner.run()
    injector = runner.injector
    assert int(getattr(injector, counter)) > 0
    assert int(injector.workers_restarted) == int(injector.workers_crashed)
    assert int(injector.shards_restored) == int(injector.shards_lost)


def test_settle_restarts_workers_the_drivers_outlived():
    """Offloading clients never wait on a crashed worker, so a run can
    finish inside a crash window; settling restarts the workers before
    the run reports, and no later than the window's end."""
    end = 5e-3
    runner = build_runner(ExperimentConfig(
        scheme="rdma-offloading", n_clients=2, requests_per_client=10,
        dataset_size=200, server_cores=2, seed=0,
        fault_plan=FaultPlan((WorkerCrash(20e-6, end),)),
    ))
    runner.run()
    injector = runner.injector
    assert runner.elapsed_s < end
    assert int(injector.workers_crashed) > 0
    assert int(injector.workers_restarted) == int(injector.workers_crashed)
    assert injector.open_until() is None
    assert runner.sim.now == end
