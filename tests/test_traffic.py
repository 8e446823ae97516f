"""repro.traffic: arrival determinism, admission control, conservation,
open-loop tail metrics, and the flash-crowd chaos scenario (its
fingerprint is pinned in ``tests/test_runtime_parity.GOLDEN_CHAOS``).

The determinism tests pin the layer's core contract: arrival schedules
are a pure function of (seed, stream names, rate shape) — independent of
tenant mix, shard count, and everything downstream of the generator.
"""

import pytest

from repro.client.node_cache import NodeCacheConfig
from repro.cluster.builder import run_experiment
from repro.cluster.config import ExperimentConfig
from repro.chaos import run_scenario
from repro.faults.plan import BOTH, FaultPlan, LinkFault
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.traffic import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    TokenBucket,
    TrafficConfig,
    aggregate_generator,
)
from repro.traffic.harness import TrafficRunner, rate_sweep, run_traffic
from repro.traffic.mux import (
    ConnectionMux,
    OK,
    SHED_ADMISSION,
    SHED_WATERMARK,
    TrafficJob,
)

ALL_KINDS = ("poisson", "diurnal", "flash-crowd")

def _traffic(**kw) -> TrafficConfig:
    base = dict(
        kind="poisson",
        rate=100_000.0,
        duration_s=1e-3,
        n_aggregates=2,
        users_per_aggregate=64,
        sessions=2,
        queue_watermark=64,
        window=64,
    )
    base.update(kw)
    return TrafficConfig(**base)


def _config(**traffic_kw) -> ExperimentConfig:
    return ExperimentConfig(
        scheme="fast-messaging-event",
        fabric="ib-100g",
        dataset_size=500,
        seed=3,
        traffic=_traffic(**traffic_kw),
    )


class TestArrivalDeterminism:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_seed_identical_schedule(self, kind):
        traffic = _traffic(
            kind=kind,
            tenants=(("gold", 3.0), ("free", 1.0)),
            spike_start=0.2e-3,
            spike_end=0.6e-3,
        )
        schedules = []
        for _ in range(2):
            rngs = RngRegistry(11).fork("aggregate-0")
            gen = aggregate_generator(traffic, rngs)
            schedules.append(gen.schedule(traffic.duration_s))
        assert schedules[0], "empty schedule proves nothing"
        # Timestamps AND tenant interleavings replay exactly.
        assert schedules[0] == schedules[1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_different_seed_different_schedule(self, kind):
        traffic = _traffic(kind=kind)
        a = aggregate_generator(
            traffic, RngRegistry(1).fork("aggregate-0"))
        b = aggregate_generator(
            traffic, RngRegistry(2).fork("aggregate-0"))
        assert (a.schedule(traffic.duration_s)
                != b.schedule(traffic.duration_s))

    def test_tenant_mix_never_perturbs_timestamps(self):
        lone = _traffic()
        mixed = _traffic(tenants=(("gold", 3.0), ("free", 1.0)))
        times = []
        for traffic in (lone, mixed):
            gen = aggregate_generator(
                traffic, RngRegistry(5).fork("aggregate-0"))
            times.append([t for t, _ten in gen.schedule(1e-3)])
        assert times[0] == times[1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shard_count_never_perturbs_arrivals(self, kind):
        """The harness's streams are named off the root seed only, so a
        1-shard and a 4-shard deployment offer bit-identical load."""
        schedules = []
        for n_shards in (None, 4):
            config = _config(kind=kind, spike_start=0.2e-3,
                             spike_end=0.6e-3)
            config.n_shards = n_shards
            runner = TrafficRunner(config)
            schedules.append([
                agg.generator.schedule(config.traffic.duration_s)
                for agg in runner.aggregates
            ])
        assert schedules[0] == schedules[1]

    def test_rate_shapes(self):
        flat = ConstantRate(1000.0)
        assert flat.rate(0.0) == flat.rate(1.0) == flat.peak == 1000.0
        diurnal = DiurnalRate(1000.0, period_s=1.0, amplitude=0.5)
        assert diurnal.rate(0.25) == pytest.approx(1500.0)  # crest
        assert diurnal.rate(0.75) == pytest.approx(500.0)   # trough
        assert diurnal.peak == pytest.approx(1500.0)
        crowd = FlashCrowdRate(1000.0, 0.2, 0.4, multiplier=8.0)
        assert crowd.rate(0.1) == 1000.0
        assert crowd.rate(0.3) == 8000.0
        assert not crowd.in_spike(0.4)  # half-open window
        assert crowd.peak == 8000.0


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(kind="tsunami"),
        dict(rate=0.0),
        dict(duration_s=-1.0),
        dict(n_aggregates=0),
        dict(users_per_aggregate=0),
        dict(tenants=()),
        dict(tenants=(("gold", -1.0),)),
        dict(window=0),
        dict(sessions=0),
        dict(queue_watermark=0),
        dict(admit_rate=0.0),
        dict(kind="diurnal", amplitude=1.5),
        dict(kind="diurnal", period_s=0.0),
        dict(kind="flash-crowd", spike_start=2e-3, spike_end=1e-3),
        dict(kind="flash-crowd", spike_multiplier=0.5),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            _traffic(**bad)

    def test_total_users(self):
        assert _traffic(n_aggregates=3,
                        users_per_aggregate=10).total_users == 30

    def test_traffic_layer_rejects_tcp(self):
        config = _config()
        config.scheme = "tcp"
        with pytest.raises(ValueError):
            TrafficRunner(config)

    def test_rdma_scheme_rejects_non_rdma_fabric(self):
        # The same refusal the closed-loop runners give.
        config = _config()
        config.scheme, config.fabric = "catfish", "eth-1g"
        with pytest.raises(ValueError, match="needs an RDMA fabric"):
            TrafficRunner(config)


class _StuckSession:
    """Never completes: every accepted job parks forever."""

    def __init__(self, sim):
        self.sim = sim

    def execute(self, request):
        yield self.sim.timeout(10.0)


def _job(i=0):
    return TrafficJob(aggregate_id=0, seq=i, user_id=i, tenant="default",
                      request=None, t_arrival=0.0)


class TestAdmission:
    def test_token_bucket_burst_and_refill(self):
        bucket = TokenBucket(rate=1000.0, burst=2)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)          # burst exhausted
        assert bucket.try_take(1e-3)             # 1 token accrued
        assert not bucket.try_take(1e-3)
        assert bucket.try_take(10.0)             # refill caps at burst
        assert bucket.try_take(10.0)
        assert not bucket.try_take(10.0)

    def test_watermark_sheds_excess(self):
        sim = Simulator()
        mux = ConnectionMux(sim, [_StuckSession(sim)], watermark=2)
        outcomes = [mux.offer(_job(i)) for i in range(5)]
        # One job is consumed by the (stuck) dispatcher at t=0; the
        # watermark then bounds the queue at 2 waiting jobs.
        sim.run(until=1e-6)
        outcomes += [mux.offer(_job(5 + i)) for i in range(3)]
        assert mux.shed_watermark > 0
        assert mux.offered == 8
        assert mux.admitted + mux.shed_watermark == 8
        assert outcomes.count(False) == mux.shed_watermark

    def test_token_bucket_sheds_are_labelled(self):
        sim = Simulator()
        mux = ConnectionMux(sim, [_StuckSession(sim)], watermark=100,
                            bucket=TokenBucket(rate=1000.0, burst=1),
                            record=True)
        jobs = [_job(i) for i in range(3)]
        accepted = [mux.offer(j) for j in jobs]
        assert accepted == [True, False, False]
        assert [j.status for j in jobs[1:]] == [SHED_ADMISSION] * 2
        assert mux.shed_admission == 2
        assert len(mux.shed_times) == 2

    def test_shed_times_kept_only_when_recording(self):
        sim = Simulator()
        mux = ConnectionMux(sim, [_StuckSession(sim)], watermark=1)
        assert [mux.offer(_job(i)) for i in range(3)] == [True, False, False]
        assert mux.shed_watermark == 2
        assert mux.shed_times == []

    def test_window_sheds_count_and_never_block(self):
        result = run_traffic(_config(rate=400_000.0, window=1,
                                     sessions=1, queue_watermark=1))
        assert result.shed_window > 0
        # Open loop: arrivals are untouched by the tiny window.
        assert result.arrivals > result.completed


class TestHarness:
    def test_conservation_and_tails(self):
        result = run_traffic(_config(rate=150_000.0))
        assert (result.completed + result.failed
                + result.shed_client_total) == result.arrivals
        assert result.completed > 0
        assert (result.sojourn_p50_us <= result.sojourn_p95_us
                <= result.sojourn_p99_us <= result.sojourn_p999_us)
        # Sub-saturation: achieved tracks offered within tolerance.
        assert result.achieved_rps == pytest.approx(
            result.offered_rps, rel=0.25)

    def test_snapshot_has_open_loop_tag_and_p999(self):
        result = run_traffic(_config(
            tenants=(("gold", 3.0), ("free", 1.0))))
        sojourn = result.metrics["metrics"]["traffic.sojourn_us"]
        assert sojourn["loop"] == "open"
        assert sojourn["p50"] <= sojourn["p999"] <= sojourn["max"]
        assert result.metrics["meta"]["loop"] == "open"
        for tenant in ("gold", "free"):
            view = result.metrics["metrics"][f"traffic.sojourn_us.{tenant}"]
            assert view["loop"] == "open"
        assert set(result.per_tenant) == {"gold", "free"}

    def test_closed_loop_results_are_tagged(self):
        """Satellite: the classic drivers now carry the loop caveat."""
        result = run_experiment(ExperimentConfig(
            scheme="catfish", n_clients=2, requests_per_client=40,
            dataset_size=500, seed=3))
        lat = result.metrics["metrics"]["client.latency_us"]
        assert lat["loop"] == "closed"
        assert lat["p99"] <= lat["p999"] <= lat["max"]
        assert result.p999_latency_us >= result.p99_latency_us

    def test_run_experiment_dispatches_on_traffic(self):
        run = run_experiment(_config())
        assert run.total_requests > 0
        assert run.metrics["meta"]["loop"] == "open"
        assert run.extra["shed_client"] >= 0.0
        assert run.p999_latency_us >= run.p99_latency_us

    def test_rate_sweep_one_deployment_per_rate(self):
        results = rate_sweep(_config(), [50_000.0, 100_000.0])
        assert [r.offered_rps for r in results] == [50_000.0, 100_000.0]
        for result in results:
            assert (result.completed + result.failed
                    + result.shed_client_total) == result.arrivals

    def test_sharded_run_conserves(self):
        config = _config()
        config.n_shards = 4
        result = run_traffic(config)
        assert result.n_shards == 4
        assert (result.completed + result.failed
                + result.shed_client_total) == result.arrivals
        assert result.completed > 0

    def test_user_identity_survives_the_mux(self):
        config = _config()
        runner = TrafficRunner(config, record=True)
        result = runner.run()
        assert result.users_touched > 0
        assert result.users_touched <= result.users_total
        users = config.traffic.users_per_aggregate
        for job in runner.mux.finished_jobs:
            assert 0 <= job.user_id < users
            assert job.status in (OK, "failed")
        finished = {(j.aggregate_id, j.seq)
                    for j in runner.mux.finished_jobs}
        assert len(finished) == len(runner.mux.finished_jobs)


class TestSharedDeployment:
    """The open-loop runner drives the same Deployment the closed-loop
    runners drive, so faults, tracing and the metrics document agree."""

    def test_fault_plan_is_injected(self):
        calm = run_traffic(_config())
        config = _config()
        config.fault_plan = FaultPlan((
            LinkFault(0.0, config.traffic.duration_s, direction=BOTH,
                      loss_prob=0.5, retransmit_delay_s=30e-6),
        ))
        runner = TrafficRunner(config)
        lossy = runner.run()
        assert runner.deployment.injector.packets_dropped > 0
        assert lossy.metrics["metrics"]["faults.packets_dropped"][
            "value"] > 0
        assert lossy.sojourn_p99_us > calm.sojourn_p99_us

    def test_trace_is_collected(self):
        config = _config()
        config.scheme, config.trace = "catfish", True
        result = run_traffic(config)
        assert result.metrics["trace"]["total_events"] > 0

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_metric_names_match_the_closed_loop_document(self, n_shards):
        shape = dict(scheme="catfish", dataset_size=500, seed=3,
                     n_shards=n_shards, node_cache=NodeCacheConfig())
        closed = run_experiment(ExperimentConfig(
            n_clients=2, requests_per_client=5, **shape))
        opened = run_traffic(ExperimentConfig(traffic=_traffic(), **shape))

        def shared(document):
            return {name for name in document["metrics"]
                    if not name.startswith("traffic.")
                    and "latency" not in name}

        names = shared(opened.metrics)
        assert names == shared(closed.metrics)
        for prefix in ("client.", "adaptive.", "offload.", "cache.",
                       "rtree.scan_kernel_numpy"):
            assert any(name.startswith(prefix) for name in names), prefix

    def test_run_result_projection_reports_the_offload_path(self):
        config = _config()
        config.scheme = "rdma-offloading"
        run = run_experiment(config)
        assert run.offload_fraction == 1.0
        assert run.server_bandwidth_gbps > 0.0
        assert 0.0 < run.server_bandwidth_utilization <= 1.0
        assert run.torn_retries == 0 and run.search_restarts == 0


class TestFlashCrowdScenario:
    def test_green_with_every_guard_checked(self):
        report = run_scenario("flash-crowd", seed=0)
        assert report.ok, report.failures
        names = [n for n, _ok, _d in report.invariants]
        assert "fault-fired:client-shed" in names
        assert "fault-fired:server-shed" in names
        assert "shedding-stopped" in names
        assert "throughput-recovered" in names
