"""Integration tests: full experiments across every scheme and fabric."""

import dataclasses
import math

import pytest

from repro import AdaptiveParams, ExperimentConfig, run_experiment
from repro.client.offload_client import OffloadError
from repro.client.resilience import RequestTimeoutError, RetryPolicy
from repro.cluster import SCHEMES, ExperimentRunner, scheme_spec
from repro.faults.plan import FaultPlan, WorkerCrash, WriteStorm

SMALL = dict(n_clients=4, requests_per_client=20, dataset_size=2000,
             max_entries=16, server_cores=4)


def small_config(**overrides):
    params = dict(SMALL)
    params.update(overrides)
    return ExperimentConfig(**params)


class TestSchemes:
    @pytest.mark.parametrize("scheme,fabric", [
        ("tcp", "eth-1g"),
        ("tcp", "eth-40g"),
        ("fast-messaging", "ib-100g"),
        ("fast-messaging-event", "ib-100g"),
        ("rdma-offloading", "ib-100g"),
        ("rdma-offloading-multi", "ib-100g"),
        ("catfish", "ib-100g"),
        ("catfish-polling", "ib-100g"),
        ("catfish-single-issue", "ib-100g"),
    ])
    def test_every_scheme_completes_all_requests(self, scheme, fabric):
        result = run_experiment(small_config(scheme=scheme, fabric=fabric))
        assert result.total_requests == 4 * 20
        assert result.throughput_kops > 0
        assert result.mean_latency_us > 0
        assert result.p99_latency_us >= result.p50_latency_us

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            run_experiment(small_config(scheme="quic"))

    def test_rdma_scheme_on_ethernet_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(scheme="catfish", fabric="eth-1g"))

    def test_scheme_registry_contents(self):
        assert set(SCHEMES) >= {
            "tcp", "fast-messaging", "rdma-offloading", "catfish",
        }
        assert scheme_spec("catfish").multi_issue
        assert not scheme_spec("rdma-offloading").multi_issue


class TestConfigValidation:
    def test_bad_client_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_clients=0)

    def test_bad_request_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(requests_per_client=0)

    def test_bad_workload(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload_kind="scan")

    def test_total_requests(self):
        config = ExperimentConfig(n_clients=3, requests_per_client=7)
        assert config.total_requests == 21


class TestBehaviour:
    def test_offloading_uses_zero_server_cpu_for_searches(self):
        result = run_experiment(small_config(scheme="rdma-offloading",
                                             fabric="ib-100g"))
        assert result.offload_fraction == 1.0
        assert result.searches_served_by_server == 0
        assert result.server_cpu_utilization == 0.0

    def test_fast_messaging_never_offloads(self):
        result = run_experiment(small_config(scheme="fast-messaging",
                                             fabric="ib-100g"))
        assert result.offload_fraction == 0.0
        assert result.searches_served_by_server == 80

    def test_catfish_offloads_under_saturation(self):
        result = run_experiment(small_config(
            scheme="catfish",
            n_clients=24,
            requests_per_client=150,
            dataset_size=4000,
            server_cores=2,  # easy to saturate
            adaptive=AdaptiveParams(N=8, T=0.9, Inv=0.2e-3),
            heartbeat_interval=0.2e-3,
        ))
        assert result.offload_fraction > 0.05
        assert result.heartbeats_sent > 0

    def test_catfish_at_idle_is_no_slower_than_the_faster_arm(self):
        """Below T Algorithm 1 sends every read to fast messaging, but
        on this tree a multi-issue offload is the faster arm at idle:
        the latency guard takes it once a live heartbeat arrives."""
        def idle(scheme):
            return run_experiment(small_config(
                scheme=scheme,
                n_clients=2,
                requests_per_client=60,
                server_cores=8,
                adaptive=AdaptiveParams(N=8, T=0.95, Inv=0.2e-3),
                heartbeat_interval=0.2e-3,
            ))

        catfish = idle("catfish")
        arms = [idle("fast-messaging-event"), idle("rdma-offloading-multi")]
        faster = min(arm.p50_latency_us for arm in arms)
        assert catfish.p50_latency_us <= 1.1 * faster
        assert catfish.server_cpu_utilization < 0.95
        metrics = catfish.metrics["metrics"]
        assert metrics["adaptive.busy_observations"]["value"] == 0
        assert metrics["adaptive.guard_offloads"]["value"] > 0

    def test_hybrid_workload_serves_inserts(self):
        result = run_experiment(small_config(
            scheme="catfish",
            workload_kind="hybrid",
            insert_fraction=0.2,
            requests_per_client=50,
        ))
        assert result.inserts_served > 0
        total = 4 * 50
        assert result.total_requests == total

    def test_hybrid_offloading_sees_torn_reads(self):
        result = run_experiment(small_config(
            scheme="rdma-offloading",
            workload_kind="hybrid",
            insert_fraction=0.4,
            n_clients=12,
            requests_per_client=120,
            dataset_size=1500,
            scale="0.01",
            seed=3,
        ))
        assert result.torn_retries > 0

    def test_reproducibility_same_seed(self):
        a = run_experiment(small_config(scheme="catfish", seed=11))
        b = run_experiment(small_config(scheme="catfish", seed=11))
        assert a.throughput_kops == b.throughput_kops
        assert a.mean_latency_us == b.mean_latency_us

    def test_different_seeds_differ(self):
        a = run_experiment(small_config(scheme="catfish", seed=11))
        b = run_experiment(small_config(scheme="catfish", seed=12))
        assert a.mean_latency_us != b.mean_latency_us

    def test_byte_mode_experiment(self):
        """Full experiment with real packed-bytes offload reads."""
        shared = dict(n_clients=6, requests_per_client=40,
                      dataset_size=2000, max_entries=16, server_cores=4,
                      seed=7)
        plain = run_experiment(ExperimentConfig(
            scheme="rdma-offloading", byte_mode=False, **shared))
        byte = run_experiment(ExperimentConfig(
            scheme="rdma-offloading", byte_mode=True, **shared))
        assert byte.total_requests == plain.total_requests
        # identical timing model: bytes vs snapshots only change fidelity
        assert byte.throughput_kops == pytest.approx(
            plain.throughput_kops, rel=0.05)
        assert byte.server_cpu_utilization == 0.0

    def test_queries_workload(self):
        from repro.workloads import generate_rea02, generate_rea02_queries
        items = generate_rea02(n=3000, subregion_objects=500, seed=2)
        queries = generate_rea02_queries(20, dataset_size=3000, seed=3)
        result = run_experiment(small_config(
            scheme="catfish",
            workload_kind="queries",
            queries=queries,
            dataset=items,
        ))
        assert result.total_requests == 80


class TestResourceShapes:
    """The paper's central observations, reproduced in miniature."""

    def test_tcp_40g_beats_1g_only_when_network_bound(self):
        shared = dict(scheme="tcp", n_clients=16, requests_per_client=30,
                      dataset_size=3000, max_entries=16, server_cores=28)
        cpu_1g = run_experiment(ExperimentConfig(
            fabric="eth-1g", scale="0.00001", **shared))
        cpu_40g = run_experiment(ExperimentConfig(
            fabric="eth-40g", scale="0.00001", **shared))
        # large responses (~67 results each) saturate the 1 GbE link
        net_1g = run_experiment(ExperimentConfig(
            fabric="eth-1g", scale="0.3", **shared))
        net_40g = run_experiment(ExperimentConfig(
            fabric="eth-40g", scale="0.3", **shared))
        # network-bound: upgrading the fabric helps a lot
        net_gain = net_40g.throughput_kops / net_1g.throughput_kops
        # CPU-bound: upgrading helps much less
        cpu_gain = cpu_40g.throughput_kops / cpu_1g.throughput_kops
        assert net_gain > cpu_gain

    def test_offloading_beats_fm_when_cpu_starved(self):
        shared = dict(fabric="ib-100g", n_clients=16,
                      requests_per_client=60, dataset_size=3000,
                      max_entries=16, server_cores=1, scale="0.00001",
                      seed=5)
        fm = run_experiment(ExperimentConfig(scheme="fast-messaging",
                                             **shared))
        offload = run_experiment(ExperimentConfig(scheme="rdma-offloading",
                                                  **shared))
        assert offload.throughput_kops > fm.throughput_kops

    def test_fm_beats_offloading_when_bandwidth_starved(self):
        # Tiny link: node fetches dwarf the response sizes.
        shared = dict(n_clients=8, requests_per_client=40,
                      dataset_size=3000, max_entries=16, server_cores=28,
                      scale="0.01", seed=6)
        from repro.net.fabric import IB_100G, PROFILES
        slow = dataclasses.replace(IB_100G, name="ib-slow",
                                   bandwidth_bps=2e9)
        PROFILES["ib-slow"] = slow
        try:
            fm = run_experiment(ExperimentConfig(
                scheme="fast-messaging-event", fabric="ib-slow", **shared))
            offload = run_experiment(ExperimentConfig(
                scheme="rdma-offloading", fabric="ib-slow", **shared))
        finally:
            del PROFILES["ib-slow"]
        assert fm.throughput_kops > offload.throughput_kops


class TestFailedRequests:
    """A plain closed loop counts a request that exhausted its budget
    and carries on, as the routed and open loops do."""

    def crash_config(self, **overrides):
        # Two attempts of 100us each cannot outlast a 700us outage.
        return small_config(
            scheme="fast-messaging-event", n_clients=2,
            requests_per_client=200, dataset_size=1000, server_cores=2,
            fault_plan=FaultPlan((WorkerCrash(0.2e-3, 0.9e-3),)),
            retry=RetryPolicy(deadline_s=0.1e-3, max_attempts=2,
                              backoff_base_s=20e-6),
            **overrides)

    def test_timed_out_request_is_counted_not_raised(self):
        config = self.crash_config()
        result = run_experiment(config)
        failed = int(result.extra["failed"])
        assert failed > 0
        # Failed requests are not "sent": throughput and the latency
        # recorders describe answered requests only.
        assert result.total_requests + failed == config.total_requests
        assert result.metrics["metrics"]["client.latency_us"]["count"] \
            == result.total_requests

    def test_recorded_log_has_the_routers_shape(self):
        runner = ExperimentRunner(self.crash_config(), record_results=True)
        result = runner.run()
        outcomes = [outcome for log in runner.logs
                    for _i, _request, outcome, _t in log]
        assert len(outcomes) == runner.config.total_requests
        timeouts = [o for o in outcomes
                    if isinstance(o, RequestTimeoutError)]
        assert len(timeouts) == int(result.extra["failed"]) > 0
        for log in runner.logs:
            assert [index for index, *_ in log] == list(range(len(log)))
            assert [t for *_, t in log] == sorted(t for *_, t in log)

    def test_batched_group_fails_as_one(self):
        # No breaker under the fixed offload baseline: an OffloadError
        # propagates out of the session, here out of a whole batch.
        config = small_config(
            scheme="rdma-offloading-multi", n_clients=2,
            requests_per_client=80, dataset_size=1000, batch_queries=4,
            fault_plan=FaultPlan((
                WriteStorm(0.05e-3, 0.2e-3, hold_s=100e-6, gap_s=8e-6),
            )),
            retry=RetryPolicy(offload_read_retries=2,
                              offload_search_restarts=1),
        )
        runner = ExperimentRunner(config, record_results=True)
        result = runner.run()
        failed = int(result.extra["failed"])
        assert 0 < failed < config.total_requests
        assert failed % 4 == 0
        assert result.total_requests + failed == config.total_requests
        errors = [o for log in runner.logs for _i, _r, o, _t in log
                  if isinstance(o, OffloadError)]
        assert len(errors) == failed

    def test_fault_free_run_reports_no_failures(self):
        assert run_experiment(small_config()).extra == {"failed": 0.0}
