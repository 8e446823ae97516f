"""Integration tests for the KV experiment harness (§VI extensions)."""

import pytest

from repro.client.resilience import BreakerParams, RetryPolicy
from repro.cluster import (
    ExperimentConfig,
    KvExperimentConfig,
    run_experiment,
    run_kv_experiment,
)
from repro.cluster.deployment import Deployment
from repro.cluster.schemes import SCHEMES
from repro.faults.plan import FaultPlan, WorkerCrash, WriteStorm

SMALL = dict(n_clients=4, requests_per_client=40, n_keys=3000,
             server_cores=4, heartbeat_interval=0.2e-3, seed=2)


class TestConfig:
    def test_defaults(self):
        config = KvExperimentConfig()
        assert config.index == "btree"
        assert config.adaptive is not None
        assert config.adaptive.Inv == config.heartbeat_interval

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(index="skiplist")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(scheme="quic")

    def test_cuckoo_rejects_scans(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(index="cuckoo", scan_fraction=0.1)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            KvExperimentConfig(get_fraction=0.9, scan_fraction=0.2)

    def test_negative_fraction_rejected(self):
        # The sum (0.3) is in range; each fraction must be too.
        with pytest.raises(ValueError):
            KvExperimentConfig(get_fraction=-0.2, scan_fraction=0.5)
        with pytest.raises(ValueError):
            KvExperimentConfig(get_fraction=0.5, scan_fraction=-0.2)

    def test_tcp_fabric_rejected(self):
        with pytest.raises(ValueError):
            run_kv_experiment(KvExperimentConfig(fabric="eth-1g", **SMALL))


class TestRuns:
    @pytest.mark.parametrize("index", ["btree", "cuckoo"])
    @pytest.mark.parametrize("scheme", [
        "fast-messaging", "rdma-offloading", "catfish", "catfish-bandit",
    ])
    def test_every_combination_completes(self, index, scheme):
        result = run_kv_experiment(KvExperimentConfig(
            index=index, scheme=scheme, **SMALL))
        assert result.total_requests == 4 * 40
        assert result.throughput_kops > 0
        assert result.scheme == f"{index}:{scheme}"

    def test_btree_scans_in_mix(self):
        result = run_kv_experiment(KvExperimentConfig(
            index="btree", scheme="catfish",
            get_fraction=0.6, scan_fraction=0.3, **SMALL))
        assert result.total_requests == 160

    def test_offloading_zero_cpu_with_pure_gets(self):
        result = run_kv_experiment(KvExperimentConfig(
            index="cuckoo", scheme="rdma-offloading",
            get_fraction=1.0, **SMALL))
        assert result.server_cpu_utilization == 0.0
        assert result.offload_fraction == 1.0

    def test_catfish_offloads_under_kv_saturation(self):
        config = KvExperimentConfig(
            index="btree", scheme="catfish",
            n_clients=16, requests_per_client=150, n_keys=4000,
            server_cores=1, heartbeat_interval=0.2e-3, seed=3,
        )
        result = run_kv_experiment(config)
        assert result.offload_fraction > 0.05
        assert result.heartbeats_sent > 0

    def test_reproducible(self):
        a = run_kv_experiment(KvExperimentConfig(scheme="catfish", **SMALL))
        b = run_kv_experiment(KvExperimentConfig(scheme="catfish", **SMALL))
        assert a.mean_latency_us == b.mean_latency_us

    def test_zipf_skew_changes_results(self):
        flat = run_kv_experiment(KvExperimentConfig(zipf_s=0.0, **SMALL))
        skew = run_kv_experiment(KvExperimentConfig(zipf_s=1.2, **SMALL))
        # both complete; different key streams -> different latencies
        assert flat.total_requests == skew.total_requests
        assert flat.mean_latency_us != skew.mean_latency_us


class TestSharedAssembler:
    """What a KV run gets from going through the one ``Deployment``."""

    @pytest.mark.parametrize("scheme", ["catfish", "catfish-bandit"])
    def test_metrics_names_match_the_rtree_run(self, scheme):
        def names(document):
            return {name for name in document["metrics"]
                    if name.startswith(("client.", "adaptive.", "bandit."))}

        rtree = run_experiment(ExperimentConfig(
            scheme=scheme, n_clients=2, requests_per_client=5,
            dataset_size=500, server_cores=2))
        for index in ("btree", "cuckoo"):
            kv = run_kv_experiment(KvExperimentConfig(
                index=index, scheme=scheme, **SMALL))
            assert names(kv.metrics) == names(rtree.metrics)
            assert any(name.startswith("offload.")
                       for name in kv.metrics["metrics"])
            policy = "bandit." if scheme == "catfish-bandit" else "adaptive."
            assert any(name.startswith(policy) for name in names(kv.metrics))

    def test_served_ops_are_reported(self):
        result = run_kv_experiment(KvExperimentConfig(
            index="btree", scheme="fast-messaging",
            get_fraction=0.5, scan_fraction=0.2, **SMALL))
        assert result.searches_served_by_server > 0
        assert result.inserts_served > 0
        assert (result.searches_served_by_server + result.inserts_served
                == result.total_requests)

    @pytest.mark.parametrize("index", ["btree", "cuckoo"])
    def test_retry_breaker_and_faults_reach_kv_sessions(self, index):
        # A crashed worker swallows one client's request: with a retry
        # budget the (idempotent) GET is re-sent and the run completes.
        result = run_kv_experiment(
            KvExperimentConfig(index=index, scheme="catfish",
                               get_fraction=1.0, **SMALL),
            retry=RetryPolicy(deadline_s=60e-6, max_attempts=8),
            breaker=BreakerParams(),
            fault_plan=FaultPlan((WorkerCrash(40e-6, 200e-6,
                                              conn_ids=(0,)),)),
        )
        metrics = result.metrics["metrics"]
        assert result.total_requests == 4 * 40
        assert metrics["faults.workers_crashed"]["value"] == 1
        assert metrics["client.request_timeouts"]["value"] >= 1
        assert metrics["client.request_retries"]["value"] >= 1

    def test_trace_option_records_policy_spans(self):
        result = run_kv_experiment(
            KvExperimentConfig(index="cuckoo", scheme="catfish", **SMALL),
            trace=True)
        components = {event["component"]
                      for event in result.metrics["trace"]["events"]}
        assert "adaptive" in components

    def test_routed_kv_deployment_is_rejected(self):
        import dataclasses
        spec = dataclasses.replace(SCHEMES["catfish"], index="btree")
        with pytest.raises(ValueError, match="R-tree only"):
            Deployment(ExperimentConfig(n_shards=2), routed=True, spec=spec)
        with pytest.raises(ValueError, match="R-tree only"):
            run_kv_experiment(KvExperimentConfig(**SMALL), n_shards=2)

    def test_write_storm_needs_a_tree_root(self):
        storm = FaultPlan((WriteStorm(40e-6, 200e-6, hold_s=50e-6),))
        result = run_kv_experiment(
            KvExperimentConfig(index="btree", scheme="rdma-offloading",
                               get_fraction=1.0, **SMALL),
            fault_plan=storm)
        assert result.torn_retries > 0
        with pytest.raises(ValueError, match="no root"):
            run_kv_experiment(
                KvExperimentConfig(index="cuckoo", **SMALL),
                fault_plan=storm)
