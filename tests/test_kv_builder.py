"""Integration tests for B+tree / cuckoo runs (the §VI extensions).

A KV run is an ``ExperimentConfig`` run with ``index`` set; these tests
drive it through the same ``run_experiment`` as the R-tree.
"""

import pytest

from repro.client.resilience import BreakerParams, RetryPolicy
from repro.cluster import ExperimentConfig, run_experiment
from repro.cluster.builder import build_runner
from repro.cluster.config import KvMix
from repro.cluster.deployment import Deployment
from repro.cluster.schemes import (
    KV_CAPABLE,
    SCHEMES,
    TRANSPORT_RDMA,
    SchemeSpec,
    scheme_spec,
)
from repro.faults.plan import (
    ClientStall,
    FaultPlan,
    ShardLoss,
    WorkerCrash,
    WriteStorm,
)
from repro.shard.deploy import ShardedExperimentRunner
from repro.traffic.config import TrafficConfig

SMALL = dict(n_clients=4, requests_per_client=40, dataset_size=3000,
             server_cores=4, heartbeat_interval=0.2e-3, seed=2)


def run_kv(index="btree", scheme="catfish", **fields):
    return run_experiment(ExperimentConfig(
        index=index, scheme=scheme, **{**SMALL, **fields}))


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig(index="btree")
        assert config.kv == KvMix(get_fraction=0.9, scan_fraction=0.0,
                                  zipf_s=0.99)
        assert config.max_entries == 64
        assert config.adaptive.Inv == config.heartbeat_interval

    def test_unknown_index(self):
        with pytest.raises(ValueError):
            ExperimentConfig(index="skiplist")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build_runner(ExperimentConfig(index="btree", scheme="quic"))

    def test_cuckoo_rejects_scans(self):
        with pytest.raises(ValueError):
            ExperimentConfig(index="cuckoo", kv=KvMix(scan_fraction=0.1))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            KvMix(get_fraction=0.9, scan_fraction=0.2)

    def test_negative_fraction_rejected(self):
        # The sum (0.3) is in range; each fraction must be too.
        with pytest.raises(ValueError):
            KvMix(get_fraction=-0.2, scan_fraction=0.5)
        with pytest.raises(ValueError):
            KvMix(get_fraction=0.5, scan_fraction=-0.2)

    def test_tcp_fabric_rejected(self):
        with pytest.raises(ValueError):
            run_kv(fabric="eth-1g")

    @pytest.mark.parametrize("index", ["btree", "cuckoo"])
    @pytest.mark.parametrize("scheme", KV_CAPABLE)
    def test_kv_spec_is_the_registry_spec_in_event_mode(self, index,
                                                        scheme):
        # Field by field the spec the KV harness used to build by hand.
        assert scheme_spec(scheme, index) == SchemeSpec(
            name=f"{index}:{scheme}", transport=TRANSPORT_RDMA,
            notification="event", offload=SCHEMES[scheme].offload,
            multi_issue=True, heartbeats=True, index=index,
        )


TINY = dict(n_clients=2, requests_per_client=1, dataset_size=60,
            server_cores=2, seed=0)
STORM = FaultPlan((WriteStorm(40e-6, 200e-6, hold_s=50e-6),))

#: Every illegal pair (fields, runner, error) and, with error None,
#: every legal (index, scheme) pair.
LEGALITY = {
    "routed-btree": (dict(index="btree", n_shards=2), build_runner,
                     "R-tree only"),
    "routed-cuckoo-k1": (dict(index="cuckoo", n_shards=1),
                         ShardedExperimentRunner, "R-tree only"),
    "btree-traffic": (
        dict(index="btree", traffic=TrafficConfig(rate=1e4,
                                                  duration_s=1e-4)),
        build_runner, "open-loop"),
    **{f"{index}-{scheme}": (dict(index=index, scheme=scheme),
                             build_runner, "runs under")
       for index in ("btree", "cuckoo")
       for scheme in ("tcp", "catfish-polling", "catfish-sharded")},
    "btree-hybrid": (dict(index="btree", workload_kind="hybrid"),
                     build_runner, "draws rectangles"),
    "cuckoo-write-storm": (dict(index="cuckoo", fault_plan=STORM),
                           build_runner, "no root"),
    **{f"tcp-{type(fault).__name__}": (
        dict(scheme="tcp", fault_plan=FaultPlan((fault,))),
        build_runner, "crash fast-messaging workers")
       for fault in (WorkerCrash(40e-6, 200e-6), ShardLoss(40e-6, 200e-6))},
    "traffic-client-stall": (
        dict(traffic=TrafficConfig(rate=1e4, duration_s=1e-4),
             fault_plan=FaultPlan((ClientStall(0.0, 1e-4),))),
        build_runner, "open-loop arrivals"),
    "cuckoo-scans": (dict(index="cuckoo", kv=KvMix(scan_fraction=0.1)),
                     build_runner, "no range scans"),
    "cuckoo-byte-mode": (dict(index="cuckoo", byte_mode=True,
                              scheme="rdma-offloading"),
                         build_runner, "no byte image"),
    **{f"legal-{index}-{scheme}": (dict(index=index, scheme=scheme),
                                   build_runner, None)
       for index in ("btree", "cuckoo") for scheme in KV_CAPABLE},
    **{f"legal-rtree-{scheme}": (
        dict(scheme=scheme, fabric=("eth-1g" if spec.transport == "tcp"
                                    else "ib-100g")),
        build_runner, None)
       for scheme, spec in SCHEMES.items()},
}


@pytest.mark.parametrize("fields,runner,error", LEGALITY.values(),
                         ids=list(LEGALITY))
def test_legality_table(fields, runner, error):
    def build():
        return runner(ExperimentConfig(**{**TINY, **fields}))

    if error is None:
        assert build().deployment.spec.index == fields.get("index", "rtree")
    else:
        with pytest.raises(ValueError, match=error):
            build()


class TestRuns:
    @pytest.mark.parametrize("index", ["btree", "cuckoo"])
    @pytest.mark.parametrize("scheme", [
        "fast-messaging", "rdma-offloading", "catfish", "catfish-bandit",
    ])
    def test_every_combination_completes(self, index, scheme):
        result = run_kv(index, scheme)
        assert result.total_requests == 4 * 40
        assert result.throughput_kops > 0
        assert result.scheme == f"{index}:{scheme}"

    def test_btree_scans_in_mix(self):
        result = run_kv("btree", "catfish",
                        kv=KvMix(get_fraction=0.6, scan_fraction=0.3))
        assert result.total_requests == 160

    def test_offloading_zero_cpu_with_pure_gets(self):
        result = run_kv("cuckoo", "rdma-offloading",
                        kv=KvMix(get_fraction=1.0))
        assert result.server_cpu_utilization == 0.0
        assert result.offload_fraction == 1.0

    def test_catfish_offloads_under_kv_saturation(self):
        result = run_experiment(ExperimentConfig(
            index="btree", scheme="catfish",
            n_clients=16, requests_per_client=150, dataset_size=4000,
            server_cores=1, heartbeat_interval=0.2e-3, seed=3,
        ))
        assert result.offload_fraction > 0.05
        assert result.heartbeats_sent > 0

    def test_reproducible(self):
        a = run_kv(scheme="catfish")
        b = run_kv(scheme="catfish")
        assert a.mean_latency_us == b.mean_latency_us

    def test_zipf_skew_changes_results(self):
        flat = run_kv(kv=KvMix(zipf_s=0.0))
        skew = run_kv(kv=KvMix(zipf_s=1.2))
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
            kv = run_kv(index, scheme)
            assert names(kv.metrics) == names(rtree.metrics)
            assert any(name.startswith("offload.")
                       for name in kv.metrics["metrics"])
            policy = "bandit." if scheme == "catfish-bandit" else "adaptive."
            assert any(name.startswith(policy) for name in names(kv.metrics))
            assert kv.metrics["meta"]["scheme"] == f"{index}:{scheme}"
            assert kv.metrics["meta"]["workload"] == "kv"

    def test_served_ops_are_reported(self):
        result = run_kv("btree", "fast-messaging",
                        kv=KvMix(get_fraction=0.5, scan_fraction=0.2))
        assert result.searches_served_by_server > 0
        assert result.inserts_served > 0
        assert (result.searches_served_by_server + result.inserts_served
                == result.total_requests)

    @pytest.mark.parametrize("index", ["btree", "cuckoo"])
    def test_retry_breaker_and_faults_reach_kv_sessions(self, index):
        # A crashed worker swallows one client's request: with a retry
        # budget the (idempotent) GET is re-sent and the run completes.
        result = run_kv(
            index, "catfish", kv=KvMix(get_fraction=1.0),
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
        result = run_kv("cuckoo", "catfish", trace=True)
        components = {event["component"]
                      for event in result.metrics["trace"]["events"]}
        assert "adaptive" in components

    def test_routed_kv_deployment_is_rejected(self):
        with pytest.raises(ValueError, match="R-tree only"):
            Deployment(ExperimentConfig(index="btree", n_shards=2),
                       routed=True)
        with pytest.raises(ValueError, match="R-tree only"):
            run_kv(n_shards=2)

    def test_write_storm_needs_a_tree_root(self):
        result = run_kv("btree", "rdma-offloading",
                        kv=KvMix(get_fraction=1.0), fault_plan=STORM)
        assert result.torn_retries > 0
        with pytest.raises(ValueError, match="no root"):
            run_kv("cuckoo", fault_plan=STORM)
