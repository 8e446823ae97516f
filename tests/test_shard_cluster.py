"""End-to-end tests of the sharded cluster: oracle equivalence,
deterministic replay, per-shard RNG streams, and the shard-loss
scenario wiring."""

import dataclasses

import pytest

from repro.chaos import SCENARIOS, ChaosConfig, run_scenario
from repro.client.base import (
    OP_DELETE, OP_INSERT, OP_SEARCH, ClientStats, Request,
)
from repro.cluster.builder import run_experiment
from repro.cluster.config import ExperimentConfig, RebalanceConfig
from repro.cluster.deployment import Deployment
from repro.faults.plan import ShardLoss
from repro.hw.host import Host
from repro.rtree.geometry import Rect
from repro.shard.deploy import ShardedExperimentRunner
from repro.shard.verify import verify_routed_results
from repro.sim.rng import RngRegistry


def small_config(**overrides):
    base = dict(
        scheme="catfish-sharded",
        fabric="ib-100g",
        n_clients=3,
        requests_per_client=40,
        workload_kind="mixed",
        scale="0.02",
        dataset_size=1500,
        server_cores=2,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestOracleEquivalence:
    def test_merged_results_match_single_server_oracle(self):
        runner = ShardedExperimentRunner(small_config(),
                                         record_results=True)
        result = runner.run()
        assert result.extra["n_shards"] == 4
        summary = verify_routed_results(runner)
        assert summary.checked == 120
        assert summary.ok, vars(summary)
        assert summary.degraded_results == 0

    def test_oracle_holds_across_shard_counts(self):
        for n_shards in (1, 2, 5):
            runner = ShardedExperimentRunner(
                small_config(n_shards=n_shards), record_results=True,
            )
            runner.run()
            summary = verify_routed_results(runner)
            assert summary.ok, (n_shards, vars(summary))

    def test_search_workload_also_verifies(self):
        runner = ShardedExperimentRunner(
            small_config(workload_kind="search"), record_results=True,
        )
        runner.run()
        summary = verify_routed_results(runner)
        assert summary.ok
        assert summary.skipped_writes == 0


class TestDispatchAndConfig:
    def test_run_experiment_dispatches_on_scheme_shards(self):
        result = run_experiment(small_config())
        assert result.extra["n_shards"] == 4

    def test_n_shards_overrides_scheme_default(self):
        runner = ShardedExperimentRunner(small_config(n_shards=2))
        assert runner.n_shards == 2

    def test_single_server_scheme_stays_unsharded(self):
        result = run_experiment(small_config(scheme="catfish"))
        assert "n_shards" not in result.extra

    def test_rejects_tcp_scheme(self):
        with pytest.raises(ValueError):
            ShardedExperimentRunner(small_config(scheme="tcp"))

    def test_rejects_non_rdma_fabric(self):
        with pytest.raises(ValueError):
            ShardedExperimentRunner(small_config(fabric="eth-1g"))

    def test_config_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            small_config(n_shards=0)


class TestClusterWideMetrics:
    """A routed document carries the single-server names too, each the
    sum of its per-shard values."""

    NAMES = (
        "server.requests_handled", "server.requests_shed",
        "server.workers_crashed", "server.workers_restarted",
        "server.items_held",
        "heartbeat.beats_sent", "heartbeat.beats_dropped",
        "heartbeat.beats_suppressed",
    )

    def test_routed_aggregates_sum_the_shards(self):
        shape = dict(scheme="catfish", heartbeat_interval=0.05e-3)
        plain = run_experiment(small_config(**shape)).metrics["metrics"]
        routed = run_experiment(
            small_config(n_shards=2, **shape)).metrics["metrics"]
        for name in self.NAMES:
            assert name in plain, name
            per_shard = [routed[f"shard{k}.{name}"]["value"]
                         for k in range(2)]
            assert routed[name]["value"] == sum(per_shard), name
        assert routed["server.requests_handled"]["value"] > 0
        assert routed["heartbeat.beats_sent"]["value"] > 0
        assert (routed["server.items_held"]["value"]
                == plain["server.items_held"]["value"])


class TestRoutedDeletes:
    """A routed delete reports the server's ack, and only a delete that
    found its item shrinks the shard map's count."""

    def _delete_twice(self, **overrides):
        # Five deletes, then the first one again (it finds nothing).
        deployment = Deployment(small_config(dataset_size=2000, **overrides),
                                routed=True)
        host = Host(deployment.sim, "client", deployment.profile, cores=2)
        router = deployment.endpoint(0, host, ClientStats(), "c")
        deployment.start()
        victims = deployment.dataset[:5] + deployment.dataset[:1]
        acks = []

        def client():
            for rect, data_id in victims:
                result = yield from router.execute(
                    Request(OP_DELETE, rect, data_id=data_id))
                assert result.complete
                acks.append(result.results)

        deployment.sim.run_until_triggered(
            deployment.sim.process(client()))
        held = [stack.items_held() for stack in deployment.stacks]
        return acks, router.shard_map.counts(), held

    def test_static_plane_counts_only_found_deletes(self):
        acks, counts, held = self._delete_twice()
        assert acks == [True] * 5 + [False]
        assert sum(held) == 1995
        assert counts == held

    def test_elastic_plane_counts_every_found_delete(self):
        # A first cycle past the run keeps the controller from revising
        # the map while the deletes are routed.
        acks, counts, held = self._delete_twice(
            rebalance=RebalanceConfig(interval=1.0))
        assert acks == [True] * 5 + [False]
        assert sum(held) == 1995
        assert counts == held


class TestOneMapPerDeployment:
    def test_an_insert_through_one_router_is_read_through_another(self):
        """Every router of a deployment shares one map: an insert acked
        through client A that overhangs its shard's partition-time cover
        is found by client B's probe over the overhang."""
        deployment = Deployment(small_config(dataset_size=2000),
                                routed=True)
        host = Host(deployment.sim, "client", deployment.profile, cores=2)
        a = deployment.endpoint(0, host, ClientStats(), "a")
        b = deployment.endpoint(1, host, ClientStats(), "b")
        deployment.start()
        item = Rect(0.4910, 0.2, 0.4912, 0.2002)
        probe = Rect(0.49110, 0.2, 0.49115, 0.2001)
        found = []

        def client():
            result = yield from a.execute(
                Request(OP_INSERT, item, data_id=10**7))
            assert result.results is True
            result = yield from b.execute(Request(OP_SEARCH, probe))
            found.extend(data_id for _rect, data_id in result.results)

        deployment.sim.run_until_triggered(
            deployment.sim.process(client()))
        assert found == [10**7]
        # Ownership never changes on the static plane: nothing refused.
        assert [s.server.writes_refused for s in deployment.stacks] == [
            0, 0, 0, 0]


class TestDeterminism:
    def test_same_seed_same_run(self):
        a = ShardedExperimentRunner(small_config(), record_results=True)
        ra = a.run()
        b = ShardedExperimentRunner(small_config(), record_results=True)
        rb = b.run()
        assert ra.elapsed_s == rb.elapsed_s
        assert ra.throughput_kops == rb.throughput_kops
        log_a = [(i, req.op, t) for router in a.routers
                 for i, req, _res, t in router.log]
        log_b = [(i, req.op, t) for router in b.routers
                 for i, req, _res, t in router.log]
        assert log_a == log_b

    def test_different_seed_different_run(self):
        ra = ShardedExperimentRunner(small_config(seed=1)).run()
        rb = ShardedExperimentRunner(small_config(seed=2)).run()
        assert ra.elapsed_s != rb.elapsed_s


class TestPerShardRng:
    def test_stream_depends_on_seed_and_shard_only(self):
        draws = [RngRegistry(5).shard(2).stream("scheduler").random()
                 for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]

    def test_independent_of_shard_count(self):
        """Growing the cluster must not perturb existing shards' streams."""
        small = RngRegistry(7)
        wide = RngRegistry(7)
        for shard_id in range(8):  # touch 8 shards on the wide registry
            wide.shard(shard_id)
        for shard_id in range(4):
            a = small.shard(shard_id).stream("scheduler")
            b = wide.shard(shard_id).stream("scheduler")
            assert [a.random() for _ in range(5)] == \
                   [b.random() for _ in range(5)]

    def test_distinct_shards_distinct_streams(self):
        reg = RngRegistry(3)
        a = reg.shard(0).stream("scheduler").random()
        b = reg.shard(1).stream("scheduler").random()
        assert a != b

    def test_rejects_negative_shard_id(self):
        with pytest.raises(ValueError):
            RngRegistry(0).shard(-1)


class TestShardLossScenario:
    def test_is_an_ordinary_row_with_a_four_shard_config(self):
        row = SCENARIOS["shard-loss"]
        assert "shard" in row.summary
        # Same fields as every other row; what makes it sharded is the
        # ExperimentConfig it asks for, not a runner of its own.
        assert dataclasses.fields(row) == dataclasses.fields(
            SCENARIOS["link-loss"])
        config = row.config(ChaosConfig())
        assert config.n_shards == 4
        assert config.fault_plan.of_type(ShardLoss)

    @pytest.mark.chaos
    def test_default_size_run_is_green(self):
        report = run_scenario("shard-loss")
        assert report.ok, report.failures
        assert report.counters["shards-lost"] >= 1
        assert report.counters["partial-results"] >= 1

    @pytest.mark.chaos
    def test_fingerprint_replays(self):
        a = run_scenario("shard-loss", seed=0)
        b = run_scenario("shard-loss", seed=0)
        assert a.fingerprint() == b.fingerprint()
