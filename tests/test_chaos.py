"""The chaos harness: scenario invariants and deterministic replay.

The fast subset here runs a reduced load; the full default-sized sweep is
``@pytest.mark.chaos`` (excluded from tier-1, run via ``pytest -m chaos``
or ``python -m repro chaos``).
"""

import pytest

from repro.chaos import SCENARIOS, ChaosConfig, run_scenario

#: Reduced load for tier-1: same structure, ~4x faster.
FAST = dict(n_clients=2, requests_per_client=120, dataset_size=1000)


class TestHarness:
    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("meteor-strike")

    def test_registry_is_populated(self):
        assert len(SCENARIOS) >= 5
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.summary

    def test_overrides_reach_the_config(self):
        report = run_scenario("latency-spike", requests_per_client=40,
                              n_clients=2, dataset_size=500)
        assert report.issued == 80

    def test_report_shape(self):
        report = run_scenario("link-loss", **FAST)
        assert report.name == "link-loss"
        assert report.invariants  # at least the shared five
        names = [n for n, _ok, _d in report.invariants]
        assert "completed" in names
        assert "oracle-match" in names
        assert "exactly-once" in names
        assert "bounded-retries" in names
        assert "throughput-recovered" in names
        assert "fault-fired:packets-dropped" in names
        assert report.row()
        assert report.header()
        assert len(report.describe()) == len(report.invariants)
        assert len(report.fingerprint()) == 16


class TestInvariantsFast:
    @pytest.mark.parametrize("name", ["worker-crash", "write-storm",
                                      "heartbeat-blackout", "flash-crowd"])
    def test_scenario_passes_reduced(self, name):
        report = run_scenario(name, **FAST)
        assert report.ok, report.failures

    def test_faults_actually_fired(self):
        report = run_scenario("worker-crash", **FAST)
        assert report.counters["workers-crashed"] >= 1
        assert report.counters["workers-restarted"] >= 1
        assert report.completed == report.issued

    def test_offloaded_read_racing_a_migration_copy_misses_nothing(self):
        """Regression, seed 12 at default size: during the copy of
        migration 1 -> 0, a one-sided read on shard 0 read a parent, then
        a child that a copy insert had just split, and missed item 1834,
        which shard 0 held all along.  The entry-loss stamp restarts such
        a traversal."""
        report = run_scenario("rebalance-under-fault", seed=12)
        assert report.ok, report.failures


class TestDeterministicReplay:
    def test_same_seed_same_fingerprint(self):
        first = run_scenario("worker-crash", seed=3, **FAST)
        second = run_scenario("worker-crash", seed=3, **FAST)
        assert first.ok and second.ok
        assert first.fingerprint() == second.fingerprint()
        assert first.invariants == second.invariants
        assert first.counters == second.counters

    def test_different_seed_different_run(self):
        a = run_scenario("link-loss", seed=1, **FAST)
        b = run_scenario("link-loss", seed=2, **FAST)
        # The workloads differ, so the outcome digest must differ.
        assert a.fingerprint() != b.fingerprint()

    def test_config_object_and_kwargs_agree(self):
        via_kwargs = run_scenario("slow-client", seed=5, **FAST)
        via_config = run_scenario("slow-client", seed=5,
                                  config=ChaosConfig(**FAST))
        assert via_kwargs.fingerprint() == via_config.fingerprint()


@pytest.mark.chaos
class TestFullSweep:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_green_at_default_size(self, name):
        report = run_scenario(name)
        assert report.ok, report.failures

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_combo_is_green_across_seeds(self, seed):
        report = run_scenario("chaos-combo", seed=seed)
        assert report.ok, report.failures
