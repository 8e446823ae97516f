"""Tests for the churn workload and offloading under saturation."""

import random

import pytest

from repro import AdaptiveParams, ExperimentConfig, run_experiment
from repro.client.base import OP_DELETE, OP_INSERT, OP_SEARCH
from repro.workloads import make_workload
from repro.workloads.mixes import write_mix
from repro.workloads.scales import FixedScale


def churn_mix(rng, n_requests, client_id, **fractions):
    """A write mix (searches, inserts and deletes) at scale 0.001."""
    gen = FixedScale(0.001)
    return write_mix(rng, gen, gen.next_rect, n_requests, client_id,
                     **fractions)


class TestChurnMix:
    def test_fractions_roughly_hold(self):
        rng = random.Random(1)
        reqs = churn_mix(rng, 3000, client_id=1, insert_fraction=0.15,
                         delete_fraction=0.1)
        inserts = sum(1 for r in reqs if r.op == OP_INSERT)
        deletes = sum(1 for r in reqs if r.op == OP_DELETE)
        searches = sum(1 for r in reqs if r.op == OP_SEARCH)
        assert 0.10 < inserts / len(reqs) < 0.20
        assert 0.05 < deletes / len(reqs) < 0.15
        assert searches == len(reqs) - inserts - deletes

    def test_every_delete_follows_its_insert(self):
        rng = random.Random(2)
        reqs = churn_mix(rng, 2000, client_id=3,
                         insert_fraction=0.2, delete_fraction=0.2)
        live = set()
        for r in reqs:
            if r.op == OP_INSERT:
                live.add(r.data_id)
            elif r.op == OP_DELETE:
                assert r.data_id in live, "delete before its insert"
                live.remove(r.data_id)

    def test_no_double_deletes(self):
        rng = random.Random(3)
        reqs = churn_mix(rng, 2000, client_id=3,
                         insert_fraction=0.2, delete_fraction=0.2)
        deleted = [r.data_id for r in reqs if r.op == OP_DELETE]
        assert len(deleted) == len(set(deleted))

    def test_fraction_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            churn_mix(rng, 10, 0,
                      insert_fraction=0.6, delete_fraction=0.6)

    def test_make_workload_churn(self):
        fn = make_workload("churn", scale_spec="0.001", n_requests=50,
                           insert_fraction=0.2)
        reqs = fn(0, random.Random(0))
        assert len(reqs) == 50

    def test_churn_experiment_runs(self):
        result = run_experiment(ExperimentConfig(
            scheme="catfish",
            workload_kind="churn",
            insert_fraction=0.2,
            n_clients=4,
            requests_per_client=80,
            dataset_size=1500,
            max_entries=16,
            server_cores=4,
            seed=8,
        ))
        assert result.total_requests == 4 * 80
        assert result.inserts_served > 0
        # deletes are counted on the server
        assert result.extra is not None


class TestTimeline:
    def test_timeline_shows_offloading_ramp(self):
        """A saturated server reports busy heartbeats and clients offload.

        Offloading only after a busy heartbeat is unit-tested in
        ``tests/test_client_adaptive.py``; this checks the whole run.
        """
        result = run_experiment(ExperimentConfig(
            scheme="catfish",
            n_clients=16,
            requests_per_client=300,
            dataset_size=2000,
            max_entries=16,
            server_cores=1,
            heartbeat_interval=0.1e-3,
            adaptive=AdaptiveParams(N=8, T=0.9, Inv=0.1e-3),
            seed=10,
        ))
        assert result.offload_fraction > 0
        metrics = result.metrics["metrics"]
        assert metrics["adaptive.busy_observations"]["value"] > 0
