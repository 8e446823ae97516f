"""Tests for the future-work extensions: predictors and the bandit."""

import random

import pytest

from repro import ExperimentConfig, run_experiment
from repro.client import (
    ClientStats,
    EwmaPredictor,
    Request,
    TrendPredictor,
    make_predictor,
    most_recent,
)
from repro.client.base import READ_OPS
from repro.client.predictors import EWMA_ALPHA, TREND_GAIN
from repro.rtree import Rect
from repro.runtime import (
    FAST_MESSAGING,
    OFFLOADING,
    BanditPolicy,
    PolicySession,
)
from repro.runtime.policy import BANDIT_ALPHA, BANDIT_EPSILON
from repro.sim import Simulator

RECT = Rect(0.1, 0.1, 0.2, 0.2)


class TestPredictors:
    def test_most_recent_is_identity(self):
        assert most_recent(0.42) == 0.42

    def test_ewma_blends(self):
        pred = EwmaPredictor()
        assert pred(1.0) == 1.0          # first reading taken as-is
        assert pred(0.0) == 0.5          # 0.5*0 + 0.5*1
        assert pred(0.0) == 0.25

    def test_ewma_damps_spikes(self):
        pred = EwmaPredictor()
        for _ in range(10):
            pred(0.2)
        spiked = pred(1.0)
        assert spiked < 0.95  # a single spike cannot cross a 0.95 threshold

    def test_ewma_validation(self):
        """The smoothing weight stays in (0, 1]."""
        assert 0.0 < EWMA_ALPHA <= 1.0

    def test_trend_extrapolates_rising(self):
        pred = TrendPredictor()
        assert pred(0.5) == 0.5
        assert pred(0.7) == pytest.approx(0.9)  # 0.7 + (0.7 - 0.5)

    def test_trend_extrapolates_falling(self):
        pred = TrendPredictor()
        pred(0.9)
        assert pred(0.7) == pytest.approx(0.5)

    def test_trend_clamps(self):
        pred = TrendPredictor()
        pred(0.5)
        assert pred(0.9) == 1.0     # 0.9 + 0.4
        pred2 = TrendPredictor()
        pred2(0.5)
        assert pred2(0.1) == 0.0    # 0.1 - 0.4

    def test_trend_validation(self):
        """A non-negative gain: a rising curve never predicts lower."""
        assert TREND_GAIN >= 0.0

    def test_registry(self):
        assert make_predictor("latest") is most_recent
        assert isinstance(make_predictor("ewma"), EwmaPredictor)
        assert isinstance(make_predictor("trend"), TrendPredictor)
        with pytest.raises(KeyError):
            make_predictor("oracle")

    def test_each_instantiation_is_fresh(self):
        a = make_predictor("ewma")
        b = make_predictor("ewma")
        a(1.0)
        assert b(0.2) == 0.2  # unaffected by a's state


class _FixedLatencyArm:
    """fm/engine stub with a constant latency per call."""

    read_ops = READ_OPS

    def __init__(self, sim, latency):
        self.sim = sim
        self.latency = latency
        self.calls = 0

    def execute(self, request):
        self.calls += 1
        yield self.sim.timeout(self.latency)
        return []

    def read(self, request):
        return self.execute(request)


def bandit_session(sim, fm, engine, **policy_args):
    return PolicySession(sim, fm, engine, ClientStats(),
                         BanditPolicy(**policy_args))


class TestBanditUnit:
    def _drive(self, session, sim, n):
        def proc():
            for _ in range(n):
                yield from session.execute(Request("search", RECT))

        done = sim.process(proc())
        sim.run_until_triggered(done)

    def test_validation(self):
        """The exploration rate is a probability; the smoothing weight
        is in (0, 1]."""
        assert 0.0 <= BANDIT_EPSILON <= 1.0
        assert 0.0 < BANDIT_ALPHA <= 1.0

    def test_converges_to_faster_arm(self):
        sim = Simulator()
        fm = _FixedLatencyArm(sim, 100e-6)      # slow
        engine = _FixedLatencyArm(sim, 10e-6)   # fast
        session = bandit_session(sim, fm, engine,
                                 rng=random.Random(1))
        self._drive(session, sim, 200)
        assert session.policy.mode_counts[OFFLOADING] > \
            session.policy.mode_counts[FAST_MESSAGING] * 3

    def test_converges_to_fm_when_fm_faster(self):
        sim = Simulator()
        fm = _FixedLatencyArm(sim, 10e-6)
        engine = _FixedLatencyArm(sim, 100e-6)
        session = bandit_session(sim, fm, engine,
                                 rng=random.Random(2))
        self._drive(session, sim, 200)
        assert session.policy.mode_counts[FAST_MESSAGING] > \
            session.policy.mode_counts[OFFLOADING] * 3

    def test_explores_both_arms(self):
        sim = Simulator()
        fm = _FixedLatencyArm(sim, 10e-6)
        engine = _FixedLatencyArm(sim, 10e-6)
        session = bandit_session(sim, fm, engine,
                                 rng=random.Random(3))
        self._drive(session, sim, 100)
        assert session.policy.mode_counts[FAST_MESSAGING] > 0
        assert session.policy.mode_counts[OFFLOADING] > 0
        assert session.policy.explorations > 0

    def test_adapts_when_latencies_flip(self):
        sim = Simulator()
        fm = _FixedLatencyArm(sim, 10e-6)
        engine = _FixedLatencyArm(sim, 100e-6)
        session = bandit_session(sim, fm, engine,
                                 rng=random.Random(4))
        self._drive(session, sim, 150)
        # flip the world: fm becomes slow
        fm.latency, engine.latency = 100e-6, 10e-6
        before = dict(session.policy.mode_counts)
        self._drive(session, sim, 300)
        offload_delta = session.policy.mode_counts[OFFLOADING] - before[OFFLOADING]
        fm_delta = session.policy.mode_counts[FAST_MESSAGING] - before[FAST_MESSAGING]
        assert offload_delta > fm_delta

    def test_writes_bypass_the_bandit(self):
        sim = Simulator()
        fm = _FixedLatencyArm(sim, 10e-6)
        engine = _FixedLatencyArm(sim, 1e-6)
        session = bandit_session(sim, fm, engine, rng=random.Random(5))

        def proc():
            for i in range(10):
                yield from session.execute(
                    Request("insert", RECT, data_id=i))

        done = sim.process(proc())
        sim.run_until_triggered(done)
        assert engine.calls == 0
        assert fm.calls == 10


class TestSchemesIntegration:
    SMALL = dict(n_clients=6, requests_per_client=40, dataset_size=2000,
                 max_entries=16, server_cores=2,
                 heartbeat_interval=0.2e-3, seed=3)

    @pytest.mark.parametrize("scheme", [
        "catfish-ewma", "catfish-trend", "catfish-bandit",
    ])
    def test_variant_schemes_run(self, scheme):
        result = run_experiment(ExperimentConfig(scheme=scheme,
                                                 **self.SMALL))
        assert result.total_requests == 6 * 40

    def test_bandit_offloads_under_saturation(self):
        result = run_experiment(ExperimentConfig(
            scheme="catfish-bandit",
            n_clients=24,
            requests_per_client=150,
            dataset_size=4000,
            max_entries=16,
            server_cores=1,
            seed=5,
        ))
        # With one server core melting, offloading wins and the bandit
        # learns to use it heavily without any heartbeats.
        assert result.offload_fraction > 0.5
        assert result.heartbeats_sent == 0
