"""Unit tests for Algorithm 1 — the Catfish adaptive back-off client."""

import random

import pytest

from repro.client import AdaptiveParams, ClientStats, Request
from repro.client.adaptive import most_recent_utilization
from repro.client.base import OP_INSERT, OP_SEARCH, READ_OPS
from repro.msg import Heartbeat
from repro.rtree import Rect
from repro.runtime import Algorithm1Policy, PolicySession
from repro.server import HeartbeatMailbox
from repro.sim import Simulator

RECT = Rect(0.1, 0.1, 0.2, 0.2)


def beat(mailbox, utilization):
    """Deliver one fresh heartbeat (advancing the mailbox sequence)."""
    mailbox.deliver(Heartbeat(utilization, seq=mailbox.seq + 1))


class FakeFm:
    """Stands in for FmSession: records calls, exposes a real mailbox."""

    read_ops = READ_OPS

    def __init__(self, sim):
        self.sim = sim
        self.mailbox = HeartbeatMailbox()
        self.calls = []

    def execute(self, request):
        self.calls.append(request)
        yield self.sim.timeout(1e-6)
        return []


class FakeEngine:
    def __init__(self, sim):
        self.sim = sim
        self.calls = []

    def read(self, request):
        self.calls.append(request.rect)
        yield self.sim.timeout(1e-6)
        return []


def make_session(params=None, seed=0):
    sim = Simulator()
    fm = FakeFm(sim)
    engine = FakeEngine(sim)
    stats = ClientStats()
    session = PolicySession(
        sim, fm, engine, stats,
        Algorithm1Policy(
            sim, fm.mailbox,
            params=params or AdaptiveParams(N=8, T=0.95, Inv=1e-3),
            rng=random.Random(seed),
        ),
    )
    return sim, fm, engine, session


def drive(sim, session, n, op=OP_SEARCH, gap=2e-3):
    def proc():
        for i in range(n):
            request = (Request(op, RECT) if op == OP_SEARCH
                       else Request(op, RECT, data_id=i))
            yield from session.execute(request)
            yield sim.timeout(gap)

    done = sim.process(proc())
    sim.run_until_triggered(done)


def feed(sim, mailbox, value, until, every=1e-3):
    """Deliver a fresh ``value`` heartbeat every ``every`` until ``until``."""
    def proc():
        while sim.now < until:
            beat(mailbox, value)
            yield sim.timeout(every)

    sim.process(proc())


class TestParams:
    def test_defaults_match_paper(self):
        params = AdaptiveParams()
        assert params.N == 8
        assert params.T == 0.95
        assert params.Inv == pytest.approx(10e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveParams(N=0)
        with pytest.raises(ValueError):
            AdaptiveParams(T=0.0)
        with pytest.raises(ValueError):
            AdaptiveParams(T=1.5)
        with pytest.raises(ValueError):
            AdaptiveParams(Inv=0.0)

    def test_pred_util_identity(self):
        assert most_recent_utilization(0.87) == 0.87


class TestDecision:
    def test_idle_server_stays_on_fast_messaging(self):
        sim, fm, engine, session = make_session()
        drive(sim, session, 10)
        assert len(fm.calls) == 10
        assert len(engine.calls) == 0

    def test_missing_heartbeat_means_no_offload(self):
        """Paper: no heartbeat must NOT trigger offloading — the cause
        could be a saturated server link."""
        sim, fm, engine, session = make_session()
        drive(sim, session, 20)  # nothing ever arrives
        assert len(engine.calls) == 0
        assert session.policy.heartbeats_missing > 0
        assert session.policy.heartbeats_consumed == 0

    def test_busy_heartbeat_triggers_offload_window(self):
        sim, fm, engine, session = make_session(seed=3)
        feed(sim, fm.mailbox, 0.99, until=1.0)
        drive(sim, session, 30)
        assert len(engine.calls) > 0
        assert session.policy.busy_observations > 0

    def test_not_busy_heartbeat_keeps_fast_messaging(self):
        sim, fm, engine, session = make_session()
        feed(sim, fm.mailbox, 0.5, until=1.0)  # below T
        drive(sim, session, 20)
        assert len(engine.calls) == 0

    def test_offload_window_is_bounded_by_first_backoff(self):
        """After one busy observation, at most N-1 consecutive requests
        offload (r_off drawn from [0, N))."""
        params = AdaptiveParams(N=8, T=0.95, Inv=1e-3)
        sim, fm, engine, session = make_session(params)
        beat(fm.mailbox, 0.99)  # one heartbeat, never replenished
        drive(sim, session, 30)
        assert len(engine.calls) <= params.N - 1

    def test_backoff_extends_while_busy(self):
        params = AdaptiveParams(N=4, T=0.95, Inv=1e-3)
        sim, fm, engine, session = make_session(params, seed=5)
        feed(sim, fm.mailbox, 1.0, until=1.0)
        drive(sim, session, 60)
        assert session.policy.backoff_extensions > 0
        # most requests end up offloaded under sustained saturation
        assert len(engine.calls) > 30

    def test_recovery_resets_backoff(self):
        sim, fm, engine, session = make_session(
            AdaptiveParams(N=4, T=0.95, Inv=1e-3), seed=7
        )

        def feeder():
            # busy for 20 ms, then idle
            while sim.now < 20e-3:
                beat(fm.mailbox, 1.0)
                yield sim.timeout(1e-3)

        sim.process(feeder())
        drive(sim, session, 40)
        assert session.policy.r_busy == 0
        # Tail requests go back to fast messaging.
        assert fm.calls

    def test_writes_never_offloaded(self):
        sim, fm, engine, session = make_session(seed=2)
        feed(sim, fm.mailbox, 1.0, until=1.0)
        drive(sim, session, 20, op=OP_INSERT)
        assert len(engine.calls) == 0
        assert len(fm.calls) == 20

    def test_heartbeat_consumed_at_most_every_inv(self):
        """Within an Inv window the mailbox must not be re-consumed."""
        params = AdaptiveParams(N=8, T=0.95, Inv=5e-3)
        sim, fm, engine, session = make_session(params)
        feed(sim, fm.mailbox, 1.0, until=1.0)
        reads = []

        original = fm.mailbox.consume_fresh

        def counting_consume(last_seq):
            result = original(last_seq)
            if result is not None:
                reads.append(sim.now)
            return result

        fm.mailbox.consume_fresh = counting_consume
        # requests every 1 ms, Inv = 5 ms
        drive(sim, session, 20, gap=1e-3)
        assert reads
        for a, b in zip(reads, reads[1:]):
            assert b - a > params.Inv

    def test_randomized_windows_differ_across_clients(self):
        lengths = set()
        for seed in range(6):
            params = AdaptiveParams(N=8, T=0.95, Inv=1e-3)
            sim, fm, engine, session = make_session(params, seed=seed)
            beat(fm.mailbox, 0.99)  # a single busy observation
            drive(sim, session, 30)
            lengths.add(len(engine.calls))
        # Different clients draw different window sizes.
        assert len(lengths) > 1


class _MaxDrawRng:
    """Deterministic rng: randrange(n) always draws the maximum n-1."""

    def randrange(self, n):
        return n - 1


class TestAlgorithmEdgeCases:
    """Algorithm 1 boundary behavior, driven through decide_offload."""

    @staticmethod
    def _force_inv_elapsed(session):
        # Make `now - t0 > Inv` true without running the event loop.
        session.policy._t0 = -10.0 * session.policy.params.Inv

    def test_utilization_exactly_at_threshold_is_not_busy(self):
        """The busy test is strictly `U > T`; a reading of exactly T must
        not open an offload window."""
        sim, fm, engine, session = make_session()
        self._force_inv_elapsed(session)
        beat(fm.mailbox, session.policy.params.T)
        assert session.policy.decide_offload() is False
        assert session.policy.r_busy == 0
        assert session.policy.busy_observations == 0
        # ... but the heartbeat itself was consumed (it was fresh).
        assert session.policy.heartbeats_consumed == 1

    def test_just_above_threshold_is_busy(self):
        sim, fm, engine, session = make_session()
        self._force_inv_elapsed(session)
        beat(fm.mailbox, session.policy.params.T + 1e-9)
        session.policy.decide_offload()
        assert session.policy.r_busy == 1

    def test_backoff_window_within_documented_bounds(self):
        """The k-th consecutive busy draw lands in [(k-1)*N, k*N)."""
        params = AdaptiveParams(N=8, T=0.95, Inv=1e-3)
        sim, fm, engine, session = make_session(params)
        session.policy.rng = _MaxDrawRng()
        for expected_r_busy in (1, 2, 3, 4):
            self._force_inv_elapsed(session)
            beat(fm.mailbox, 1.0)
            offloaded = session.policy.decide_offload()
            assert session.policy.r_busy == expected_r_busy
            # decide_offload drained one unit before returning; undo it.
            drawn = session.policy.r_off + (1 if offloaded else 0)
            lo = (expected_r_busy - 1) * params.N
            hi = expected_r_busy * params.N
            assert lo <= drawn < hi

    def test_reset_on_non_busy_heartbeat(self):
        params = AdaptiveParams(N=8, T=0.95, Inv=1e-3)
        sim, fm, engine, session = make_session(params)
        self._force_inv_elapsed(session)
        beat(fm.mailbox, 1.0)
        session.policy.decide_offload()
        assert session.policy.r_busy == 1
        self._force_inv_elapsed(session)
        beat(fm.mailbox, 0.3)
        session.policy.decide_offload()
        assert session.policy.r_busy == 0

    def test_fresh_zero_utilization_heartbeat_is_consumed(self):
        """The seq-based fix: a genuine heartbeat reporting exactly 0.0
        utilization is a real observation, not a missing heartbeat."""
        sim, fm, engine, session = make_session()
        self._force_inv_elapsed(session)
        beat(fm.mailbox, 0.0)
        assert session.policy.decide_offload() is False
        assert session.policy.heartbeats_consumed == 1
        assert session.policy.heartbeats_missing == 0
        # Consuming advanced the Inv clock: the next decide within Inv
        # does not consume again.
        beat(fm.mailbox, 1.0)
        assert session.policy.decide_offload() is False
        assert session.policy.heartbeats_consumed == 1

    def test_duplicate_seq_reads_as_missing(self):
        """A replayed heartbeat (same seq) must not be consumed twice —
        even though its utilization value is nonzero."""
        sim, fm, engine, session = make_session()
        self._force_inv_elapsed(session)
        fm.mailbox.deliver(Heartbeat(0.99, seq=1))
        session.policy.decide_offload()
        assert session.policy.heartbeats_consumed == 1
        self._force_inv_elapsed(session)
        fm.mailbox.deliver(Heartbeat(0.99, seq=1))  # replay, not fresh
        budget_before = session.policy.r_off
        session.policy.decide_offload()
        assert session.policy.heartbeats_consumed == 1
        assert session.policy.heartbeats_missing == 1
        # Missing heartbeat resets the busy streak; any remaining budget
        # drains without extension.
        assert session.policy.r_busy == 0
        assert session.policy.r_off == max(budget_before - 1, 0)

    def test_missing_heartbeat_never_offloads_without_budget(self):
        """With no budget left, missing heartbeats mean fast messaging
        forever — never offload on silence."""
        sim, fm, engine, session = make_session()
        for _ in range(50):
            self._force_inv_elapsed(session)
            assert session.policy.decide_offload() is False
        assert session.policy.heartbeats_missing == 50


class TestHeartbeatIntegration:
    def test_mailbox_deliver_and_algorithm_read(self):
        box = HeartbeatMailbox()
        box.deliver(Heartbeat(0.97, seq=1))
        assert box.read_and_clear() == 0.97
        assert box.value == 0.0

    def test_consume_fresh_distinguishes_empty_from_zero(self):
        box = HeartbeatMailbox()
        assert box.consume_fresh(-1) is None  # truly empty
        box.deliver(Heartbeat(0.0, seq=1))
        fresh = box.consume_fresh(-1)
        assert fresh == (1, 0.0)  # genuine 0.0-utilization heartbeat
        assert box.consume_fresh(1) is None  # consumed: not fresh anymore

    def test_consume_fresh_clears_value(self):
        box = HeartbeatMailbox()
        box.deliver(Heartbeat(0.8, seq=3))
        assert box.consume_fresh(-1) == (3, 0.8)
        assert box.value == 0.0
        assert box.seq == 3
