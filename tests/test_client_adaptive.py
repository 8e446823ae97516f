"""Unit tests for Algorithm 1 — the Catfish adaptive back-off client."""

import random

import pytest

from repro.client import AdaptiveParams, ClientStats, Request
from repro.client.adaptive import most_recent_utilization
from repro.client.base import OP_INSERT, OP_SEARCH, READ_OPS
from repro.msg import Heartbeat
from repro.obs import Tracer
from repro.rtree import Rect
from repro.runtime import Algorithm1Policy, PolicySession
from repro.runtime.policy import (
    GUARD_PROBE_PERIOD,
    GUARD_WINDOW,
    PATH_FM,
    PATH_OFFLOAD,
)
from repro.server import HeartbeatMailbox
from repro.sim import Simulator

RECT = Rect(0.1, 0.1, 0.2, 0.2)


def beat(mailbox, utilization):
    """Deliver one fresh heartbeat (advancing the mailbox sequence)."""
    mailbox.deliver(Heartbeat(utilization, seq=mailbox.seq + 1))


class FakeFm:
    """Stands in for FmSession: records calls, exposes a real mailbox."""

    read_ops = READ_OPS

    def __init__(self, sim, latency=1e-6):
        self.sim = sim
        self.latency = latency
        self.mailbox = HeartbeatMailbox()
        self.calls = []

    def execute(self, request):
        self.calls.append(request)
        yield self.sim.timeout(self.latency)
        return []

    def search_batch(self, rects):
        self.calls.append(list(rects))
        yield self.sim.timeout(self.latency)
        return [[] for _ in rects]


class FakeEngine:
    def __init__(self, sim, latency=1e-6):
        self.sim = sim
        self.latency = latency
        self.calls = []

    def read(self, request):
        self.calls.append(request.rect)
        yield self.sim.timeout(self.latency)
        return []

    def search_batch(self, rects):
        self.calls.append(list(rects))
        yield self.sim.timeout(self.latency)
        return [[] for _ in rects]


def make_session(params=None, seed=0, fm_latency=1e-6, offload_latency=1e-6):
    sim = Simulator()
    fm = FakeFm(sim, fm_latency)
    engine = FakeEngine(sim, offload_latency)
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

    def test_not_busy_heartbeat_takes_the_faster_arm(self):
        """Below T the budget never offloads; the latency guard does,
        exactly when offloading measured faster.  Either way the slower
        arm sees one first probe plus every 16th guard decision."""
        n = 50
        sim, fm, engine, session = make_session(
            fm_latency=3e-6, offload_latency=1e-6)
        feed(sim, fm.mailbox, 0.5, until=1.0)  # below T
        drive(sim, session, n)
        # The first read precedes any heartbeat and the second probes
        # offload; the guard compares medians from the third on.
        probes = (n - 2) // GUARD_PROBE_PERIOD
        policy = session.policy
        assert policy.busy_observations == 0
        assert policy.guard_offloads == len(engine.calls)
        assert len(fm.calls) == 1 + probes

        sim, fm, engine, session = make_session(
            fm_latency=1e-6, offload_latency=3e-6)
        feed(sim, fm.mailbox, 0.5, until=1.0)
        drive(sim, session, n)
        assert len(engine.calls) == 1 + probes
        assert session.policy.guard_probes == 1 + probes

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


def guard_policy(fm_us=(), offload_us=(), seed=0):
    """A policy that has consumed one fresh heartbeat below T and
    observed the given per-arm latencies (µs)."""
    sim = Simulator()
    mailbox = HeartbeatMailbox()
    policy = Algorithm1Policy(sim, mailbox, rng=random.Random(seed),
                              params=AdaptiveParams(N=8, T=0.95, Inv=1e-3))
    policy._t0 = -1.0  # Inv has elapsed
    beat(mailbox, 0.5)
    assert policy.decide_offload() is False  # no FM sample yet
    assert policy.heartbeats_consumed == 1
    for path, samples in ((PATH_FM, fm_us), (PATH_OFFLOAD, offload_us)):
        for us in samples:
            policy.observe(None, path, us * 1e-6)
    return policy


class TestLatencyGuard:
    """The guard that runs after lines 5-23 chose fast messaging."""

    def test_no_guard_offload_before_a_heartbeat_is_consumed(self):
        sim = Simulator()
        policy = Algorithm1Policy(sim, HeartbeatMailbox())
        for _ in range(GUARD_WINDOW):
            policy.observe(None, PATH_FM, 50e-6)
            policy.observe(None, PATH_OFFLOAD, 1e-6)
        assert not any(policy.decide_offload() for _ in range(40))
        assert policy.guard_offloads == 0
        assert policy.guard_probes == 0

    def test_no_guard_offload_while_the_heartbeat_is_missing(self):
        policy = guard_policy(fm_us=[50] * 9, offload_us=[1] * 9)
        assert policy.decide_offload() is True
        # The next Inv check finds no fresh heartbeat.
        policy._t0 = -1.0
        assert policy.decide_offload() is False
        assert policy.heartbeats_missing == 1
        assert not any(policy.decide_offload() for _ in range(40))
        # A fresh one makes the guard live again.
        policy._t0 = -1.0
        beat(policy.mailbox, 0.5)
        assert policy.decide_offload() is True
        assert policy.offload_annotations()["reason"] == "guard"

    def test_no_fm_sample_means_fm_and_no_offload_sample_means_one_probe(
            self):
        policy = guard_policy()
        assert policy.decide_offload() is False
        policy.observe(None, PATH_FM, 10e-6)
        assert policy.decide_offload() is True
        assert policy.guard_probes == 1
        policy.observe(None, PATH_OFFLOAD, 20e-6)
        assert policy.decide_offload() is False
        assert policy.guard_probes == 1

    @pytest.mark.parametrize("offload_us,expected", [
        (9.0, True), (10.0, False), (11.0, False)])
    def test_offloads_iff_the_offload_median_is_lower(self, offload_us,
                                                      expected):
        policy = guard_policy(fm_us=[10.0] * GUARD_WINDOW,
                              offload_us=[offload_us] * GUARD_WINDOW)
        assert policy.decide_offload() is expected
        assert policy.guard_offloads == int(expected)
        assert policy.r_off == 0 and policy.r_busy == 0

    def test_estimates_are_medians_of_the_last_window(self):
        # Four write-lock stalls lift the FM mean past offload's, but
        # not its median.
        policy = guard_policy(fm_us=[10.0] * 5 + [1000.0] * 4,
                              offload_us=[20.0] * GUARD_WINDOW)
        assert policy.decide_offload() is False
        # Only the last GUARD_WINDOW samples count: nine slow FM reads
        # push the fast ones out.
        for _ in range(GUARD_WINDOW):
            policy.observe(None, PATH_FM, 1000e-6)
        assert policy.decide_offload() is True

    def test_every_16th_guard_decision_takes_the_other_arm(self):
        policy = guard_policy(fm_us=[10.0] * GUARD_WINDOW,
                              offload_us=[5.0] * GUARD_WINDOW)
        decisions = [policy.decide_offload()
                     for _ in range(3 * GUARD_PROBE_PERIOD)]
        fm_at = [i + 1 for i, offload in enumerate(decisions) if not offload]
        assert fm_at == [GUARD_PROBE_PERIOD, 2 * GUARD_PROBE_PERIOD,
                         3 * GUARD_PROBE_PERIOD]
        assert policy.guard_probes == 3
        assert policy.guard_offloads == 3 * GUARD_PROBE_PERIOD - 3

    def test_budget_and_guard_offloads_are_told_apart(self):
        policy = guard_policy(fm_us=[10.0] * GUARD_WINDOW,
                              offload_us=[5.0] * GUARD_WINDOW)
        policy.rng = _MaxDrawRng()
        policy._t0 = -1.0
        beat(policy.mailbox, 0.99)
        assert policy.decide_offload() is True
        assert policy.offload_annotations()["reason"] == "budget"
        assert policy.guard_offloads == 0
        while policy.r_off:
            policy.decide_offload()
        assert policy.decide_offload() is True
        assert policy.offload_annotations()["reason"] == "guard"
        assert policy.guard_offloads == 1

    def test_offload_spans_say_budget_or_guard(self):
        sim, fm, engine, session = make_session(
            fm_latency=3e-6, offload_latency=1e-6)
        session.policy.rng = _MaxDrawRng()
        session.policy._t0 = -1.0  # the first read consumes the busy beat
        session.tracer = Tracer(sim)

        def feeder():
            beat(fm.mailbox, 0.99)  # one busy window of N-1 offloads
            while True:
                yield sim.timeout(1e-3)
                beat(fm.mailbox, 0.5)

        sim.process(feeder())
        drive(sim, session, 30)
        reasons = [event.attrs["reason"] for event in session.tracer.events
                   if event.name == "decide"
                   and event.attrs["path"] == PATH_OFFLOAD]
        budget = session.policy.params.N - 1
        assert reasons[:budget] == ["budget"] * budget
        assert set(reasons[budget:]) == {"guard"}
        assert len(reasons) - budget == session.policy.guard_offloads

    def test_samples_move_no_rng_draw_and_no_budget(self):
        """Algorithm 1's state evolves identically with and without
        latency samples: the guard only reads them."""
        def trace(with_samples):
            sim, fm, engine, session = make_session(
                AdaptiveParams(N=4, T=0.95, Inv=1e-3), seed=11)
            policy = session.policy
            if not with_samples:
                policy.observe = lambda *args, **kwargs: None
            utilizations = [0.99, 0.3, 0.99, 0.99, 0.5, 0.99, 1.0, 0.2]

            def feeder():
                for u in utilizations * 4:
                    beat(fm.mailbox, u)
                    yield sim.timeout(1.5e-3)

            sim.process(feeder())
            states = []

            def proc():
                for _ in range(120):
                    yield from session.execute(Request(OP_SEARCH, RECT))
                    states.append((policy.r_busy, policy.r_off))
                    yield sim.timeout(0.4e-3)

            sim.run_until_triggered(sim.process(proc()))
            return states, policy.rng.getstate(), policy.guard_offloads

        with_states, with_rng, guarded = trace(True)
        without_states, without_rng, unguarded = trace(False)
        assert guarded > 0 and unguarded == 0
        assert with_states == without_states
        assert with_rng == without_rng

    def test_a_batched_group_takes_one_decision(self):
        sim, fm, engine, session = make_session(
            fm_latency=3e-6, offload_latency=1e-6)
        policy = session.policy
        calls = []
        decide = policy.decide_offload

        def counted():
            calls.append(sim.now)
            return decide()

        policy.decide_offload = counted
        policy._t0 = -1.0
        beat(fm.mailbox, 0.5)
        group = [Request(OP_SEARCH, RECT) for _ in range(5)]

        def proc():
            yield from session.execute_search_batch(group)  # FM: no sample
            yield from session.execute_search_batch(group)  # offload probe
            yield from session.execute_search_batch(group)  # guard: offload

        sim.run_until_triggered(sim.process(proc()))
        assert len(calls) == 3
        assert fm.calls == [[RECT] * 5]
        assert engine.calls == [[RECT] * 5, [RECT] * 5]
        # One decision per group, but every request reports its path.
        assert policy.guard_offloads == 2
        assert policy.decisions_offload == 10
        assert policy.decisions_fm == 5


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
