"""Client-side resilience: deadlines, retries, breaker, bounded waits."""

import random

import pytest

from repro.client import ClientStats
from repro.client.adaptive import AdaptiveParams
from repro.client.base import OP_INSERT, OP_SEARCH, Request
from repro.client.fm_client import FmSession
from repro.client.offload_client import OffloadError
from repro.client.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerParams,
    CircuitBreaker,
    RequestTimeoutError,
    RetryPolicy,
)
from repro.hw import Host
from repro.msg import SearchRequest, message_size
from repro.msg.ringbuffer import RingBuffer, RingBufferFullError
from repro.net import IB_100G, Network
from repro.rtree import Rect
from repro.runtime import Algorithm1Policy, PolicySession
from repro.server import EVENT, FastMessagingServer, RTreeServer
from repro.server.heartbeat import HeartbeatMailbox
from repro.sim import Simulator
from repro.sim.resources import Container
from repro.workloads import uniform_dataset


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1e-6)
        with pytest.raises(ValueError):
            RetryPolicy(offload_read_retries=0)
        with pytest.raises(ValueError):
            RetryPolicy(offload_search_restarts=0)

    def test_offload_budgets_default_to_the_engines_defaults(self):
        policy = RetryPolicy()
        assert (policy.offload_read_retries,
                policy.offload_search_restarts) == (8, 8)

    def test_writes_get_one_attempt_by_default(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.attempts_for(OP_SEARCH) == 5
        assert policy.attempts_for(OP_INSERT) == 1

    def test_backoff_is_exponential_and_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_s=10e-6)
        rng = random.Random(1)
        for attempt in range(4):
            base = 10e-6 * 2.0 ** attempt
            for _ in range(50):
                delay = policy.backoff_s(attempt, rng)
                assert 0.5 * base <= delay <= 1.5 * base

    def test_reserve_timeout_defaults_to_deadline(self):
        """A ring reservation waits at most the attempt's deadline."""
        policy = RetryPolicy(deadline_s=40e-6, max_attempts=1)
        sim, _server, _fm_server, conn, fm, stats = _stack(retry=policy)
        filler = SearchRequest(0, Rect(0, 0, 1, 1))
        while conn.request_ring.try_reserve(filler):
            pass  # reservations that never complete: a wedged sender
        failed_at = []

        def client():
            with pytest.raises(RequestTimeoutError):
                yield from fm.search(Rect(0, 0, 1, 1))
            failed_at.append(sim.now)

        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)
        assert failed_at == [pytest.approx(40e-6)]
        assert int(stats.ring_full_timeouts) == 1


class TestCircuitBreaker:
    def _breaker(self, sim, **kw):
        params = dict(failure_threshold=2, cooldown_s=1e-3,
                      cooldown_factor=2.0, max_cooldown_s=4e-3)
        params.update(kw)
        return CircuitBreaker(sim, BreakerParams(**params))

    def test_trips_after_threshold_and_short_circuits(self):
        sim = Simulator()
        b = self._breaker(sim)
        assert b.allow() and b.state == CLOSED
        b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN and int(b.trips) == 1
        assert not b.allow()
        assert int(b.short_circuits) == 1

    def test_success_resets_consecutive_failures(self):
        b = self._breaker(Simulator())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED  # never two *consecutive* failures

    def test_half_open_probe_failure_grows_cooldown(self):
        sim = Simulator()
        b = self._breaker(sim)
        b.record_failure()
        b.record_failure()          # OPEN at t=0, cooldown 1ms
        sim.now = 1e-3
        assert b.allow()            # probe
        assert b.state == HALF_OPEN and int(b.probes) == 1
        b.record_failure()          # reopen, cooldown -> 2ms
        assert b.state == OPEN and int(b.trips) == 2
        sim.now = 2e-3
        assert not b.allow()        # only 1ms into the 2ms cooldown
        sim.now = 3e-3
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED and int(b.recoveries) == 1
        # Cooldown reset: the next trip waits the base cooldown again.
        b.record_failure()
        b.record_failure()
        sim.now = 3e-3 + 1e-3
        assert b.allow()

    def test_cooldown_is_capped(self):
        sim = Simulator()
        b = self._breaker(sim, cooldown_s=1e-3, max_cooldown_s=2e-3)
        b.record_failure()
        b.record_failure()
        for _ in range(5):          # many failed probes
            sim.now += 10e-3
            assert b.allow()
            b.record_failure()
        assert b._cooldown == 2e-3


class TestBoundedReservation:
    def _full_ring(self, sim, capacity=512):
        ring = RingBuffer(sim, capacity, name="test-ring")
        msg = SearchRequest(0, Rect(0, 0, 1, 1))
        while ring.try_reserve(msg):
            ring.deposit(msg)
        return ring, msg

    def test_reserve_within_passes_when_space_exists(self):
        sim = Simulator()
        ring = RingBuffer(sim, 4096, name="test-ring")
        msg = SearchRequest(0, Rect(0, 0, 1, 1))

        def p():
            yield from ring.reserve_within(msg, 1e-3)

        sim.process(p())
        sim.run()
        assert ring.used_bytes >= message_size(msg)

    def test_reserve_within_times_out_on_full_ring(self):
        sim = Simulator()
        ring, msg = self._full_ring(sim)
        outcomes = []

        def p():
            try:
                yield from ring.reserve_within(msg, 50e-6)
            except RingBufferFullError:
                outcomes.append(sim.now)

        sim.process(p())
        sim.run()
        assert outcomes == [50e-6]

    def test_cancelled_wait_does_not_steal_space(self):
        sim = Simulator()
        ring, msg = self._full_ring(sim)

        def p():
            with pytest.raises(RingBufferFullError):
                yield from ring.reserve_within(msg, 50e-6)

        sim.process(p())
        sim.run()
        # Freeing space after the timeout must go to new callers, not to
        # the abandoned (cancelled) waiter.
        while ring.try_consume()[0]:
            pass
        assert ring.try_reserve(msg)

    def test_reserve_within_rejects_bad_args(self):
        sim = Simulator()
        ring = RingBuffer(sim, 256, name="test-ring")
        msg = SearchRequest(0, Rect(0, 0, 1, 1))
        with pytest.raises(ValueError):
            next(ring.reserve_within(msg, 0.0))

    def test_container_cancel_skips_getter(self):
        sim = Simulator()
        c = Container(sim, capacity=10.0, init=0.0)
        g1 = c.get(5.0)
        g1.cancel()
        g2 = c.get(3.0)
        c.put(4.0)
        assert not g1.triggered
        assert g2.triggered


def _stack(retry=None, n_items=500, seed=9):
    sim = Simulator()
    net = Network(sim, IB_100G)
    server_host = Host(sim, "server", IB_100G, cores=2)
    net.attach_server(server_host)
    server = RTreeServer(sim, server_host, uniform_dataset(n_items, seed=seed),
                         max_entries=16)
    fm_server = FastMessagingServer(sim, server, net, mode=EVENT)
    client_host = Host(sim, "client", IB_100G, cores=2)
    conn = fm_server.open_connection(client_host)
    stats = ClientStats()
    fm = FmSession(sim, conn, 0, stats, retry=retry,
                   rng=random.Random(11))
    return sim, server, fm_server, conn, fm, stats


class TestFmRetries:
    def test_no_policy_behaviour_unchanged(self):
        sim, server, fm_server, conn, fm, stats = _stack(retry=None)

        def client():
            matches = yield from fm.search(Rect(0, 0, 1, 1))
            return matches

        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)
        assert len(proc.value) == 500
        assert int(stats.request_timeouts) == 0
        assert int(stats.request_retries) == 0

    def test_retry_recovers_from_worker_crash(self):
        policy = RetryPolicy(deadline_s=100e-6, max_attempts=8,
                             backoff_base_s=10e-6)
        sim, server, fm_server, conn, fm, stats = _stack(retry=policy)
        # A small query: its service time must sit well under the
        # deadline, or every attempt times out even on a healthy worker.
        rect = Rect(0.45, 0.45, 0.55, 0.55)
        oracle = sorted(server.tree.search(rect).data_ids)

        def crasher():
            yield sim.timeout(20e-6)
            fm_server.crash_worker(conn)
            yield sim.timeout(300e-6)
            fm_server.restart_worker(conn)

        results = []

        def client():
            for _ in range(10):
                matches = yield from fm.search(rect)
                results.append(sorted(d for _r, d in matches))

        sim.process(crasher())
        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)
        assert len(results) == 10
        assert all(ids == oracle for ids in results)
        assert int(stats.request_timeouts) >= 1
        assert int(stats.request_retries) >= 1
        # The re-sent attempts were eventually answered too; those late
        # answers were suppressed, not delivered.
        assert int(stats.duplicates_suppressed) >= 1
        assert int(stats.unexpected_messages) == 0

    def test_budget_exhaustion_raises(self):
        policy = RetryPolicy(deadline_s=50e-6, max_attempts=2,
                             backoff_base_s=5e-6)
        sim, server, fm_server, conn, fm, stats = _stack(retry=policy)
        fm_server.crash_worker(conn)  # never restarted

        def client():
            with pytest.raises(RequestTimeoutError):
                yield from fm.search(Rect(0, 0, 1, 1))

        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)
        assert int(stats.request_timeouts) == 2
        assert int(stats.request_retries) == 1

    def test_full_request_ring_times_out_with_accounting(self):
        policy = RetryPolicy(deadline_s=50e-6, max_attempts=3,
                             backoff_base_s=5e-6)
        sim, server, fm_server, conn, fm, stats = _stack(retry=policy)
        filler = SearchRequest(0, Rect(0, 0, 1, 1))
        while conn.request_ring.try_reserve(filler):
            pass  # reservations that never complete: a wedged sender

        def client():
            with pytest.raises(RequestTimeoutError):
                yield from fm.search(Rect(0, 0, 1, 1))

        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)
        assert int(stats.ring_full_timeouts) == 3
        assert int(stats.request_timeouts) == 0

    def test_unknown_message_is_counted_and_dropped(self):
        sim, server, fm_server, conn, fm, stats = _stack()

        class Garbage:
            def payload_size(self):
                return 8

        garbage = Garbage()
        assert conn.response_ring.try_reserve(garbage)
        conn.response_ring.deposit(garbage)
        sim.run()
        assert int(stats.unexpected_messages) == 1

        # The receiver survived: a normal request still completes.
        def client():
            matches = yield from fm.search(Rect(0, 0, 1, 1))
            return matches

        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)
        assert len(proc.value) == 500


class _FlakyEngine:
    """Offload engine whose reads fail until ``fail_until``."""

    def __init__(self, sim, fm, fail_until):
        self.sim = sim
        self.fm = fm
        self.fail_until = fail_until
        self.offload_successes = 0

    def read(self, request):
        if self.sim.now < self.fail_until:
            raise OffloadError("injected storm")
            yield  # pragma: no cover - makes this a generator
        result = yield from self.fm.execute(request)
        self.offload_successes += 1
        return result


class _AlwaysBusy(Algorithm1Policy):
    def decide_offload(self):
        return True  # always try to offload


def _adaptive_stack(fail_until, breaker_params):
    sim, server, fm_server, conn, fm, stats = _stack()
    breaker = (CircuitBreaker(sim, breaker_params)
               if breaker_params is not None else None)
    session = PolicySession(
        sim, fm, _FlakyEngine(sim, fm, fail_until), stats,
        _AlwaysBusy(sim, fm.mailbox, params=AdaptiveParams()),
        breaker=breaker,
    )
    return sim, session, breaker, stats


class TestOffloadBreaker:
    def test_without_breaker_errors_propagate(self):
        sim, session, _breaker, stats = _adaptive_stack(
            fail_until=1.0, breaker_params=None,
        )

        def client():
            yield from session.execute(
                Request(OP_SEARCH, Rect(0, 0, 1, 1))
            )

        proc = sim.process(client())
        with pytest.raises(OffloadError):
            sim.run_until_triggered(proc, limit=1.0)

    def test_storm_trips_breaker_and_fails_over(self):
        params = BreakerParams(failure_threshold=3, cooldown_s=50e-6,
                               cooldown_factor=2.0, max_cooldown_s=1e-3)
        sim, session, breaker, stats = _adaptive_stack(
            fail_until=200e-6, breaker_params=params,
        )
        rect = Rect(0.4, 0.4, 0.6, 0.6)

        done = []

        def client():
            for _ in range(80):
                matches = yield from session.execute(
                    Request(OP_SEARCH, rect)
                )
                done.append(matches)

        proc = sim.process(client())
        sim.run_until_triggered(proc, limit=1.0)

        # Every request completed despite the storm: failover served them.
        assert len(done) == 80
        assert int(breaker.trips) >= 1
        assert int(session.policy.offload_failovers) >= 3
        # While OPEN, requests were short-circuited straight to FM.
        assert int(breaker.short_circuits) >= 1
        # After the storm a half-open probe succeeded and closed it.
        assert breaker.state == CLOSED
        assert int(breaker.recoveries) >= 1
        assert session.engine.offload_successes > 0


class TestStaleHeartbeats:
    def test_missing_streak_cancels_offload_budget(self):
        policy = Algorithm1Policy(
            Simulator(), HeartbeatMailbox(),
            params=AdaptiveParams(N=4, T=0.95, Inv=1e-6),
            stale_after_missing=2,
        )
        policy.r_busy = 1
        policy.r_off = 5
        policy._t0 = -1.0  # force the Inv-elapsed branch

        assert policy.decide_offload() is True   # 1st miss: still drains
        assert policy.r_off == 4
        assert policy.decide_offload() is False  # 2nd miss: cancelled
        assert policy.r_off == 0 and policy.r_busy == 0
        assert int(policy.stale_resets) == 1
        assert int(policy.heartbeats_missing) == 2

    def test_fresh_heartbeat_resets_streak(self):
        mailbox = HeartbeatMailbox()
        policy = Algorithm1Policy(
            Simulator(), mailbox,
            params=AdaptiveParams(N=4, T=0.95, Inv=1e-6),
            stale_after_missing=2,
        )
        policy._t0 = -1.0
        policy.r_off = 3
        assert policy.decide_offload() is True   # miss #1
        from repro.msg import Heartbeat
        mailbox.deliver(Heartbeat(utilization=0.0, seq=7))
        policy._t0 = -1.0
        assert policy.decide_offload() is True   # fresh: streak cleared
        assert policy._missing_streak == 0
        policy._t0 = -1.0
        assert policy.decide_offload() is True   # miss #1 again, no reset
        assert int(policy.stale_resets) == 0
