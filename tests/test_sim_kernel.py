"""Unit tests for the DES kernel (events, processes, composites)."""

import pytest

from repro.sim import (
    SimulationError,
    Simulator,
    all_of,
    any_of,
)

from .stepwise import Interrupt, InterruptibleProcess


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 5.0
    assert sim.now == 5.0


def test_zero_delay_timeout_runs_at_same_instant():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [0.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_process_return_value_via_yield():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return 42

    def parent(sim):
        result = yield sim.process(child(sim))
        return result * 2

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == 84


def test_events_process_in_fifo_order_at_same_time():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ["a", "b", "c"]:
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append((sim.now, value))

    def trigger(sim, ev):
        yield sim.timeout(2.0)
        ev.succeed("done")

    sim.process(waiter(sim, ev))
    sim.process(trigger(sim, ev))
    sim.run()
    assert got == [(2.0, "done")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim, ev))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("exploded")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="exploded"):
        sim.run()


def test_waited_on_process_exception_propagates_to_parent():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError:
            return "handled"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "handled"


def test_yield_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError, match="not an Event"):
        sim.run()


def test_run_until_stops_clock_at_until():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100.0)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_triggered_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(7.0)
        return "finished"

    p = sim.process(proc(sim))
    assert sim.run_until_triggered(p) == "finished"
    assert sim.now == 7.0


def test_run_until_triggered_detects_starvation():
    sim = Simulator()
    ev = sim.event()  # never triggered
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until_triggered(ev)


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    def interrupter(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt(cause="wake-up")

    victim = InterruptibleProcess(sim, sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(3.0, "wake-up")]


def test_interrupt_before_start_is_thrown_at_the_first_instruction():
    sim = Simulator()
    log = []

    def victim(sim):
        log.append("ran")
        yield sim.timeout(1.0)

    started = InterruptibleProcess(sim, victim(sim))
    assert not started.has_started
    sim.run(until=0.5)
    assert started.has_started and log == ["ran"]
    # Interrupted before its Initialize fires: that wake-up is stale, and
    # the Interrupt reaches the generator before its first instruction.
    early = InterruptibleProcess(sim, victim(sim))
    early.interrupt(cause="early")
    with pytest.raises(Interrupt):
        sim.run()
    assert log == ["ran"]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = InterruptibleProcess(sim, quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_is_alive_transitions():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def child(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def parent(sim):
        procs = [
            sim.process(child(sim, 3.0, "slow")),
            sim.process(child(sim, 1.0, "fast")),
        ]
        values = yield all_of(sim, procs)
        return values

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ["slow", "fast"]
    assert sim.now == 3.0


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def parent(sim):
        values = yield all_of(sim, [])
        return (sim.now, values)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == (0.0, [])


def test_all_of_propagates_failure():
    sim = Simulator()

    def ok(sim):
        yield sim.timeout(1.0)

    def bad(sim):
        yield sim.timeout(2.0)
        raise RuntimeError("child failed")

    def parent(sim):
        try:
            yield all_of(sim, [sim.process(ok(sim)), sim.process(bad(sim))])
        except RuntimeError:
            return "caught"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "caught"


def test_any_of_returns_first_with_index():
    sim = Simulator()

    def child(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def parent(sim):
        procs = [
            sim.process(child(sim, 5.0, "slow")),
            sim.process(child(sim, 2.0, "fast")),
        ]
        index, value = yield any_of(sim, procs)
        return (sim.now, index, value)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == (2.0, 1, "fast")


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        any_of(sim, [])


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf(sim):
        yield sim.timeout(1.0)
        return 1

    def middle(sim):
        value = yield sim.process(leaf(sim))
        yield sim.timeout(1.0)
        return value + 1

    def root(sim):
        value = yield sim.process(middle(sim))
        return value + 1

    p = sim.process(root(sim))
    sim.run()
    assert p.value == 3
    assert sim.now == 2.0


def test_yielding_already_processed_event_resumes_immediately():
    sim = Simulator()

    def proc(sim, ev):
        yield sim.timeout(5.0)
        value = yield ev  # triggered long ago
        return (sim.now, value)

    ev = sim.event()
    ev.succeed("early")
    p = sim.process(proc(sim, ev))
    sim.run()
    assert p.value == (5.0, "early")


def test_interrupt_delivered_inside_resource_wait():
    """Interrupting a process waiting on a resource releases cleanly."""
    from repro.sim import Resource

    sim = Simulator()
    res = Resource(sim, capacity=1)
    outcome = []

    def holder(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(100.0)

    def waiter(sim, res):
        req = res.request()
        try:
            yield req
        except Interrupt:
            req.release()  # cancel the queued claim
            outcome.append("interrupted")

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt()

    sim.process(holder(sim, res))
    victim = InterruptibleProcess(sim, waiter(sim, res))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert outcome == ["interrupted"]
    assert res.queue_length == 0


def test_process_finishing_at_same_instant_as_interrupt():
    """An interrupt scheduled for the instant a process dies must not
    crash the kernel (the stale wake-up is discarded)."""
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    def interrupter(sim, victim):
        yield sim.timeout(1.0)
        if victim.is_alive:
            victim.interrupt()

    victim = InterruptibleProcess(sim, quick(sim))
    sim.process(interrupter(sim, victim))
    sim.run()  # must simply not raise
    assert not victim.is_alive


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(float(i % 17))
        done.append(i)

    for i in range(1000):
        sim.process(proc(sim, i))
    sim.run()
    assert len(done) == 1000


# -- edge cases around the optimized fast paths ------------------------------


def test_interrupt_at_same_instant_as_abandoned_trigger():
    """Interrupt delivered at the very instant the abandoned event fires.

    The interrupter runs first at t=5 (created first, so its timeout pops
    first) and interrupts the victim; the victim's own t=5 timeout — now
    abandoned — pops at the same instant and must be discarded as a stale
    wake-up, resuming the victim exactly once (with the Interrupt).
    """
    sim = Simulator()
    events = []

    def interrupter(sim, get_victim):
        yield sim.timeout(5.0)
        get_victim().interrupt(cause="now")

    def victim(sim):
        try:
            yield sim.timeout(5.0)
            events.append("timeout")
        except Interrupt as exc:
            events.append(("interrupted", exc.cause, sim.now))
        # Keep living past the instant so the stale trigger has a live
        # process to (wrongly) wake; it must not.
        yield sim.timeout(1.0)
        events.append("done")

    holder = {}
    sim.process(interrupter(sim, lambda: holder["v"]))
    holder["v"] = InterruptibleProcess(sim, victim(sim))
    sim.run()
    assert events == [("interrupted", "now", 5.0), "done"]


def test_timeout_pooling_returns_fresh_values():
    """Recycled Timeout instances must be indistinguishable from fresh
    ones: every wait sees exactly the value/delay it asked for."""
    sim = Simulator()
    seen = []

    def looper(sim, n):
        for i in range(n):
            value = yield sim.timeout(0.25, value=("tick", i))
            seen.append((sim.now, value))

    sim.process(looper(sim, 200))
    sim.run()
    assert len(seen) == 200
    for i, (now, value) in enumerate(seen):
        assert value == ("tick", i)
        assert now == pytest.approx(0.25 * (i + 1))


def test_timeout_pool_reuses_instances():
    """After a timeout is processed its instance may be recycled; a
    subsequent sim.timeout() must still behave like a brand-new event."""
    sim = Simulator()
    first = sim.timeout(1.0, value="a")
    sim.run()
    second = sim.timeout(2.0, value="b")
    assert second.triggered and not second.processed
    assert second.delay == 2.0
    sim.run()
    assert second.value == "b"
    assert sim.now == 3.0
    # Whether or not `second is first`, the observable state is fresh.
    assert first.delay in (1.0, 2.0)


def test_run_until_processes_event_exactly_at_until():
    """run(until=t) must still process an event scheduled exactly at t."""
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert fired == [10.0]
    assert sim.now == 10.0
    # And an event strictly after `until` is left on the queue.
    sim2 = Simulator()

    def late(sim):
        yield sim.timeout(10.0000001)
        fired.append("late")

    sim2.process(late(sim2))
    sim2.run(until=10.0)
    assert "late" not in fired
    assert sim2.now == 10.0


def test_finished_process_with_no_waiter_is_processed_immediately():
    """A process nobody waits on skips its no-op queue entry; yielding it
    afterwards must still return its value through the processed path."""
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "result"

    got = []

    def late_waiter(sim, proc):
        yield sim.timeout(5.0)  # long after the worker finished
        value = yield proc
        got.append(value)

    p = sim.process(worker(sim))
    sim.process(late_waiter(sim, p))
    sim.run()
    assert p.processed
    assert got == ["result"]


def test_failed_process_with_no_waiter_still_crashes_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


# -- wake_at: one queue entry for a run of fixed delays ---------------------

def test_wake_at_rejects_a_time_in_the_past():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.wake_at(1.5)
    sim.wake_at(2.0)  # "now" is not the past


def test_wake_at_reuses_pooled_timeouts():
    sim = Simulator()
    first = sim.wake_at(1.0, value="a")
    sim.run()
    second = sim.wake_at(3.0, value="b")
    assert second is first  # recycled, and fully re-initialized
    assert second.triggered and not second.processed
    assert second.delay == 2.0
    sim.run()
    assert second.value == "b" and sim.now == 3.0


def test_wake_at_fires_at_exactly_the_stepwise_float():
    # IB post overhead, WQE and latency: from t=1.1 us their float sum
    # depends on the association order.
    a, b, c = 0.2e-6, 0.25e-6, 0.9e-6
    stepwise = Simulator(start_time=1.1e-6)

    def chain():
        yield stepwise.timeout(a)
        yield stepwise.timeout(b)
        yield stepwise.timeout(c)

    stepwise.process(chain())
    stepwise.run()
    fused = Simulator(start_time=1.1e-6)
    now = fused.now
    fused.wake_at(((now + a) + b) + c)
    fused.run()
    assert fused.now == stepwise.now  # bit-identical, not approx
    assert now + (a + b + c) != stepwise.now  # the order does matter here


def test_same_instant_wakes_fire_in_creation_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.wake_at(5.0).callbacks.append(lambda _e, tag=tag: order.append(tag))
    sim.timeout(5.0).callbacks.append(lambda _e: order.append("t"))
    sim.wake_at(5.0).callbacks.append(lambda _e: order.append("d"))
    sim.run()
    assert order == ["a", "b", "c", "t", "d"]


def test_wake_twin_fires_right_behind_its_event_at_any_instant():
    sim = Simulator()
    order = []
    first = sim.wake_at(1.0)
    later = sim.wake_at(2.0)
    later.callbacks.append(lambda _e: order.append("later"))
    # Created last, but ordered as if created together with ``first``.
    sim.wake_twin(first, 2.0).callbacks.append(
        lambda _e: order.append("twin"))
    sim.run()
    assert order == ["twin", "later"]
    assert sim._seq == 3  # the twin is counted like any other entry


def test_retime_keeps_the_schedule_sequence():
    sim = Simulator()
    order = []
    moved = sim.wake_at(9.0)
    moved.callbacks.append(lambda _e: order.append("moved"))
    sim.wake_at(4.0).callbacks.append(lambda _e: order.append("other"))
    sim.retime(moved, 4.0)
    with pytest.raises(ValueError):
        sim.retime(moved, 5.0)  # only ever earlier
    sim.run()
    # At t=4 it fires where it would have had it been scheduled for 4.
    assert order == ["moved", "other"] and sim.now == 4.0


# -- start: a process whose first step runs inside the call ----------------

def test_start_runs_the_first_step_before_returning():
    sim = Simulator()
    log = []

    def proc():
        log.append(("first", sim.now))
        yield sim.timeout(1.0)
        log.append(("second", sim.now))

    process = sim.start(proc())
    assert log == [("first", 0.0)]
    assert process.is_alive
    assert sim._seq == 1  # the timeout; no Initialize entry
    sim.run()
    assert log == [("first", 0.0), ("second", 1.0)]
    assert not process.is_alive


def test_start_first_step_exception_surfaces_from_run():
    sim = Simulator()

    def bad():
        raise RuntimeError("boom")
        yield  # pragma: no cover - makes this a generator

    sim.start(bad())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_started_process_value_reaches_a_waiter():
    sim = Simulator()

    def quick():
        return "done"
        yield  # pragma: no cover - makes this a generator

    def slow():
        yield sim.timeout(2.0)
        return "late"

    got = []

    def waiter(process):
        got.append((yield process))

    for process in (sim.start(quick()), sim.start(slow())):
        sim.process(waiter(process))
    sim.run()
    assert got == ["done", "late"]


# -- hop: a same-instant wake-up run inline when it would be next anyway ---

def _waiter(sim, event, log):
    def proc():
        value = yield event
        log.append(("woke", sim.now, value))
    return sim.process(proc())


def test_hop_runs_inline_when_the_instant_is_otherwise_empty():
    sim = Simulator()
    log = []
    event = sim.event()
    _waiter(sim, event, log)

    def fire(_timeout):
        sim.hop(event, "v")
        # The waiter ran inside the hop, before its caller returned.
        log.append(("after", sim.now, event.processed))

    sim.timeout(1.0).callbacks.append(fire)
    sim.run()
    assert log == [("woke", 1.0, "v"), ("after", 1.0, True)]
    assert sim._seq == 2  # Initialize and the timeout: the hop queued nothing


def test_hop_is_queued_behind_an_entry_due_now():
    sim = Simulator()
    log = []
    event = sim.event()
    _waiter(sim, event, log)

    def fire(_timeout):
        sim.hop(event, "v")
        log.append(("after", event.processed))

    sim.timeout(1.0).callbacks.append(fire)
    sim.timeout(1.0).callbacks.append(lambda _e: log.append(("due", 1.0)))
    sim.run()
    # An entry was still due at t=1, so the hop took its own entry after it.
    assert log == [("after", False), ("due", 1.0), ("woke", 1.0, "v")]
    assert sim._seq == 4


def test_hop_is_queued_while_the_entry_has_callbacks_left():
    sim = Simulator()
    log = []
    event = sim.event()
    _waiter(sim, event, log)
    timeout = sim.timeout(1.0)
    timeout.callbacks.append(lambda _e: sim.hop(event, "v"))
    timeout.callbacks.append(lambda _e: log.append(("second callback",)))
    sim.run()
    # Stepwise, the second callback runs before the hop's entry: it still
    # does, so the hop was queued.
    assert log == [("second callback",), ("woke", 1.0, "v")]
    assert sim._seq == 3


def test_hop_is_queued_from_a_start_first_step():
    sim = Simulator()
    log = []
    event = sim.event()
    _waiter(sim, event, log)

    def first_step():
        sim.hop(event, "v")
        return
        yield  # pragma: no cover - makes this a generator

    def caller(_timeout):
        sim.start(first_step())
        log.append(("caller goes on",))

    sim.timeout(1.0).callbacks.append(caller)
    sim.run()
    assert log == [("caller goes on",), ("woke", 1.0, "v")]
    assert sim._seq == 3


def test_hop_outside_the_run_loop_is_queued():
    sim = Simulator()
    event = sim.event()
    sim.hop(event)
    assert event.triggered and not event.processed
    with pytest.raises(SimulationError):
        sim.hop(event)  # like succeed: once


def test_hop_call_and_fire():
    sim = Simulator()
    log = []
    sim.timeout(1.0).callbacks.append(
        lambda _e: sim.hop_call(lambda arg: log.append(("hop", arg))))
    event = sim.event()
    _waiter(sim, event, log)

    def fire(_timeout):
        sim.wake_at(sim.now)  # an entry due now does not matter to fire
        sim.fire(event, "v")
        log.append(("after", event.processed))

    sim.timeout(2.0).callbacks.append(fire)
    sim.run()
    assert log == [("hop", None), ("woke", 2.0, "v"), ("after", True)]


def test_urgent_runs_ahead_of_normal_entries_of_its_instant():
    sim = Simulator()
    order = []
    sim.wake_at(0.0).callbacks.append(lambda _e: order.append("normal"))
    sim.urgent(lambda _e: order.append("urgent"))
    sim.run()
    assert order == ["urgent", "normal"]
