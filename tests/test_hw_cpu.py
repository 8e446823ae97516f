"""Unit tests for the CPU pool and the OS-scheduler model."""

import random

import pytest

from repro.hw import (
    EVENT_WAKEUP_COST,
    POLL_GRANULARITY,
    CorePool,
    SchedulerModel,
)
from repro.sim import Simulator


def mean_polling_wakeup_delay(model: SchedulerModel, n_threads: int) -> float:
    """Expected value of ``model.polling_wakeup_delay(n_threads)``: the
    poll granularity plus half the uniform oversubscription penalty."""
    ratio = model.oversubscription(n_threads)
    if ratio <= 1.0:
        return POLL_GRANULARITY
    return POLL_GRANULARITY + ratio * ratio * model.quantum / 2.0


class TestCorePool:
    def test_parallel_execution_up_to_capacity(self):
        sim = Simulator()
        pool = CorePool(sim, capacity=2)
        finish = []

        def work(sim, pool, tag):
            yield from pool.execute(10.0)
            finish.append((tag, sim.now))

        for tag in "abc":
            sim.process(work(sim, pool, tag))
        sim.run()
        # a and b run in parallel; c waits for a free core
        assert finish == [("a", 10.0), ("b", 10.0), ("c", 20.0)]

    def test_utilization_accounting(self):
        sim = Simulator()
        pool = CorePool(sim, capacity=2)

        def work(sim, pool):
            yield from pool.execute(5.0)

        sim.process(work(sim, pool))
        sim.run(until=10.0)
        # one core busy for 5 of 10 seconds over 2 cores = 0.25
        assert pool.utilization() == pytest.approx(0.25)

    def test_total_work_recorded(self):
        sim = Simulator()
        pool = CorePool(sim, capacity=1)

        def work(sim, pool):
            yield from pool.execute(3.0)
            yield from pool.execute(4.0)

        sim.process(work(sim, pool))
        sim.run()
        assert pool.total_work_seconds == pytest.approx(7.0)

    def test_zero_cost_work_is_legal(self):
        sim = Simulator()
        pool = CorePool(sim, capacity=1)

        def work(sim, pool):
            yield from pool.execute(0.0)
            return sim.now

        p = sim.process(work(sim, pool))
        sim.run()
        assert p.value == 0.0

    def test_negative_cost_rejected(self):
        sim = Simulator()
        pool = CorePool(sim, capacity=1)

        def work(sim, pool):
            yield from pool.execute(-1.0)

        sim.process(work(sim, pool))
        with pytest.raises(ValueError):
            sim.run()

    def test_window_utilization_resets(self):
        sim = Simulator()
        pool = CorePool(sim, capacity=1)

        def work(sim, pool, out):
            yield from pool.execute(4.0)
            out.append(pool.window_utilization())
            yield sim.timeout(4.0)
            out.append(pool.window_utilization())

        out = []
        sim.process(work(sim, pool, out))
        sim.run()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)


class TestSchedulerModel:
    def test_no_oversubscription_is_poll_granularity(self):
        model = SchedulerModel(cores=28)
        assert model.polling_wakeup_delay(10) == POLL_GRANULARITY
        assert model.polling_wakeup_delay(28) == POLL_GRANULARITY

    def test_oversubscribed_delay_grows_quadratically(self):
        model = SchedulerModel(cores=28, rng=random.Random(1))
        mean_80 = mean_polling_wakeup_delay(model, 80)
        mean_320 = mean_polling_wakeup_delay(model, 320)
        # 4x the threads -> ~16x the oversubscription penalty
        penalty_80 = mean_80 - POLL_GRANULARITY
        penalty_320 = mean_320 - POLL_GRANULARITY
        assert penalty_320 / penalty_80 == pytest.approx(16.0)

    def test_sampled_delay_within_bounds(self):
        model = SchedulerModel(cores=4, quantum=1e-5, rng=random.Random(7))
        ratio = 16 / 4
        upper = POLL_GRANULARITY + ratio * ratio * 1e-5
        for _ in range(200):
            d = model.polling_wakeup_delay(16)
            assert POLL_GRANULARITY <= d <= upper

    def test_sampled_mean_approaches_model_mean(self):
        model = SchedulerModel(cores=4, quantum=1e-5, rng=random.Random(3))
        samples = [model.polling_wakeup_delay(16) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(mean_polling_wakeup_delay(model, 16),
                                     rel=0.05)

    def test_event_wakeup_is_constant(self):
        model = SchedulerModel(cores=2)
        assert model.event_wakeup_delay() == EVENT_WAKEUP_COST
        # Independent of thread count by construction: no argument exists.

    def test_validation(self):
        with pytest.raises(ValueError):
            SchedulerModel(cores=0)
        with pytest.raises(ValueError):
            SchedulerModel(cores=2, quantum=0)
        model = SchedulerModel(cores=2)
        with pytest.raises(ValueError):
            model.polling_wakeup_delay(0)

    def test_oversubscription_ratio(self):
        model = SchedulerModel(cores=10)
        assert model.oversubscription(5) == 1.0
        assert model.oversubscription(30) == 3.0
