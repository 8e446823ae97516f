"""Unit tests for measurement trackers."""

import math

import pytest

from repro.sim import (
    LatencyRecorder,
    Simulator,
    UtilizationTracker,
)


class TestLatencyRecorder:
    def test_empty(self):
        r = LatencyRecorder()
        assert r.count == 0
        assert math.isnan(r.mean)

    def test_percentiles(self):
        r = LatencyRecorder()
        for v in range(1, 101):
            r.record(float(v))
        assert r.percentile(0) == 1.0
        assert r.percentile(100) == 100.0
        assert r.percentile(50) == pytest.approx(50.5)
        assert r.percentile(99) == pytest.approx(99.01)

    def test_percentile_empty_is_nan(self):
        r = LatencyRecorder()
        assert math.isnan(r.percentile(50))

    def test_percentile_bounds(self):
        r = LatencyRecorder()
        r.record(1.0)
        with pytest.raises(ValueError):
            r.percentile(101)

    def test_mean_tracks_stats(self):
        r = LatencyRecorder()
        r.record(10.0)
        r.record(20.0)
        assert r.mean == pytest.approx(15.0)
        assert r.count == 2

    def test_mean_is_the_streaming_welford_float(self):
        """The mean is updated per sample, not summed at the end: the
        reported float (and so every pinned digest) depends on it."""
        data = [0.1, 0.7, 1e-6, 3.3, 0.2]
        r = LatencyRecorder()
        mean = 0.0
        for n, v in enumerate(data, 1):
            r.record(v)
            mean += (v - mean) / n
        assert r.mean == mean


class TestUtilizationTracker:
    def test_fully_busy(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=2)
        u.set_busy(2)
        sim.run(until=10.0)
        assert u.utilization_since_start() == pytest.approx(1.0)

    def test_half_busy(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=2)
        u.set_busy(1)
        sim.run(until=10.0)
        assert u.utilization_since_start() == pytest.approx(0.5)

    def test_time_weighted_transitions(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=1)

        def proc(sim, u):
            u.set_busy(1)
            yield sim.timeout(3.0)
            u.set_busy(0)
            yield sim.timeout(7.0)

        sim.process(proc(sim, u))
        sim.run()
        assert u.utilization_since_start() == pytest.approx(0.3)

    def test_window_reset(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=1)

        def proc(sim, u, readings):
            u.set_busy(1)
            yield sim.timeout(5.0)
            readings.append(u.window_utilization())
            u.set_busy(0)
            yield sim.timeout(5.0)
            readings.append(u.window_utilization())

        readings = []
        sim.process(proc(sim, u, readings))
        sim.run()
        assert readings[0] == pytest.approx(1.0)
        assert readings[1] == pytest.approx(0.0)

    def test_busy_bounds_validated(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=2)
        with pytest.raises(ValueError):
            u.set_busy(3)
        with pytest.raises(ValueError):
            u.set_busy(-1)

    def test_adjust(self):
        sim = Simulator()
        u = UtilizationTracker(sim, capacity=4)
        u.adjust(+2)
        assert u.busy == 2
        u.adjust(-1)
        assert u.busy == 1
