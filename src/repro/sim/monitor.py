"""Measurement helpers: latency samples and time-weighted utilization.

The CPU utilization heartbeats and the latency distributions of Figs 7-14
are computed by these trackers, so they are deliberately small and
heavily tested.
"""

from __future__ import annotations

import math
from typing import List

from .kernel import Simulator


class LatencyRecorder:
    """Stores every sample so percentiles can be computed exactly.

    Latencies per experiment are at most a few hundred thousand floats,
    which is cheap to keep.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.count = 0
        self._mean = 0.0

    def record(self, value: float) -> None:
        self.samples.append(value)
        self.count += 1
        self._mean += (value - self._mean) / self.count

    @property
    def mean(self) -> float:
        """Streaming (Welford) mean of the samples; NaN before the first."""
        return self._mean if self.count else math.nan

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self.samples:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac


class UtilizationTracker:
    """Time-weighted busy fraction of a pool of ``capacity`` servers.

    Call :meth:`set_busy` whenever the number of busy servers changes.
    Utilization over a window is busy-server-time / (capacity * window).
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._busy = 0
        self._last_change = sim.now
        self._busy_time = 0.0  # cumulative busy * seconds
        self._window_start = sim.now
        self._window_busy_time = 0.0

    def _accumulate(self) -> None:
        elapsed = self.sim.now - self._last_change
        if elapsed > 0:
            self._busy_time += self._busy * elapsed
            self._window_busy_time += self._busy * elapsed
        self._last_change = self.sim.now

    def set_busy(self, busy: int) -> None:
        if busy < 0 or busy > self.capacity:
            raise ValueError(f"busy={busy} outside [0, {self.capacity}]")
        self._accumulate()
        self._busy = busy

    def adjust(self, delta: int) -> None:
        self.set_busy(self._busy + delta)

    @property
    def busy(self) -> int:
        return self._busy

    def utilization_since_start(self) -> float:
        self._accumulate()
        total = self.sim.now * self.capacity
        return self._busy_time / total if total > 0 else 0.0

    def window_utilization(self) -> float:
        """Utilization since the last reading, which starts a new window
        (the heartbeat reading)."""
        self._accumulate()
        window = self.sim.now - self._window_start
        if window <= 0:
            return float(self._busy) / self.capacity
        value = self._window_busy_time / (window * self.capacity)
        self._window_start = self.sim.now
        self._window_busy_time = 0.0
        return value
