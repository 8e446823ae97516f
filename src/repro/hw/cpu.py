"""CPU models: a pool of cores and an OS-scheduler oversubscription model.

Two distinct things are modelled here:

* :class:`CorePool` — ``n`` identical cores executing work items FCFS, with
  time-weighted utilization accounting.  All *useful* work (R-tree traversal,
  TCP kernel processing, request parsing) runs through a pool.
* :class:`SchedulerModel` — the round-robin OS thread scheduler that the
  paper's Fig 7 experiment stresses.  With one busy-polling server thread per
  RDMA connection, a message arriving for a descheduled thread waits until
  the OS runs that thread again; with many more threads than cores this
  wake-up delay dominates and search latency grows quadratically, which is
  exactly what the event-based redesign fixes.
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from ..sim.kernel import Simulator
from ..sim.monitor import UtilizationTracker
from ..sim.resources import Resource

#: Default scheduling quantum, seconds.  Linux CFS granularity is in the
#: 0.75-6 ms range; the effective reschedule interval for pinned server
#: threads is far smaller.  The value is calibrated against Fig 7 (see
#: the ``fig07`` row of benchmarks/claims.py) and only its order of
#: magnitude matters.
DEFAULT_QUANTUM = 12e-6

#: How strongly always-runnable polling threads slow down the threads doing
#: useful work (fraction of the oversubscription ratio showing up as service
#: inflation).  Calibrated so the polling fast-messaging baseline loses
#: ~3x throughput at 256 connections (paper Figs 7/10).
POLLING_INTERFERENCE = 0.1

#: Cost of a poll-loop iteration noticing a message when the thread is
#: already on a core (cache-line probe granularity).
POLL_GRANULARITY = 0.3e-6

#: Cost of waking a blocked thread through an event channel (interrupt +
#: context switch).
EVENT_WAKEUP_COST = 2.0e-6


class CorePool:
    """``capacity`` cores with a FIFO run queue and utilization tracking."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "cpu"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._cores = Resource(sim, capacity=capacity)
        self.tracker = UtilizationTracker(sim, capacity=capacity)
        self.total_work_seconds = 0.0

    @property
    def busy_cores(self) -> int:
        return self._cores.count

    @property
    def run_queue_length(self) -> int:
        return self._cores.queue_length

    def execute(self, cost: float) -> Generator:
        """Run ``cost`` seconds of work on one core (process generator).

        Usage: ``yield sim.process(pool.execute(cost))`` or delegate with
        ``yield from pool.execute(cost)`` inside another process.
        """
        if cost < 0:
            raise ValueError(f"negative work cost {cost}")
        req = self._cores.request()
        try:
            yield req
            self.tracker.adjust(+1)
            try:
                yield self.sim.timeout(cost)
                self.total_work_seconds += cost
            finally:
                self.tracker.adjust(-1)
        finally:
            req.release()

    def utilization(self) -> float:
        """Busy fraction since t=0 (for end-of-run reporting)."""
        return self.tracker.utilization_since_start()

    def window_utilization(self, reset: bool = True) -> float:
        """Busy fraction since the previous heartbeat window."""
        return self.tracker.window_utilization(reset=reset)


class SchedulerModel:
    """Wake-up latency of server threads under the OS scheduler.

    ``polling_wakeup_delay`` answers: a request message has just landed in
    the ring buffer of connection *i*; how long until the busy-polling thread
    serving that connection notices it?

    * If threads <= cores, every thread is always on a core: the delay is
      one poll-loop iteration.
    * If threads > cores, the thread must wait for its next round-robin
      slot.  The number of slots ahead of it grows with the oversubscription
      ratio, and the time per slot also grows because each scheduled
      polling thread burns its whole quantum whether or not it has work.
      The expected delay therefore scales with the *square* of the
      oversubscription ratio — the empirical quadratic of the paper's
      Fig 7.  We sample uniformly in ``[0, (n/c)^2 * quantum]``.

    ``event_wakeup_delay`` is the blocked-thread path: a constant interrupt +
    context-switch cost, independent of the number of connections.
    """

    def __init__(
        self,
        cores: int,
        quantum: float = DEFAULT_QUANTUM,
        rng: Optional[random.Random] = None,
    ):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        if quantum <= 0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        self.cores = cores
        self.quantum = quantum
        self.rng = rng or random.Random(0)

    def oversubscription(self, n_threads: int) -> float:
        """Ratio of runnable threads to cores, >= 1."""
        return max(1.0, n_threads / self.cores)

    def polling_wakeup_delay(self, n_threads: int) -> float:
        """Sampled delay until a polling thread notices its message."""
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        ratio = self.oversubscription(n_threads)
        if ratio <= 1.0:
            return POLL_GRANULARITY
        return POLL_GRANULARITY + self.rng.uniform(0.0, ratio * ratio * self.quantum)

    def mean_polling_wakeup_delay(self, n_threads: int) -> float:
        """Expected value of :meth:`polling_wakeup_delay` (for tests)."""
        ratio = self.oversubscription(n_threads)
        if ratio <= 1.0:
            return POLL_GRANULARITY
        return POLL_GRANULARITY + ratio * ratio * self.quantum / 2.0

    def event_wakeup_delay(self) -> float:
        """Delay to wake a thread blocked on a completion channel."""
        return EVENT_WAKEUP_COST

    def service_inflation(self, n_threads: int) -> float:
        """CPU-time inflation of useful work under busy-poll interference.

        Polling threads never yield, so threads executing R-tree work only
        get a share of their core; empirically a fraction
        ``POLLING_INTERFERENCE`` of the oversubscription ratio shows up as
        lost service capacity.  Returns 1.0 when threads <= cores.
        """
        ratio = self.oversubscription(n_threads)
        return 1.0 + POLLING_INTERFERENCE * (ratio - 1.0)
