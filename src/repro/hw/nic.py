"""NIC model: per-operation processing and outstanding-request limits.

The NIC sits between a host and its fabric.  For this reproduction only two
properties matter beyond the link itself (which lives in ``repro.net``):

* per-WQE processing time (it bounds small-message rate), and
* the cap on outstanding one-sided reads per QP (ConnectX-class hardware
  allows 16; the multi-issue traversal must respect it).

A read that pays the doorbell's post overhead claims its slot when that
overhead ends.  :meth:`Nic.claim_read_slot_early` lets it claim at post
time instead — so the overhead and the WQE become one wake-up — whenever
that cannot change which read gets a slot (see the method).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List

from ..net.fabric import FabricProfile
from ..sim.kernel import Event, Simulator

#: Outstanding RDMA Reads per QP (IB spec default for ConnectX NICs).
DEFAULT_MAX_OUTSTANDING_READS = 16


class Nic:
    """One host's network card."""

    def __init__(
        self,
        sim: Simulator,
        profile: FabricProfile,
        name: str = "nic",
        max_outstanding_reads: int = DEFAULT_MAX_OUTSTANDING_READS,
    ):
        if max_outstanding_reads < 1:
            raise ValueError(
                f"max_outstanding_reads must be >= 1, got {max_outstanding_reads}"
            )
        self.sim = sim
        self.profile = profile
        self.name = name
        self.max_outstanding_reads = max_outstanding_reads
        #: Read slots held, and the grant callbacks of the claims waiting
        #: for one (FIFO; only while every slot is held).
        self._reads_held = 0
        self._read_waiters: Deque[Callable[[Event], None]] = deque()
        #: Reads that claimed their slot early, in post order; claims
        #: whose due instant has passed are dropped lazily.
        self._early: List[Any] = []
        #: Reads still in a post overhead that will claim at its end.
        self._stepwise_posts = 0
        self.ops_processed = 0
        #: Optional fault injector (see repro.faults); when set, one-sided
        #: reads served by this NIC consult it for a per-read stall.
        self.fault_injector = None

    def read_stall_s(self) -> float:
        """Extra responder-side delay for one RDMA Read (0.0 normally)."""
        injector = self.fault_injector
        if injector is None:
            return 0.0
        return injector.nic_read_stall()

    def claim_read_slot(self, granted: Callable[[Event], None]) -> bool:
        """Claim an outstanding-read slot now: True if one was free;
        otherwise ``granted(event)`` runs once a release hands one over
        (its own queue entry, at the release instant)."""
        if self._reads_held < self.max_outstanding_reads:
            self._reads_held += 1
            return True
        self._read_waiters.append(granted)
        return False

    def release_read_slot(self) -> None:
        """Give a slot back; the oldest waiting claim gets it."""
        if self._read_waiters:
            sim = self.sim
            sim.wake_at(sim.now).callbacks.append(
                self._read_waiters.popleft())
        else:
            self._reads_held -= 1

    def claim_read_slot_early(self, read: Any, spare: int = 0) -> bool:
        """Claim, at post time, the slot ``read`` would claim once its post
        overhead ends, at ``read.due``.

        Granted only when claiming early cannot change who gets a slot: no
        read is still in its post overhead — it would claim first — and
        after this claim at least ``spare`` slots stay free for reads that
        claim right now (the rest of a doorbell batch).  Reads claiming
        later in post order claim later either way, and if a doorbell
        batch posted before the due instant cannot fit, :meth:`make_room`
        hands the claim back.  Otherwise returns False and counts ``read``
        as claiming stepwise: it must call :meth:`claim_read_slot_due`
        when its overhead ends.
        """
        if (self._stepwise_posts
                or self._reads_held + spare >= self.max_outstanding_reads):
            self._stepwise_posts += 1
            return False
        early = self._early
        if len(early) >= 64:
            now = self.sim.now
            early[:] = [claimer for claimer in early if claimer.due >= now]
        early.append(read)
        self._reads_held += 1
        return True

    def claim_read_slot_due(self, granted: Callable[[Event], None]) -> bool:
        """The stepwise claim of a read whose post overhead just ended."""
        self._stepwise_posts -= 1
        return self.claim_read_slot(granted)

    def make_room(self, n: int) -> None:
        """Prepare for ``n`` reads claiming slots now (a doorbell batch's
        chained reads, which pay no post overhead).

        Those claims come before the stepwise claim of every early claimer
        whose due instant has not passed.  If the ``n`` do not all fit,
        each such claimer hands its slot back (``read.unclaim()``, False
        if its wake-up already fired) and claims stepwise at its due
        instant after all, so the batch sees exactly the slots the
        stepwise model shows it.
        """
        if self._reads_held + n <= self.max_outstanding_reads:
            return
        now = self.sim.now
        for read in self._early:
            if read.due >= now and read.unclaim():
                self._stepwise_posts += 1
        self._early.clear()

    @property
    def read_claims_waiting(self) -> bool:
        """Whether a release now would hand the slot over (and queue the
        grant) rather than free it."""
        return bool(self._read_waiters)
