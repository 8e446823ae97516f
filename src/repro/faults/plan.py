"""Fault plans: declarative, timed fault windows.

A plan is data, not behaviour — frozen dataclasses naming *what* goes
wrong and *when* (absolute simulated seconds).  The
:class:`~repro.faults.injector.FaultInjector` interprets the plan against
a live cluster.  Keeping the plan declarative makes scenarios composable
(a chaos scenario is just a plan constructor) and trivially reproducible:
the same plan + seed yields the same run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Type

#: Link fault directions, from the server's point of view: ``tx`` is the
#: server's transmit side (responses, heartbeats, read-reply data), ``rx``
#: its receive side (requests, read requests).
TX = "tx"
RX = "rx"
BOTH = "both"


@dataclass(frozen=True)
class FaultWindow:
    """Base class: a fault active during ``[start, end)`` seconds."""

    start: float
    end: float

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"window [{self.start}, {self.end}) is empty or inverted"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class LinkFault(FaultWindow):
    """Packet loss and/or extra latency on the server's access link.

    Loss is modelled at the reliable-transport level: a lost packet is
    retransmitted after ``retransmit_delay_s`` (geometric number of
    retransmits with probability ``loss_prob`` each), which is what both
    IB RC and TCP present to the layers above — delay, not corruption.
    """

    direction: str = BOTH
    loss_prob: float = 0.0
    retransmit_delay_s: float = 100e-6
    extra_latency_s: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.direction not in (TX, RX, BOTH):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError(
                f"loss_prob must be in [0, 1), got {self.loss_prob}"
            )
        if self.retransmit_delay_s < 0 or self.extra_latency_s < 0:
            raise ValueError("delays must be >= 0")


@dataclass(frozen=True)
class NicReadStall(FaultWindow):
    """Every server NIC stalls each one-sided read it serves.

    Models PCIe/DMA contention on the responder: every RDMA Read a
    server serves during the window takes ``stall_s`` longer at its NIC,
    before the data leaves the server.
    """

    stall_s: float = 5e-6

    def __post_init__(self):
        super().__post_init__()
        if self.stall_s <= 0:
            raise ValueError(f"stall_s must be > 0, got {self.stall_s}")


@dataclass(frozen=True)
class WorkerCrash(FaultWindow):
    """Fail-stop crash of per-connection server workers for the window.

    ``conn_ids`` selects which connections lose their worker on every
    server; empty means all.  Workers restart (and drain their backlog) at ``end``.  The
    crash is delivered at a request boundary — a worker mid-request
    finishes it first — because the simulated worker holds locks and core
    slots that a mid-flight kill would leak (a real fail-stop process
    death releases them via the OS; the simulation has no kernel to do
    that cleanup).
    """

    conn_ids: Tuple[int, ...] = ()


@dataclass(frozen=True)
class HeartbeatBlackout(FaultWindow):
    """The heartbeat service sends nothing during the window.

    Distinct from droppable-beat congestion (ring full): a blackout
    suppresses the send itself, as when the heartbeat thread is starved
    or its timer wedged.  Clients must notice via staleness, not errors.
    """


@dataclass(frozen=True)
class WriteStorm(FaultWindow):
    """Forced write intervals on hot nodes → version-retry storms.

    During the window the injector repeatedly opens torn windows
    (``begin_write``/``end_write``) of ``hold_s`` on the storm targets
    (by default the root), separated by ``gap_s``.  One-sided readers see
    unvalidatable snapshots and burn their retry/restart budgets — the
    stress test for the adaptive client's offload circuit breaker.
    """

    hold_s: float = 20e-6
    gap_s: float = 5e-6

    def __post_init__(self):
        super().__post_init__()
        if self.hold_s <= 0 or self.gap_s < 0:
            raise ValueError("need hold_s > 0 and gap_s >= 0")


@dataclass(frozen=True)
class ShardLoss(FaultWindow):
    """Fail-stop loss of whole server machines, named by shard id.

    During the window every per-connection worker of the named shards is
    crashed (restarted at ``end``) and the shard's heartbeat service goes
    silent — the server machine is gone, not merely slow.  The fabric
    stays up, so clients must notice via retry deadlines and heartbeat
    staleness, not connection errors; a router degrades to
    :class:`~repro.shard.router.PartialResult`\\ s.  A plain deployment's
    one server is shard 0.  Empty ``shard_ids`` means every shard (a
    full outage).
    """

    shard_ids: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ClientStall(FaultWindow):
    """Selected clients pause ``stall_s`` before each request they issue
    inside the window (GC pause / noisy neighbour).  Empty ``client_ids``
    means every client."""

    client_ids: Tuple[int, ...] = ()
    stall_s: float = 1e-3

    def __post_init__(self):
        super().__post_init__()
        if self.stall_s <= 0:
            raise ValueError(f"stall_s must be > 0, got {self.stall_s}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of fault windows.

    An empty plan is the no-op plan: every injector hook returns its
    zero-cost answer, and the builder skips attaching hooks entirely, so
    fault support costs nothing when unused.
    """

    faults: Tuple[FaultWindow, ...] = ()

    def __post_init__(self):
        for fault in self.faults:
            if not isinstance(fault, FaultWindow):
                raise TypeError(f"{fault!r} is not a FaultWindow")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def of_type(self, cls: Type[FaultWindow]) -> List[FaultWindow]:
        return [f for f in self.faults if isinstance(f, cls)]

    @property
    def horizon(self) -> float:
        """Latest window end (0.0 for an empty plan)."""
        return max((f.end for f in self.faults), default=0.0)

    def describe(self) -> List[str]:
        """One human-readable line per fault, in time order."""
        return [
            f"[{f.start * 1e3:7.3f}ms, {f.end * 1e3:7.3f}ms) "
            f"{type(f).__name__}"
            for f in sorted(self.faults, key=lambda f: (f.start, f.end))
        ]


#: The canonical empty plan.
EMPTY_PLAN = FaultPlan()
