"""The fault injector: interprets a :class:`FaultPlan` against a cluster.

Two kinds of faults exist:

* **passive** faults are consulted from hooks on the hot paths — the
  link asks for a transfer penalty, the NIC for a read stall, the
  heartbeat service whether it is silenced, the client driver for a
  stall.  Each hook is a single attribute check when no injector is
  attached, so the fault machinery costs nothing in fault-free runs.
* **active** faults are driven by injector-owned processes — crash /
  restart windows and write storms do things *to* the cluster on a
  schedule.

Servers are named by shard: their index in the deployment's stack
list, a plain (unsharded) deployment being shard 0.  Every fault type
therefore means the same thing on every deployment shape.

All stochastic choices (packet loss) draw from one seeded stream, so a
plan replays bit-identically under a fixed seed.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, Optional, Sequence, Union

from ..obs.registry import MetricsRegistry, expose_fields
from ..sim.kernel import Simulator
from .plan import (
    BOTH,
    ClientStall,
    FaultPlan,
    HeartbeatBlackout,
    LinkFault,
    NicReadStall,
    ShardLoss,
    WorkerCrash,
    WriteStorm,
)


class FaultInjector:
    """Applies one plan to one simulated cluster."""

    #: The int counts :meth:`register_metrics` exposes as ``faults.*``.
    COUNTER_FIELDS = (
        "packets_dropped", "latency_injections", "nic_stalls_injected",
        "beats_blacked_out", "workers_crashed", "workers_restarted",
        "write_storm_windows", "client_stalls_injected",
        "shards_lost", "shards_restored",
    )

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.plan = plan
        self.rng = rng or random.Random(0)
        # Pre-split by type: the hooks run on hot paths.
        self._link_faults: List[LinkFault] = plan.of_type(LinkFault)
        self._nic_stalls: List[NicReadStall] = plan.of_type(NicReadStall)
        self._blackouts: List[HeartbeatBlackout] = (
            plan.of_type(HeartbeatBlackout)
        )
        self._client_stalls: List[ClientStall] = plan.of_type(ClientStall)
        self._shard_losses: List[ShardLoss] = plan.of_type(ShardLoss)
        self._started = False
        #: The end of every crash window whose workers are down right now.
        self._open_windows: List[float] = []
        for name in self.COUNTER_FIELDS:
            setattr(self, name, 0)

    def register_metrics(self, registry: MetricsRegistry,
                         prefix: str = "faults") -> None:
        """Expose the injection counters in ``registry``."""
        expose_fields(registry, prefix, [self], self.COUNTER_FIELDS)

    # -- passive hooks -----------------------------------------------------

    def link_penalty(self, direction: str) -> float:
        """Extra seconds a transfer waits before taking the transmitter.

        Lost packets pay one ``retransmit_delay_s`` per (geometric)
        retransmission; latency spikes add a flat delay.  Holding the
        penalty *before* the transmitter keeps the link FIFO and lets the
        delay back-pressure senders, like a real retransmission would.
        """
        now = self.sim.now
        penalty = 0.0
        for fault in self._link_faults:
            if not fault.active(now):
                continue
            if fault.direction != BOTH and fault.direction != direction:
                continue
            if fault.extra_latency_s:
                penalty += fault.extra_latency_s
                self.latency_injections += 1
            if fault.loss_prob:
                rng_random = self.rng.random
                while rng_random() < fault.loss_prob:
                    penalty += fault.retransmit_delay_s
                    self.packets_dropped += 1
        return penalty

    def nic_read_stall(self) -> float:
        """Extra seconds a server NIC takes to serve one read."""
        now = self.sim.now
        stall = 0.0
        for fault in self._nic_stalls:
            if fault.active(now):
                stall += fault.stall_s
        if stall:
            self.nic_stalls_injected += 1
        return stall

    def heartbeat_suppressed(self, shard_id: int) -> bool:
        """True when shard ``shard_id``'s current heartbeat must be
        silently skipped: the shard is lost (its machine is gone) or a
        blackout silences every heartbeat."""
        now = self.sim.now
        for fault in self._shard_losses:
            if fault.active(now) and (
                not fault.shard_ids or shard_id in fault.shard_ids
            ):
                self.beats_blacked_out += 1
                return True
        for fault in self._blackouts:
            if fault.active(now):
                self.beats_blacked_out += 1
                return True
        return False

    def client_stall(self, client_id: int) -> float:
        """Stall to insert before this client's next request (0 if none)."""
        now = self.sim.now
        stall = 0.0
        for fault in self._client_stalls:
            if fault.active(now) and (
                not fault.client_ids or client_id in fault.client_ids
            ):
                stall += fault.stall_s
        if stall:
            self.client_stalls_injected += 1
        return stall

    def open_until(self) -> Optional[float]:
        """When the last crash window now open restarts its workers (None
        when no worker is down)."""
        return max(self._open_windows, default=None)

    # -- attachment --------------------------------------------------------

    def attach(self, stack, shard_id: int) -> None:
        """Hook server ``shard_id``'s stack: its access link's
        loss/latency, its NIC's read stalls and its heartbeat service's
        silences.

        ``stack`` is a :class:`~repro.runtime.stack.ServerStack`.
        """
        stack.network.attach_injector(self)
        stack.host.nic.fault_injector = self
        if stack.heartbeats is not None:
            stack.heartbeats.suppressed = (
                lambda: self.heartbeat_suppressed(shard_id))

    # -- active drivers ----------------------------------------------------

    def start(self, fm_servers: Sequence,
              storm_targets: Callable[[], list]) -> None:
        """Spawn the driver processes for the plan's active faults.

        ``fm_servers`` holds one fast-messaging server per shard, dense
        by shard id; :class:`WorkerCrash` and :class:`ShardLoss` crash
        their workers.  ``storm_targets`` (a callable returning the nodes
        to poison — re-evaluated per window, so tree restructuring is
        tolerated) drives :class:`WriteStorm`.
        """
        if self._started:
            raise RuntimeError("injector already started")
        self._started = True
        for fault in self.plan.of_type(WorkerCrash):
            self.sim.process(self._crash_driver(fault, fm_servers),
                             name="fault-crash")
        for fault in self.plan.of_type(WriteStorm):
            self.sim.process(self._storm_driver(fault, storm_targets),
                             name="fault-storm")
        for fault in self._shard_losses:
            self.sim.process(self._crash_driver(fault, fm_servers),
                             name="fault-shard-loss")

    def _crash_driver(self, fault: Union[WorkerCrash, ShardLoss],
                      fm_servers: Sequence) -> Generator:
        """Crash workers at window start, restart them at window end.

        A :class:`WorkerCrash` takes its ``conn_ids`` (all if empty) on
        every server.  A :class:`ShardLoss` takes every worker of its
        ``shard_ids`` (all shards if empty); the fabric, rings and NIC
        stay up and :meth:`heartbeat_suppressed` silences the shard, so
        clients experience silence — the hardest failure mode for a
        scatter-gather router to attribute.
        """
        sim = self.sim
        if fault.start > sim.now:
            yield sim.timeout(fault.start - sim.now)
        lost = isinstance(fault, ShardLoss)
        shards = ((fault.shard_ids if lost else ())
                  or range(len(fm_servers)))
        conn_ids = () if lost else fault.conn_ids
        crashed = []
        for shard_id in shards:
            fm_server = fm_servers[shard_id]
            for conn in fm_server.connections:
                if conn_ids and conn.conn_id not in conn_ids:
                    continue
                fm_server.crash_worker(conn)
                crashed.append((fm_server, conn))
                self.workers_crashed += 1
            if lost:
                self.shards_lost += 1
        self._open_windows.append(fault.end)
        if fault.end > sim.now:
            yield sim.timeout(fault.end - sim.now)
        self._open_windows.remove(fault.end)
        for fm_server, conn in crashed:
            fm_server.restart_worker(conn)
            self.workers_restarted += 1
        if lost:
            self.shards_restored += len(shards)

    def _storm_driver(self, fault: WriteStorm,
                      storm_targets: Callable[[], list]) -> Generator:
        sim = self.sim
        if fault.start > sim.now:
            yield sim.timeout(fault.start - sim.now)
        while sim.now < fault.end:
            nodes = list(storm_targets())
            for node in nodes:
                node.begin_write()
            self.write_storm_windows += 1
            try:
                yield sim.timeout(fault.hold_s)
            finally:
                for node in nodes:
                    node.end_write()
            if fault.gap_s:
                yield sim.timeout(fault.gap_s)
