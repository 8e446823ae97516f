"""Composable fault injection for the simulated Catfish cluster.

``repro.faults`` turns the designed-for failure modes of the model (torn
reads, dropped heartbeats, full rings) into *injectable* events: a
:class:`FaultPlan` is a set of timed windows (link loss/latency, NIC read
stalls, server-worker crashes, heartbeat blackouts, write storms, slow
clients) and a :class:`FaultInjector` threads them through the network,
transport, hardware and server layers via cheap optional hooks.

See docs/robustness.md for the fault model and the matching resilience
mechanisms (``repro.client.resilience``), and ``repro.chaos`` for the
scenarios that assert end-to-end invariants under each fault.
"""

from .plan import (
    ClientStall,
    FaultPlan,
    FaultWindow,
    HeartbeatBlackout,
    LinkFault,
    NicReadStall,
    ShardLoss,
    WorkerCrash,
    WriteStorm,
)
from .injector import FaultInjector

__all__ = [
    "ClientStall",
    "FaultInjector",
    "FaultPlan",
    "FaultWindow",
    "HeartbeatBlackout",
    "LinkFault",
    "NicReadStall",
    "ShardLoss",
    "WorkerCrash",
    "WriteStorm",
]
