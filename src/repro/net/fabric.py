"""Fabric profiles and the experiment network topology.

A :class:`FabricProfile` bundles every calibration constant of one
interconnect (the paper's 1 GbE, 40 GbE and EDR 100 Gb InfiniBand).  The
constants are chosen so that the micro-benchmark (paper Fig 9) reproduces:
RDMA Write one-way ~1.5-2 us, RDMA Read RTT ~3-4 us, TCP RTTs tens of us,
and bandwidth-bound behaviour past ~2 KB transfers.

The :class:`Network` topology is deliberately server-centric: the paper's
bottlenecks (Fig 2) are the server's CPU and the server's access link, so
only the server link is shared; client access links are modelled as
uncontended (documented simplification — the paper runs at most 32 clients
per 28-core client node and never reports client-side saturation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sim.kernel import Event, Simulator
from .link import DuplexLink
from .wire import ib_wire_size, tcp_wire_size


@dataclass(frozen=True)
class FabricProfile:
    """Calibration constants for one interconnect."""

    name: str
    bandwidth_bps: float
    #: One-way propagation including switch traversal, seconds.
    base_latency_s: float
    #: Whether one-sided verbs are available.
    rdma: bool
    #: CPU burned in the kernel per TCP send or receive (per side), seconds.
    tcp_kernel_per_msg_s: float = 0.0
    #: CPU burned per payload byte for kernel copies, seconds.
    tcp_kernel_per_byte_s: float = 0.0
    #: Local CPU cost to post a work request (doorbell + WQE build), seconds.
    rdma_post_overhead_s: float = 0.0
    #: NIC processing per RDMA operation (each NIC it crosses), seconds.
    rdma_nic_processing_s: float = 0.0

    def wire_size(self, payload: int) -> int:
        """On-the-wire bytes for a message of ``payload`` bytes."""
        if self.rdma:
            return ib_wire_size(payload)
        return tcp_wire_size(payload)


#: 1 Gbps Ethernet with the TCP/IP stack (paper's "TCP/IP-1G").
ETH_1G = FabricProfile(
    name="eth-1g",
    bandwidth_bps=1e9,
    base_latency_s=20e-6,
    rdma=False,
    tcp_kernel_per_msg_s=15e-6,
    tcp_kernel_per_byte_s=0.25e-9,
)

#: 40 Gbps Ethernet with the TCP/IP stack (paper's "TCP/IP-40G").
ETH_40G = FabricProfile(
    name="eth-40g",
    bandwidth_bps=40e9,
    base_latency_s=5e-6,
    rdma=False,
    tcp_kernel_per_msg_s=15e-6,
    tcp_kernel_per_byte_s=0.25e-9,
)

#: EDR 100 Gbps InfiniBand, ConnectX-5 (paper's RDMA fabric).
IB_100G = FabricProfile(
    name="ib-100g",
    bandwidth_bps=100e9,
    base_latency_s=0.9e-6,
    rdma=True,
    rdma_post_overhead_s=0.2e-6,
    rdma_nic_processing_s=0.25e-6,
)

PROFILES = {p.name: p for p in (ETH_1G, ETH_40G, IB_100G)}


def profile_by_name(name: str) -> FabricProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fabric {name!r}; known: {sorted(PROFILES)}"
        ) from None


class Network:
    """Star topology around the server's (shared) access link."""

    def __init__(self, sim: Simulator, profile: FabricProfile):
        self.sim = sim
        self.profile = profile
        self.server_host = None  # set via attach_server()
        self.server_link = DuplexLink(
            sim, profile.bandwidth_bps, profile.base_latency_s, name="server"
        )

    def attach_server(self, host) -> None:
        """Declare which host owns the shared access link."""
        self.server_host = host

    def attach_injector(self, injector) -> None:
        """Install a fault injector's loss/latency hooks on the server
        link (``tx`` = server transmit, ``rx`` = server receive — the
        direction names :class:`repro.faults.LinkFault` uses)."""
        self.server_link.tx.fault_hook = lambda: injector.link_penalty("tx")
        self.server_link.rx.fault_hook = lambda: injector.link_penalty("rx")

    def send(self, src, dst, wire_bytes: int, then: float,
             on_arrival: Callable[[Event], None]) -> None:
        """Move ``wire_bytes`` (already wire-inflated) from src to dst host.

        ``on_arrival(event)`` runs ``then`` seconds after the last byte
        arrives (see :meth:`Link.send`).  Exactly one endpoint must be
        the attached server.
        """
        if self.server_host is None:
            raise RuntimeError("Network has no attached server host")
        if dst is self.server_host:
            link = self.server_link.rx
        elif src is self.server_host:
            link = self.server_link.tx
        else:
            raise ValueError(
                f"transfer {getattr(src, 'name', src)} -> "
                f"{getattr(dst, 'name', dst)} does not touch the server"
            )
        link.send(wire_bytes, then, on_arrival)

    def server_bandwidth_gbps(self) -> float:
        """Average consumed bandwidth of the busier direction, in Gbps."""
        if self.sim.now <= 0:
            return 0.0
        tx = self.server_link.tx.total_bytes * 8.0 / self.sim.now
        rx = self.server_link.rx.total_bytes * 8.0 / self.sim.now
        return max(tx, rx) / 1e9
