"""One server's full stack, shared by every deployment shape.

A :class:`ServerStack` assembles everything one Catfish server needs —
host + scheduler, star network, the index service over its data slice
(the R*-tree, or a §VI B+tree / cuckoo table when the scheme names one),
the transport front-end (TCP server or fast-messaging worker pool per
the scheme), the heartbeat service and the overload guard — exactly once.
:class:`~repro.cluster.deployment.Deployment` builds one for a plain
deployment and K for a routed one.  Before this layer existed the
runners duplicated the whole construction (and drifted); RDMAvisor's
argument for a single service layer hiding RDMA deployment detail is
exactly this class.

Determinism contract: all stochastic construction (the scheduler noise)
draws from the *caller's* registry — a plain deployment passes its root
registry, a routed one passes ``rngs.shard(k)`` — so stream names and
draw order are unchanged from the pre-refactor builders.
"""

from __future__ import annotations

from typing import Optional

from ..btree.service import BTreeService
from ..cuckoo.service import CuckooService
from ..hw.cpu import SchedulerModel
from ..hw.host import Host
from ..net.fabric import FabricProfile, Network
from ..obs.registry import MetricsRegistry, expose_fields
from ..server.base import RTreeServer
from ..server.fast_messaging import FastMessagingServer
from ..server.heartbeat import HeartbeatService
from ..server.tcp_server import TcpRTreeServer
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry


class ServerStack:
    """Host + network + index + transport + heartbeat for one server."""

    def __init__(
        self,
        sim: Simulator,
        profile: FabricProfile,
        spec,
        config,
        rngs: RngRegistry,
        items,
        name: str = "server",
    ):
        self.sim = sim
        self.profile = profile
        self.spec = spec
        self.name = name
        self.network = Network(sim, profile)
        self.host = Host(
            sim,
            name,
            profile,
            cores=config.server_cores,
            scheduler=SchedulerModel(
                config.server_cores, rng=rngs.stream("scheduler")
            ),
        )
        self.network.attach_server(self.host)
        if spec.index == "btree":
            self.server = BTreeService(
                sim, self.host, items, max_entries=config.max_entries,
                costs=config.costs, byte_mode=config.byte_mode,
            )
        elif spec.index == "cuckoo":
            # Sized for a 60% load factor at four slots per bucket.
            self.server = CuckooService(
                sim, self.host, items,
                n_buckets=max(64, int(len(items) / (4 * 0.6))),
                costs=config.costs, seed=config.seed,
            )
        else:
            self.server = RTreeServer(
                sim,
                self.host,
                items,
                max_entries=config.max_entries,
                costs=config.costs,
                byte_mode=config.byte_mode,
            )

        self.tcp_server: Optional[TcpRTreeServer] = None
        self.fm_server: Optional[FastMessagingServer] = None
        self.heartbeats: Optional[HeartbeatService] = None
        if spec.transport == "tcp":
            self.tcp_server = TcpRTreeServer(sim, self.server)
        else:
            self.fm_server = FastMessagingServer(
                sim,
                self.server,
                self.network,
                mode=spec.notification,
                max_queue_depth=config.max_queue_depth,
            )
            if spec.heartbeats:
                cache_cfg = getattr(config, "node_cache", None)
                # With client node caches enabled (an R-tree offload
                # feature), every beat piggybacks the tree's mutation
                # high-water mark as an invalidation hint; otherwise
                # keep the legacy wire format (the golden fingerprints
                # are pinned on it).
                mut_seq_fn = (
                    (lambda: self.server.tree.mut_hwm)
                    if cache_cfg is not None and spec.index == "rtree"
                    else None
                )
                self.heartbeats = HeartbeatService(
                    sim,
                    self.host.cpu.window_utilization,
                    interval=config.heartbeat_interval,
                    mut_seq_fn=mut_seq_fn,
                )

    # -- lifecycle ---------------------------------------------------------

    def start_heartbeats(self) -> None:
        """Start the heartbeat broadcaster (after clients subscribed)."""
        if self.heartbeats is not None:
            self.heartbeats.start()

    # -- occupancy ---------------------------------------------------------

    def items_held(self) -> int:
        """Exact data-item count in this stack's index right now."""
        return self.server.items_held()

    # -- metrics -----------------------------------------------------------

    def register_metrics(self, metrics: MetricsRegistry,
                         label: Optional[str] = None) -> None:
        """Expose this stack's server-side metrics in ``metrics``.

        With ``label`` (e.g. ``"shard3"``) every name is prefixed so K
        stacks coexist in one registry; without it the single-server
        names (``server.*`` / ``heartbeat.*`` / ``net.*``) are used.
        """
        dot = f"{label}." if label else ""
        if self.fm_server is not None:
            self.fm_server.register_metrics(metrics, prefix=f"{dot}server")
        if self.heartbeats is not None:
            self.heartbeats.register_metrics(metrics,
                                             prefix=f"{dot}heartbeat")
        expose_fields(metrics, f"{dot}server", [self.server],
                      ("searches_served", "inserts_served"))
        metrics.expose(f"{dot}server.items_held",
                       lambda: self.items_held())
        metrics.expose(f"{dot}server.cpu_utilization",
                       self.host.cpu.utilization)
        metrics.expose(f"{dot}net.server_bandwidth_gbps",
                       self.network.server_bandwidth_gbps)
