"""The one assembler: a simulated Catfish cluster, ready to be driven.

A :class:`Deployment` is the only place where a simulator, RNG
registry, metrics registry, tracer, dataset, partition / live shard map,
fault injector, K >= 1 :class:`~repro.runtime.stack.ServerStack` s and a
:class:`~repro.runtime.factory.SessionFactory` are constructed.  The
runners on top of it are *drivers*: the closed-loop
:class:`~repro.cluster.builder.ClosedLoopRunner` (one synchronous
process per client) and the open-loop
:class:`~repro.traffic.harness.TrafficRunner` (aggregates -> mux ->
shared endpoints).  They ask for endpoints, start the deployment, drive
it, settle it and read its summaries; they build nothing themselves.

Which index lives behind the ring buffer is ``ExperimentConfig.index``:
the R-tree, or a B+tree / cuckoo table (paper §VI) over random integer
keys, with the same assembly, metrics and fault hooks.

Whether an endpoint is *plain* or *routed* is the runner's call, not a
user option:

* plain — one stack named ``server`` on the root RNG registry, and
  :meth:`endpoint` returns a bare session against it;
* routed — K stacks named ``shard{k}-server`` on ``rngs.shard(k)``, and
  :meth:`endpoint` returns a
  :class:`~repro.shard.router.ScatterGatherRouter` over one session per
  stack (for any K >= 1: a K=1 router is the oracle case the shard
  tests keep green).

Determinism contract: the dataset, every RNG stream name
(``scheduler`` / ``faults`` on the stack's registry, ``retry`` /
``backoff`` / ``bandit`` on ``fork(salt)`` of it) and the start order
(injector, heartbeats, rebalancer) are those of the pre-``Deployment``
builders, so every golden fingerprint is unchanged.

``repro.shard`` builds on the cluster layer (``shard.rebalance`` reads
``cluster.config``), so its modules are imported where a routed
deployment first needs them, not at module level.
"""

from __future__ import annotations

from typing import List, Optional

from ..client.base import CLIENT_COUNTER_FIELDS, ClientStats
from ..client.node_cache import NodeCache
from ..faults.injector import FaultInjector
from ..faults.plan import (
    EMPTY_PLAN,
    ClientStall,
    ShardLoss,
    WorkerCrash,
    WriteStorm,
)
from ..hw.host import Host
from ..net.fabric import profile_by_name
from ..obs import NULL_TRACER, MetricsRegistry, Tracer, expose_fields
from ..rtree import batch as _scan_kernel
from ..runtime.factory import SessionFactory
from ..runtime.policy import (
    FAST_MESSAGING,
    OFFLOADING,
    Algorithm1Policy,
    BanditPolicy,
)
from ..runtime.stack import ServerStack
from ..server.fast_messaging import FastMessagingServer
from ..server.heartbeat import HeartbeatService
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..workloads.datasets import uniform_dataset
from .config import ExperimentConfig
from .schemes import TRANSPORT_TCP, scheme_spec


def register_session_aggregates(metrics: MetricsRegistry,
                                sessions) -> None:
    """Sum per-session client counters into cluster-wide pull gauges.

    ``sessions`` are the per-server leaf sessions (a router contributes
    one per shard), so every scheme's client-side counters (offload
    engine, node cache, Algorithm 1, bandit) land in the metrics
    document under the same names regardless of deployment shape.
    """
    engines = [e for e in (getattr(s, "engine", None) for s in sessions)
               if e is not None]
    if engines:
        expose_fields(metrics, "offload", engines,
                      engines[0].counter_fields)
    caches = [e.cache for e in engines
              if getattr(e, "cache", None) is not None]
    if caches:
        expose_fields(metrics, "cache", caches, NodeCache.COUNTER_FIELDS)
        metrics.expose("cache.resident_nodes",
                       lambda: sum(len(c) for c in caches))
    policies = [p for p in (getattr(s, "policy", None) for s in sessions)
                if p is not None]
    adaptive = [p for p in policies if type(p) is Algorithm1Policy]
    if adaptive:
        expose_fields(metrics, "adaptive", adaptive,
                      Algorithm1Policy.COUNTER_FIELDS)
    bandits = [p for p in policies if type(p) is BanditPolicy]
    if bandits:
        expose_fields(metrics, "bandit", bandits, BanditPolicy.COUNTER_FIELDS)
        metrics.expose(
            "bandit.mode_fm",
            lambda: sum(p.mode_counts[FAST_MESSAGING] for p in bandits),
        )
        metrics.expose(
            "bandit.mode_offload",
            lambda: sum(p.mode_counts[OFFLOADING] for p in bandits),
        )


class Deployment:
    """Sim + stacks + injector + session factory for one config."""

    def __init__(self, config: ExperimentConfig, routed: bool,
                 record_results: bool = False):
        self.config = config
        self.routed = routed
        self.spec = scheme_spec(config.scheme, config.index)
        self.profile = profile_by_name(config.fabric)
        if self.spec.transport != TRANSPORT_TCP and not self.profile.rdma:
            raise ValueError(
                f"scheme {config.scheme!r} needs an RDMA fabric, "
                f"got {config.fabric!r}"
            )
        if routed and self.spec.transport == TRANSPORT_TCP:
            raise ValueError(
                f"scheme {config.scheme!r} is TCP-based; sharding needs an "
                "RDMA scheme (fast-messaging rings per shard)"
            )
        if routed and self.spec.index != "rtree":
            raise ValueError(
                f"scheme {config.scheme!r} runs a {self.spec.index} index; "
                "the shard plane partitions rectangles (R-tree only)"
            )
        plan = config.fault_plan or EMPTY_PLAN
        if self.spec.index == "cuckoo" and plan.of_type(WriteStorm):
            raise ValueError(
                "a WriteStorm holds the tree root in a write window; "
                "a cuckoo table has no root"
            )
        if self.spec.transport == TRANSPORT_TCP and (
                plan.of_type(WorkerCrash) or plan.of_type(ShardLoss)):
            raise ValueError(
                f"scheme {config.scheme!r} is TCP-based; WorkerCrash and "
                "ShardLoss crash fast-messaging workers"
            )
        if config.traffic is not None and plan.of_type(ClientStall):
            raise ValueError(
                "a ClientStall delays a closed-loop client's next request; "
                "open-loop arrivals do not wait on a client"
            )
        self.n_shards = (config.n_shards or self.spec.shards) if routed else 1

        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.sim) if config.trace else NULL_TRACER

        # One dataset derivation for every shape: the union of the shard
        # slices is bit-identical to the unsharded dataset, which is what
        # makes the single tree a valid oracle for routed runs.
        items = config.dataset
        if items is None and config.index != "rtree":
            keys = self.rngs.stream("dataset").sample(
                range(1 << 40), config.dataset_size)
            items = [(k, k ^ 0x5A5A) for k in sorted(keys)]
        elif items is None:
            items = uniform_dataset(config.dataset_size, seed=config.seed)
        #: The keys a B+tree / cuckoo index holds, which its request
        #: stream samples (None for the R-tree).
        self.keys = (None if config.index == "rtree"
                     else [key for key, _ in items])
        #: Kept on a routed deployment only, where the oracle checks
        #: rebuild the single tree from it; a plain deployment's items
        #: live on in its one tree and the list is garbage after that.
        self.dataset = items if routed else None

        self.injector: Optional[FaultInjector] = None
        if config.fault_plan:
            self.injector = FaultInjector(
                self.sim, config.fault_plan,
                rng=self.rngs.stream("faults"),
            )

        self.partition = None
        self.rebalance_cfg = config.rebalance if routed else None
        #: A routed deployment's one shard map: every router routes by
        #: it and every server checks its writes against it, so a write
        #: acked through one router grows the covers every other router
        #: reads by.  When rebalancing is on, a RebalanceController
        #: revises it in the background; a revision reaches every server
        #: in the instant it is made.
        self.live_map = None
        self.rebalancer = None
        self.rebalance_stats = None
        if routed:
            from ..shard.partition import partition_str
            self.partition = partition_str(items, self.n_shards)
            self.live_map = self.partition.shard_map.copy()
            # All shard-side randomness comes from ``rngs.shard(k)`` — a
            # function of (seed, shard id) only — so changing the shard
            # count never perturbs another shard's streams.
            self.stacks: List[ServerStack] = [
                ServerStack(
                    self.sim, self.profile, self.spec, config,
                    self.rngs.shard(shard_id), list(slice_items),
                    name=f"shard{shard_id}-server",
                )
                for shard_id, slice_items
                in enumerate(self.partition.assignments)
            ]
            for shard_id, stack in enumerate(self.stacks):
                stack.server.tiles = self.live_map
                stack.server.shard_id = shard_id
        else:
            self.stacks = [ServerStack(
                self.sim, self.profile, self.spec, config, self.rngs, items,
            )]
        if self.injector is not None:
            for shard_id, stack in enumerate(self.stacks):
                self.injector.attach(stack, shard_id)

        self.factory = SessionFactory(
            self.sim, self.spec, config, self.tracer,
        )
        self._record_results = record_results
        #: One entry per :meth:`endpoint` call, in call order.
        self.endpoints: List = []
        self.client_stats: List[ClientStats] = []

    # -- endpoints ---------------------------------------------------------

    def endpoint(self, index: int, host: Host, stats: ClientStats,
                 salt: str):
        """What one driver issues requests through.

        Plain: a session against the one stack, drawing from
        ``rngs.fork(salt)``.  Routed: a scatter-gather router over one
        session per stack, each drawing from ``rngs.shard(k).fork(salt)``
        — shard-derived, so adding shards never perturbs the retry /
        back-off draws against existing shards.  Sessions are
        per-*stack*, so they survive every shard-map revision: the map
        decides which of them a query visits, tile reassignments never
        rebuild a session.
        """
        if self.routed:
            from ..shard.router import ScatterGatherRouter
            sessions = [
                self.factory.build(index, stack, host, stats,
                                   self.rngs.shard(k).fork(salt))
                for k, stack in enumerate(self.stacks)
            ]
            endpoint = ScatterGatherRouter(
                self.sim, self.live_map, sessions, stats,
                breaker_params=self.config.breaker,
                record=self._record_results,
                epoch_aware=self.rebalance_cfg is not None,
            )
        else:
            endpoint = self.factory.build(
                index, self.stacks[0], host, stats, self.rngs.fork(salt),
            )
        self.endpoints.append(endpoint)
        self.client_stats.append(stats)
        return endpoint

    def leaf_sessions(self) -> List:
        """Every per-server session, through the routers if routed."""
        if self.routed:
            return [s for router in self.endpoints for s in router.sessions]
        return list(self.endpoints)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the background machinery, once every endpoint exists.

        Order is part of the determinism contract: injector (so
        WorkerCrash faults see every connection; storm targets
        re-resolve the roots per window so splits are tolerated), then
        heartbeats (after the clients subscribed), then the rebalancer.
        """
        if self.injector is not None:
            self.injector.start(
                [s.fm_server for s in self.stacks],
                storm_targets=lambda: [s.server.tree.root
                                       for s in self.stacks],
            )
        for stack in self.stacks:
            stack.start_heartbeats()
        if self.rebalance_cfg is not None:
            from ..shard.rebalance import RebalanceController
            self.rebalancer = RebalanceController(
                self.sim, self.live_map, self.stacks, self.rebalance_cfg,
            )
            self.rebalance_stats = self.rebalancer.stats
            self.rebalancer.start()

    def settle(self) -> None:
        """Let open crash windows close and an in-flight migration finish
        after the drivers are done.

        Foreground accounting is the driver's and is frozen before this
        is called; this only runs the simulation on until every crashed
        worker has restarted, so no run ends with a worker down, and then
        the controller's remaining copy/drain/delete work, so no run ends
        with an item transiently on two shards (the conservation checks
        depend on that).  A deployment with neither has nothing to
        settle.
        """
        if self.injector is not None:
            until = self.injector.open_until()
            if until is not None:
                self.sim.run(until=until)
        if self.rebalancer is None:
            return
        self.rebalancer.stop()
        step = max(self.rebalance_cfg.interval, self.rebalance_cfg.drain_s)
        for _ in range(10_000):
            if not self.rebalancer.active_migrations:
                return
            self.sim.run(until=self.sim.now + step)
        raise RuntimeError("rebalancer failed to settle")

    # -- cluster-wide summaries --------------------------------------------

    def mean_cpu_utilization(self) -> float:
        return (sum(s.host.cpu.utilization() for s in self.stacks)
                / len(self.stacks))

    def total_bandwidth_gbps(self) -> float:
        return sum(s.network.server_bandwidth_gbps() for s in self.stacks)

    def bandwidth_utilization(self) -> float:
        return (self.total_bandwidth_gbps() * 1e9
                / (self.profile.bandwidth_bps * len(self.stacks)))

    def searches_served(self) -> int:
        return sum(s.server.searches_served for s in self.stacks)

    def inserts_served(self) -> int:
        return sum(s.server.inserts_served for s in self.stacks)

    def heartbeats_sent(self) -> int:
        return sum(s.heartbeats.beats_sent for s in self.stacks
                   if s.heartbeats is not None)

    def heartbeats_dropped(self) -> int:
        return sum(s.heartbeats.beats_dropped for s in self.stacks
                   if s.heartbeats is not None)

    def requests_shed(self) -> int:
        """Requests the servers' overload guards dropped."""
        return sum(s.fm_server.requests_shed for s in self.stacks
                   if s.fm_server is not None)

    def initial_occupancy(self) -> List[int]:
        """Items per shard at partition time (before any routed write)."""
        return [len(slice_items)
                for slice_items in self.partition.assignments]

    def shard_occupancy(self) -> List[int]:
        """Items per stack right now (exact leaf walk per stack)."""
        return [stack.items_held() for stack in self.stacks]

    # -- metrics -----------------------------------------------------------

    def register_metrics(self) -> None:
        """Hook every component into the metrics registry (after
        :meth:`start`, so the rebalancer's counters exist).

        Server-side objects register their own counters; client-side
        counters are per-endpoint, so they are aggregated into pull
        gauges summed over all endpoints.  Every name is the same for a
        closed-loop and an open-loop run of the same config.
        """
        m = self.metrics
        if self.routed:
            from ..shard.rebalance import RebalanceStats
            from ..shard.router import RouterStats
            m.expose("shard.n_shards", lambda: self.n_shards)
            for shard_id, stack in enumerate(self.stacks):
                stack.register_metrics(m, label=f"shard{shard_id}")
            # Cluster-wide aggregates keep the single-server names, so
            # dashboards and the compare harness read both layouts.
            expose_fields(m, "server", [s.server for s in self.stacks],
                          ("searches_served", "inserts_served"))
            expose_fields(m, "server", [s.fm_server for s in self.stacks],
                          FastMessagingServer.COUNTER_FIELDS)
            m.expose("server.items_held",
                     lambda: sum(self.shard_occupancy()))
            heartbeats = [s.heartbeats for s in self.stacks
                          if s.heartbeats is not None]
            if heartbeats:
                expose_fields(m, "heartbeat", heartbeats,
                              HeartbeatService.COUNTER_FIELDS)
            m.expose("server.cpu_utilization", self.mean_cpu_utilization)
            m.expose("net.server_bandwidth_gbps", self.total_bandwidth_gbps)
            expose_fields(m, "router",
                          [r.router_stats for r in self.endpoints],
                          RouterStats.FIELDS + RouterStats.REBALANCE_FIELDS)
            if self.rebalance_stats is not None:
                expose_fields(m, "rebalance", [self.rebalance_stats],
                              RebalanceStats.FIELDS)
                m.expose("shard.map_epoch", lambda: self.live_map.epoch)
                m.expose("shard.tiles", lambda: len(self.live_map.tiles))
        else:
            self.stacks[0].register_metrics(m)
        if self.injector is not None:
            self.injector.register_metrics(m)

        # Which scan kernel the whole run (server trees + offload views)
        # is using: 1 = numpy broadcasts, 0 = the pure-Python fallback.
        m.expose(
            "rtree.scan_kernel_numpy",
            lambda: 1 if _scan_kernel.kernel_name() == "numpy" else 0,
        )

        expose_fields(m, "client", self.client_stats, CLIENT_COUNTER_FIELDS)
        register_session_aggregates(m, self.leaf_sessions())
