"""The latency-under-load harness: open-loop traffic against a cluster.

Drives the same :class:`~repro.cluster.deployment.Deployment` the
closed-loop runners drive (plain at K=1, routed at K>1), but replaces
the per-client synchronous drivers with:

    aggregates (open-loop arrivals, bounded windows)
        -> ConnectionMux (watermark + token bucket admission)
            -> shared PolicySessions / scatter-gather routers (QPs)
                -> server stack(s)

and measures what closed loops cannot: *sojourn time* — arrival to
completion, queueing included — at p50/p95/p99/p99.9, offered-versus-
achieved throughput, and shed accounting at every layer.

Determinism contract: every stream is named off the one experiment
seed — ``aggregate-{i}``:{arrivals,tenants,users,workload} for the
open-loop side, ``traffic-session-{i}`` (forked per shard via
``rngs.shard(k)`` when sharded) for the session side — so arrival
schedules are bit-identical across deployments with different shard
counts, and a whole run replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..client.base import ClientStats
from ..cluster.config import CLIENT_CORES, ExperimentConfig
from ..cluster.deployment import Deployment
from ..cluster.results import RunResult, merge_client_stats
from ..cluster.schemes import TRANSPORT_TCP, scheme_spec
from ..hw.host import Host
from ..obs import LatencyView, expose_fields, snapshot_document
from ..sim.kernel import all_of
from ..sim.monitor import LatencyRecorder
from ..workloads.scales import scale_generator
from .aggregate import AggregateClient
from .arrivals import aggregate_generator
from .config import ADMIT_BURST, TrafficConfig
from .mux import ConnectionMux, TokenBucket

#: Simulated slack past the offered window for the backlog to drain.
DRAIN_GRACE_S = 20e-3


@dataclass
class TrafficResult:
    """Everything one open-loop run measured."""

    scheme: str
    fabric: str
    n_shards: int
    kind: str
    offered_rps: float
    achieved_rps: float
    duration_s: float
    elapsed_s: float

    arrivals: int
    admitted: int
    completed: int
    failed: int
    shed_window: int
    shed_watermark: int
    shed_admission: int
    server_shed: int

    users_total: int
    users_touched: int

    # Sojourn time (arrival -> completion), microseconds.
    sojourn_mean_us: float
    sojourn_p50_us: float
    sojourn_p95_us: float
    sojourn_p99_us: float
    sojourn_p999_us: float

    server_cpu_utilization: float
    server_bandwidth_gbps: float = 0.0
    server_bandwidth_utilization: float = 0.0
    offload_fraction: float = 0.0
    torn_retries: int = 0
    search_restarts: int = 0
    per_tenant: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)

    @property
    def shed_client_total(self) -> int:
        return self.shed_window + self.shed_watermark + self.shed_admission

    @staticmethod
    def header() -> str:
        return (f"{'offered/s':>10} {'achieved/s':>10} {'done':>8} "
                f"{'fail':>6} {'shed':>7} {'p50us':>8} {'p99us':>9} "
                f"{'p999us':>9} {'cpu':>6}")

    def row(self) -> str:
        return (f"{self.offered_rps:>10.0f} {self.achieved_rps:>10.0f} "
                f"{self.completed:>8} {self.failed:>6} "
                f"{self.shed_client_total:>7} {self.sojourn_p50_us:>8.1f} "
                f"{self.sojourn_p99_us:>9.1f} {self.sojourn_p999_us:>9.1f} "
                f"{self.server_cpu_utilization * 100:>5.1f}%")

    def to_run_result(self) -> RunResult:
        """Project onto the closed-loop result shape (CLI/compare)."""
        return RunResult(
            scheme=self.scheme,
            fabric=self.fabric,
            n_clients=self.metrics.get("meta", {}).get("n_aggregates", 0),
            total_requests=self.arrivals,
            elapsed_s=self.elapsed_s,
            throughput_kops=self.achieved_rps / 1e3,
            mean_latency_us=self.sojourn_mean_us,
            p50_latency_us=self.sojourn_p50_us,
            p99_latency_us=self.sojourn_p99_us,
            p999_latency_us=self.sojourn_p999_us,
            mean_search_latency_us=self.sojourn_mean_us,
            server_cpu_utilization=self.server_cpu_utilization,
            server_bandwidth_gbps=self.server_bandwidth_gbps,
            server_bandwidth_utilization=self.server_bandwidth_utilization,
            offload_fraction=self.offload_fraction,
            torn_retries=self.torn_retries,
            search_restarts=self.search_restarts,
            extra={
                "completed": float(self.completed),
                "failed": float(self.failed),
                "shed_client": float(self.shed_client_total),
                "shed_server": float(self.server_shed),
                "users_touched": float(self.users_touched),
                "n_shards": float(self.n_shards),
            },
            metrics=self.metrics,
        )


class TrafficRunner:
    """Drives one deployment with open-loop arrivals through a mux."""

    def __init__(self, config: ExperimentConfig, record: bool = False):
        if config.traffic is None:
            raise ValueError("config.traffic must be set for TrafficRunner")
        spec = scheme_spec(config.scheme)
        if spec.transport == TRANSPORT_TCP:
            raise ValueError(
                "the traffic layer multiplexes fast-messaging/offload "
                f"sessions; scheme {config.scheme!r} is TCP-based"
            )
        self.config = config
        self.traffic: TrafficConfig = config.traffic
        self.deployment = deployment = Deployment(
            config, routed=(config.n_shards or spec.shards) > 1,
        )
        self.n_shards = deployment.n_shards
        self.sim = deployment.sim
        self.rngs = deployment.rngs
        self.metrics = deployment.metrics
        self.profile = deployment.profile
        self.stacks = deployment.stacks

        #: The mux's shared endpoints: plain sessions at K=1, routers
        #: (all sharing the one live map when rebalancing) at K>1.
        self.sessions = deployment.endpoints
        self.session_stats = deployment.client_stats
        for i in range(self.traffic.sessions):
            host = Host(self.sim, f"mux-{i}", self.profile,
                        cores=CLIENT_CORES)
            deployment.endpoint(i, host, ClientStats(),
                                f"traffic-session-{i}")
        deployment.start()
        self.rebalance_stats = deployment.rebalance_stats

        bucket = None
        if self.traffic.admit_rate is not None:
            bucket = TokenBucket(self.traffic.admit_rate, ADMIT_BURST)
        self.mux = ConnectionMux(
            self.sim, self.sessions, self.traffic.queue_watermark,
            bucket=bucket, record=record,
        )

        self.sojourn = LatencyRecorder()
        self.tenant_sojourn = {
            name: LatencyRecorder() for name in self.traffic.tenant_names
        }
        scale_gen = scale_generator(config.scale)
        hotspots = None
        if self.traffic.hotspot_skew:
            from ..workloads.skew import HotspotQueries
            hotspots = HotspotQueries(seed=0)  # shared across aggregates
        self.aggregates: List[AggregateClient] = []
        for a in range(self.traffic.n_aggregates):
            arngs = self.rngs.fork(f"aggregate-{a}")
            self.aggregates.append(AggregateClient(
                self.sim, a,
                n_users=self.traffic.users_per_aggregate,
                window=self.traffic.window,
                generator=aggregate_generator(self.traffic, arngs),
                users_rng=arngs.stream("users"),
                workload_rng=arngs.stream("workload"),
                scale_gen=scale_gen,
                mux=self.mux,
                sojourn=self.sojourn,
                tenant_sojourn=self.tenant_sojourn,
                hotspots=hotspots,
            ))
        deployment.register_metrics()
        self._register_metrics()

    def _register_metrics(self) -> None:
        self.mux.register_metrics(self.metrics)
        expose_fields(self.metrics, "traffic", self.aggregates,
                      ("arrivals", "shed_window", "users_touched",
                       "in_flight"))

    # -- execution ---------------------------------------------------------

    def drive(self, limit: Optional[float] = None) -> None:
        """Offer the whole window, then drain the mux backlog.

        Raises :class:`~repro.sim.kernel.SimulationError` if simulated
        time passes ``limit`` first; by default the offered window plus
        :data:`DRAIN_GRACE_S`.
        """
        sim = self.sim
        duration = self.traffic.duration_s
        if limit is None:
            limit = duration + DRAIN_GRACE_S
        drivers = [
            sim.process(agg.run(duration), name=f"aggregate-{agg.aggregate_id}")
            for agg in self.aggregates
        ]
        sim.run_until_triggered(all_of(sim, drivers), limit=limit)
        self.mux.close()
        sim.run_until_triggered(all_of(sim, self.mux.dispatchers),
                                limit=limit)

    def run(self) -> TrafficResult:
        self.drive()
        # Foreground accounting below only reads per-request records,
        # so settling an in-flight migration first is free.
        self.deployment.settle()
        return self.collect()

    def collect(self) -> TrafficResult:
        """The result as of now (also valid for a run cut short)."""
        config, traffic = self.config, self.traffic
        deployment = self.deployment
        to_us = 1e6
        self.metrics.adopt(
            "traffic.sojourn_us",
            LatencyView(self.sojourn, scale=to_us, unit="us", loop="open"),
        )
        for name, rec in self.tenant_sojourn.items():
            self.metrics.adopt(
                f"traffic.sojourn_us.{name}",
                LatencyView(rec, scale=to_us, unit="us", loop="open"),
            )
        arrivals = sum(a.arrivals for a in self.aggregates)
        shed_window = sum(a.shed_window for a in self.aggregates)
        merged = merge_client_stats(self.session_stats)
        per_tenant = {
            name: {
                "count": float(rec.count),
                "p50_us": rec.percentile(50) * to_us,
                "p99_us": rec.percentile(99) * to_us,
            }
            for name, rec in self.tenant_sojourn.items()
        }
        doc = snapshot_document(
            self.metrics,
            tracer=deployment.tracer if config.trace else None,
            meta={
                "scheme": config.scheme,
                "fabric": config.fabric,
                "seed": config.seed,
                "loop": "open",
                "arrival_kind": traffic.kind,
                "offered_rps": traffic.rate,
                "duration_s": traffic.duration_s,
                "n_aggregates": traffic.n_aggregates,
                "users_per_aggregate": traffic.users_per_aggregate,
                "n_shards": self.n_shards,
                "sessions": traffic.sessions,
            },
        )
        return TrafficResult(
            scheme=config.scheme,
            fabric=config.fabric,
            n_shards=self.n_shards,
            kind=traffic.kind,
            offered_rps=traffic.rate,
            achieved_rps=self.mux.completed / traffic.duration_s,
            duration_s=traffic.duration_s,
            elapsed_s=self.sim.now,
            arrivals=arrivals,
            admitted=self.mux.admitted,
            completed=self.mux.completed,
            failed=self.mux.failed,
            shed_window=shed_window,
            shed_watermark=self.mux.shed_watermark,
            shed_admission=self.mux.shed_admission,
            server_shed=deployment.requests_shed(),
            users_total=traffic.total_users,
            users_touched=sum(a.users_touched for a in self.aggregates),
            sojourn_mean_us=self.sojourn.mean * to_us,
            sojourn_p50_us=self.sojourn.percentile(50) * to_us,
            sojourn_p95_us=self.sojourn.percentile(95) * to_us,
            sojourn_p99_us=self.sojourn.percentile(99) * to_us,
            sojourn_p999_us=self.sojourn.percentile(99.9) * to_us,
            server_cpu_utilization=deployment.mean_cpu_utilization(),
            server_bandwidth_gbps=deployment.total_bandwidth_gbps(),
            server_bandwidth_utilization=deployment.bandwidth_utilization(),
            offload_fraction=merged.offload_fraction,
            torn_retries=merged.torn_retries,
            search_restarts=merged.search_restarts,
            per_tenant=per_tenant,
            metrics=doc,
        )


def run_traffic(config: ExperimentConfig,
                record: bool = False) -> TrafficResult:
    """Build, run, collect one open-loop point."""
    return TrafficRunner(config, record=record).run()


def rate_sweep(config: ExperimentConfig,
               rates: List[float]) -> List[TrafficResult]:
    """One fresh deployment per offered rate (identical otherwise)."""
    if config.traffic is None:
        raise ValueError("config.traffic must be set for a rate sweep")
    return [
        run_traffic(replace(config,
                            traffic=replace(config.traffic, rate=rate)))
        for rate in rates
    ]
