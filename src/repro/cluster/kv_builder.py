"""Experiment assembly for the §VI framework extensions (B+tree, cuckoo).

Mirrors :mod:`repro.cluster.builder` for key-value indexes: zipf-popular
GET/PUT (and, for the B+tree, range-scan) workloads over the same fabric,
ring-buffer and adaptive-client machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..btree import (
    BTreeOffloadEngine,
    BTreeService,
    KvBanditSession,
    KvCatfishSession,
    KvFmSession,
    KvOffloadSession,
    KvRequest,
    OP_GET,
    OP_PUT,
    OP_SCAN,
)
from ..client.adaptive import AdaptiveParams
from ..client.base import CLIENT_COUNTER_FIELDS, ClientStats
from ..cuckoo import CuckooOffloadEngine, CuckooService
from ..hw.host import Host
from ..net.fabric import Network, profile_by_name
from ..obs import LatencyView, MetricsRegistry, snapshot_document
from ..server.fast_messaging import EVENT, FastMessagingServer
from ..server.heartbeat import HeartbeatService
from ..sim.kernel import Simulator, all_of
from ..sim.rng import RngRegistry
from .results import RunResult, merge_client_stats

KV_SCHEMES = ("fast-messaging", "rdma-offloading", "catfish",
              "catfish-bandit")
KV_INDEXES = ("btree", "cuckoo")


@dataclass
class KvExperimentConfig:
    """One KV experiment point."""

    index: str = "btree"
    scheme: str = "catfish"
    fabric: str = "ib-100g"
    n_clients: int = 8
    requests_per_client: int = 100

    # Workload: zipf-popular keys, get/put/scan mix.
    n_keys: int = 20_000
    get_fraction: float = 0.9
    scan_fraction: float = 0.0  # B+tree only
    scan_span: int = 200        # key-space width of one scan
    zipf_s: float = 0.99

    # Index parameters.
    capacity: int = 64          # B+tree node capacity
    n_buckets: Optional[int] = None  # cuckoo (default: sized for 60% load)

    server_cores: int = 28
    client_cores: int = 2
    heartbeat_interval: float = 0.5e-3
    adaptive: Optional[AdaptiveParams] = None
    seed: int = 0

    def __post_init__(self):
        if self.index not in KV_INDEXES:
            raise ValueError(f"unknown index {self.index!r}")
        if self.scheme not in KV_SCHEMES:
            raise ValueError(f"unknown kv scheme {self.scheme!r}")
        if self.index == "cuckoo" and self.scan_fraction > 0:
            raise ValueError("cuckoo hashing has no range scans")
        if not 0 <= self.get_fraction + self.scan_fraction <= 1:
            raise ValueError("get/scan fractions exceed 1")
        if self.adaptive is None:
            self.adaptive = AdaptiveParams(Inv=self.heartbeat_interval)

    @property
    def total_requests(self) -> int:
        return self.n_clients * self.requests_per_client


def _kv_workload(config: KvExperimentConfig, keys, rng) -> List[KvRequest]:
    """One client's zipf-popular request stream."""
    from ..workloads.skew import ZipfSampler
    sampler = ZipfSampler(len(keys), config.zipf_s)
    requests: List[KvRequest] = []
    for _ in range(config.requests_per_client):
        roll = rng.random()
        key = keys[sampler.sample(rng)]
        if roll < config.get_fraction:
            requests.append(KvRequest(OP_GET, key=key))
        elif roll < config.get_fraction + config.scan_fraction:
            requests.append(KvRequest(
                OP_SCAN, lo=key, hi=key + config.scan_span,
                max_results=256,
            ))
        else:
            requests.append(KvRequest(OP_PUT, key=key,
                                      value=rng.randrange(1 << 30)))
    return requests


def run_kv_experiment(config: KvExperimentConfig) -> RunResult:
    """Build, run and summarize one KV experiment."""
    sim = Simulator()
    rngs = RngRegistry(config.seed)
    profile = profile_by_name(config.fabric)
    if not profile.rdma:
        raise ValueError("KV experiments run on the RDMA fabric")
    network = Network(sim, profile)
    server_host = Host(sim, "server", profile, cores=config.server_cores)
    network.attach_server(server_host)

    data_rng = rngs.stream("dataset")
    keys = sorted(data_rng.sample(range(1 << 40), config.n_keys))
    items = [(k, k ^ 0x5A5A) for k in keys]
    if config.index == "btree":
        service = BTreeService(sim, server_host, items,
                               capacity=config.capacity)
    else:
        n_buckets = config.n_buckets or max(
            64, int(config.n_keys / (4 * 0.6))
        )
        service = CuckooService(sim, server_host, items,
                                n_buckets=n_buckets,
                                seed=config.seed)
    fm_server = FastMessagingServer(sim, service, network, mode=EVENT)
    heartbeats = HeartbeatService(
        sim, server_host.cpu.window_utilization,
        interval=config.heartbeat_interval,
    )

    all_stats: List[ClientStats] = []
    engines = []
    drivers = []
    for client_id in range(config.n_clients):
        host = Host(sim, f"client-{client_id}", profile,
                    cores=config.client_cores)
        conn = fm_server.open_connection(host)
        stats = ClientStats()
        fm = KvFmSession(sim, conn, client_id, stats)
        heartbeats.subscribe(
            conn.response_ring,
            lambda hb, c=conn: c.server_post_response(hb),
        )
        if config.index == "btree":
            engine = BTreeOffloadEngine(
                sim, conn.client_end, service.offload_descriptor(),
                service.costs, stats,
            )
        else:
            engine = CuckooOffloadEngine(
                sim, conn.client_end, service.descriptor(),
                service.costs, stats,
            )
        session = _make_session(sim, config, fm, engine, stats,
                                rngs.fork(f"client-{client_id}"))
        requests = _kv_workload(
            config, keys,
            rngs.fork(f"client-{client_id}").stream("workload"),
        )
        drivers.append(sim.process(
            _driver(sim, session, requests, stats),
            name=f"kv-client-{client_id}",
        ))
        all_stats.append(stats)
        engines.append(engine)
    heartbeats.start()

    metrics = MetricsRegistry()
    fm_server.register_metrics(metrics)
    heartbeats.register_metrics(metrics)
    metrics.expose("server.cpu_utilization", server_host.cpu.utilization)
    metrics.expose("net.server_bandwidth_gbps",
                   network.server_bandwidth_gbps)
    for field in CLIENT_COUNTER_FIELDS:
        metrics.expose(
            f"client.{field}",
            lambda f=field: sum(int(getattr(s, f)) for s in all_stats),
        )
    # The two engine families count different things (meta/chunk reads vs
    # bucket fetches): expose whatever this index's engine actually has.
    for field in ("meta_reads", "chunks_fetched", "buckets_fetched",
                  "stale_root_detections"):
        if any(hasattr(e, field) for e in engines):
            metrics.expose(
                f"offload.{field}",
                lambda f=field: sum(int(getattr(e, f, 0)) for e in engines),
            )

    sim.run_until_triggered(all_of(sim, drivers))

    merged = merge_client_stats(all_stats)
    elapsed = sim.now
    to_us = 1e6
    metrics.adopt("client.latency_us",
                  LatencyView(merged.latency, scale=to_us, unit="us",
                              loop="closed"))
    return RunResult(
        scheme=f"{config.index}:{config.scheme}",
        fabric=config.fabric,
        n_clients=config.n_clients,
        total_requests=int(merged.requests_sent),
        elapsed_s=elapsed,
        throughput_kops=int(merged.requests_sent) / elapsed / 1e3,
        mean_latency_us=merged.latency.mean * to_us,
        p50_latency_us=merged.latency.percentile(50) * to_us,
        p99_latency_us=merged.latency.percentile(99) * to_us,
        p999_latency_us=merged.latency.percentile(99.9) * to_us,
        mean_search_latency_us=(
            merged.search_latency.mean * to_us
            if merged.search_latency.count else float("nan")
        ),
        server_cpu_utilization=server_host.cpu.utilization(),
        server_bandwidth_gbps=network.server_bandwidth_gbps(),
        server_bandwidth_utilization=(
            network.server_bandwidth_gbps() * 1e9 / profile.bandwidth_bps
        ),
        offload_fraction=merged.offload_fraction,
        torn_retries=int(merged.torn_retries),
        search_restarts=int(merged.search_restarts),
        heartbeats_sent=int(heartbeats.beats_sent),
        heartbeats_dropped=int(heartbeats.beats_dropped),
        metrics=snapshot_document(metrics, meta={
            "scheme": f"{config.index}:{config.scheme}",
            "fabric": config.fabric,
            "n_clients": config.n_clients,
            "requests_per_client": config.requests_per_client,
            "seed": config.seed,
            "elapsed_s": elapsed,
        }),
    )


def _make_session(sim, config, fm, engine, stats, rng_registry):
    scheme = config.scheme
    if scheme == "fast-messaging":
        return fm
    if scheme == "rdma-offloading":
        if config.index == "cuckoo":
            return _CuckooOffloadAll(engine, fm)
        return KvOffloadSession(engine, fm, stats)
    if scheme == "catfish":
        if config.index == "cuckoo":
            from ..cuckoo import CuckooCatfishSession
            cls = CuckooCatfishSession
        else:
            cls = KvCatfishSession
        return cls(sim, fm, engine, stats, params=config.adaptive,
                   rng=rng_registry.stream("backoff"))
    if scheme == "catfish-bandit":
        if config.index == "cuckoo":
            return _CuckooBandit(sim, fm, engine, stats,
                                 rng=rng_registry.stream("bandit"))
        return KvBanditSession(sim, fm, engine, stats,
                               rng=rng_registry.stream("bandit"))
    raise ValueError(scheme)


class _CuckooOffloadAll:
    """Cuckoo always-offload baseline: GETs one-sided, writes via rings."""

    def __init__(self, engine, fm):
        self.engine = engine
        self.fm = fm

    def execute(self, request: KvRequest) -> Generator:
        if request.op == OP_GET:
            result = yield from self.engine.get(request.key)
            return result
        result = yield from self.fm.execute(request)
        return result


class _CuckooBandit:
    """Latency bandit over cuckoo GETs."""

    def __init__(self, sim, fm, engine, stats, rng=None):
        from ..runtime.policy import BanditPolicy
        self._bandit = BanditPolicy(rng=rng)
        self.sim = sim
        self.fm = fm
        self.engine = engine

    def execute(self, request: KvRequest) -> Generator:
        from ..client.bandit import OFFLOADING
        if request.op != OP_GET:
            result = yield from self.fm.execute(request)
            return result
        mode = self._bandit._choose_mode()
        self._bandit.mode_counts[mode] += 1
        start = self.sim.now
        if mode == OFFLOADING:
            result = yield from self.engine.get(request.key)
        else:
            result = yield from self.fm.execute(request)
        self._bandit.estimates[mode].update(self.sim.now - start)
        return result


def _driver(sim, session, requests, stats) -> Generator:
    for request in requests:
        start = sim.now
        yield from session.execute(request)
        stats.requests_sent += 1
        stats.latency.record(sim.now - start)
