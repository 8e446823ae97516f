"""Exact per-layer counts, read from outside after a run.

Everything here comes from the runner's public objects (stacks, session
stats, router stats, the mux's recorded jobs) with one flagged
exception: ``sim.events`` reads ``Simulator._seq``, a private counter,
until a later issue exposes the number of events scheduled.

All counts are functions of the seed alone: two commits that simulate
the same thing report the same numbers, bit for bit.  A metric whose
layer is absent from a deployment (no shard plane, no traffic layer, no
node cache) reads 0 there.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.monitor import LatencyRecorder

from workloads import generator_lag_s


TRAFFIC_METRICS = (
    "traffic.mux_wait_p50_us", "traffic.mux_wait_p99_us",
    "traffic.service_p50_us", "traffic.service_p99_us",
    "traffic.shed_window", "traffic.shed_watermark",
    "traffic.users_touched", "traffic.gen_lag_max_us",
)


def _stacks(runner) -> List:
    if hasattr(runner, "stacks"):           # TrafficRunner
        return runner.stacks
    if hasattr(runner, "shards"):           # ShardedExperimentRunner
        return runner.shards
    return [runner.stack]                   # ExperimentRunner


def _leaf_sessions(runner) -> List:
    """Every per-server session, through routers where there are any."""
    out = []
    for session in runner.sessions:
        if isinstance(session, list):                   # sharded closed loop
            out.extend(session)
        elif hasattr(session, "router_stats"):          # router behind the mux
            out.extend(session.sessions)
        else:
            out.append(session)
    return out


def _router_stats(runner) -> List:
    if hasattr(runner, "router_stats"):
        return runner.router_stats
    return [s.router_stats for s in runner.sessions
            if hasattr(s, "router_stats")]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile_us(values: List[float], p: float) -> float:
    if not values:
        return 0.0
    recorder = LatencyRecorder()
    recorder.samples = values
    return recorder.percentile(p) * 1e6


def layer_counts(runner, completed: int) -> Dict[str, float]:
    """``{metric: value}`` for one finished run with ``completed``
    completed requests."""
    stacks = _stacks(runner)
    sessions = _leaf_sessions(runner)
    client_stats = (runner.session_stats if hasattr(runner, "session_stats")
                    else runner.client_stats)
    conns = [c for s in stacks if s.fm_server is not None
             for c in s.fm_server.connections]
    utils = [s.host.cpu.utilization() for s in stacks]
    gbps = sum(s.network.server_bandwidth_gbps() for s in stacks)
    items = [s.items_held() for s in stacks]

    def total(field: str) -> int:
        return sum(int(getattr(stats, field)) for stats in client_stats)

    offloaded = total("offloaded_requests")
    engines = [e for e in (getattr(s, "engine", None) for s in sessions)
               if e is not None]
    caches = [e.cache for e in engines if e.cache is not None]
    hits = sum(int(c.hits) for c in caches)
    misses = sum(int(c.misses) for c in caches)
    policies = [s.policy for s in sessions]

    out = {
        "sim.events": runner.sim._seq,      # private read, see module doc
        "sim.events_per_req": _ratio(runner.sim._seq, completed),
        "hw.cpu_util_mean": sum(utils) / len(utils),
        "hw.cpu_util_max": max(utils),
        "net.server_gbps": gbps,
        "net.server_bw_util": _ratio(
            gbps * 1e9, runner.profile.bandwidth_bps * len(stacks)),
        "transport.server_nic_wqes_per_req": _ratio(
            sum(s.host.nic.ops_processed for s in stacks), completed),
        "msg.req_ring_hwm": max(
            (c.request_ring.high_watermark for c in conns), default=0),
        "msg.resp_ring_hwm": max(
            (c.response_ring.high_watermark for c in conns), default=0),
        "msg.ring_bytes_per_req": _ratio(
            sum(c.request_ring.bytes_sent + c.response_ring.bytes_sent
                for c in conns), completed),
        "server.fm_handled_per_req": _ratio(
            sum(int(s.fm_server.requests_handled) for s in stacks
                if s.fm_server is not None), completed),
        "server.wakeups_per_req": _ratio(
            sum(c.server_channel.wakeups for c in conns
                if c.server_channel is not None), completed),
        "server.shed": sum(int(s.fm_server.requests_shed) for s in stacks
                           if s.fm_server is not None),
        "server.heartbeats_sent": sum(
            int(s.heartbeats.beats_sent) for s in stacks
            if s.heartbeats is not None),
        "rtree.results_per_search": _ratio(
            total("results_received"),
            sum(int(s.server.searches_served) for s in stacks) + offloaded),
        "rtree.items_final": sum(items),
        "client.offload_fraction": _ratio(
            offloaded, offloaded + total("fast_messaging_requests")),
        "client.chunks_per_offload": _ratio(
            sum(int(e.chunks_fetched) for e in engines), offloaded),
        "client.meta_reads_per_offload": _ratio(
            sum(int(e.meta_reads) for e in engines), offloaded),
        "client.torn_retries": total("torn_retries"),
        "client.search_restarts": total("search_restarts"),
        "client.cache_hit_ratio": _ratio(hits, hits + misses),
        "client.cache_invalidations": sum(
            int(c.invalidations) for c in caches),
        "client.busy_observations": sum(
            int(getattr(p, "busy_observations", 0)) for p in policies),
        "client.backoff_extensions": sum(
            int(getattr(p, "backoff_extensions", 0)) for p in policies),
        "shard.occupancy_max_share": (
            _ratio(max(items), sum(items)) if len(stacks) > 1 else 0.0),
    }

    routers = _router_stats(runner)

    def routed(field: str) -> int:
        return sum(int(getattr(r, field)) for r in routers)

    queries = routed("queries_routed") if routers else 0
    out.update({
        "shard.subqueries_per_req": _ratio(
            routed("subqueries_issued"), queries) if routers else 0.0,
        "shard.pruned_per_req": _ratio(
            routed("shards_pruned"), queries) if routers else 0.0,
        "shard.rescatters": routed("epoch_rescatters") if routers else 0,
        "shard.dup_merged": routed("duplicates_merged") if routers else 0,
    })
    rebalance = getattr(runner, "rebalance_stats", None)
    for name, field in (("splits", "splits"),
                        ("migrations", "migrations_completed"),
                        ("items_migrated", "items_migrated"),
                        ("epoch_bumps", "epoch_bumps")):
        out[f"shard.{name}"] = (int(getattr(rebalance, field))
                                if rebalance is not None else 0)

    out.update(_traffic_counts(runner))
    return out


def _traffic_counts(runner) -> Dict[str, float]:
    """The mux stage split needs the recorded jobs (``record=True``)."""
    mux = getattr(runner, "mux", None)
    if mux is None:
        return {name: 0 for name in TRAFFIC_METRICS}
    jobs = mux.finished_jobs
    waits = [j.t_start - j.t_arrival for j in jobs]
    services = [j.t_done - j.t_start for j in jobs]
    return {
        "traffic.mux_wait_p50_us": percentile_us(waits, 50),
        "traffic.mux_wait_p99_us": percentile_us(waits, 99),
        "traffic.service_p50_us": percentile_us(services, 50),
        "traffic.service_p99_us": percentile_us(services, 99),
        "traffic.shed_window": sum(a.shed_window for a in runner.aggregates),
        "traffic.shed_watermark": mux.shed_watermark,
        "traffic.users_touched": sum(
            a.users_touched for a in runner.aggregates),
        "traffic.gen_lag_max_us": generator_lag_s(runner) * 1e6,
    }

